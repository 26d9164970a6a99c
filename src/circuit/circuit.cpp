#include "circuit/circuit.hpp"

#include "common/require.hpp"

namespace focv::circuit {

NodeId Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = node_index_.find(name);
  if (it != node_index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_index_.emplace(name, id);
  return id;
}

NodeId Circuit::internal_node(const std::string& prefix) {
  return node(prefix + "#" + std::to_string(anon_counter_++));
}

const std::string& Circuit::node_name(NodeId n) const {
  require(n >= 0 && n < node_count(), "Circuit::node_name: invalid node id");
  return node_names_[static_cast<std::size_t>(n)];
}

std::vector<std::string> Circuit::unknown_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(unknown_count()));
  for (NodeId n = 1; n < node_count(); ++n) names.push_back(node_name(n));
  for (const auto& device : devices_) {
    const int count = device->branch_count();
    for (int k = 0; k < count; ++k) {
      // Built by append: GCC 12 at -O3 warns (-Wrestrict) on the inlined
      // `"I(" + std::string` operator+.
      std::string name = "I(";
      name.append(device->name()).append(")");
      if (count > 1) name.append("#").append(std::to_string(k));
      names.push_back(std::move(name));
    }
  }
  return names;
}

NodeId Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = node_index_.find(name);
  require(it != node_index_.end(), "Circuit::find_node: unknown node '" + name + "'");
  return it->second;
}

void Circuit::finalize() {
  int offset = 0;
  for (const auto& device : devices_) {
    device->set_branch_offset(offset);
    offset += device->branch_count();
  }
  branch_count_ = offset;
}

double Circuit::total_quiescent_current() const {
  double total = 0.0;
  for (const auto& device : devices_) total += device->quiescent_current();
  return total;
}

}  // namespace focv::circuit
