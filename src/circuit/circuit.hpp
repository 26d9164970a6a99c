// Circuit container: nodes, devices, and MNA bookkeeping.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/device.hpp"

namespace focv::circuit {

/// A netlist: named nodes plus owned devices.
///
/// Usage:
///   Circuit ckt;
///   auto vdd = ckt.node("vdd");
///   ckt.add<VoltageSource>("V1", vdd, kGround, Waveform::dc(3.3));
///   ckt.add<Resistor>("R1", vdd, ckt.node("out"), 10e3);
class Circuit {
 public:
  Circuit() { node_names_.push_back("0"); }

  /// Get or create a named node. "0" and "gnd" refer to ground.
  NodeId node(const std::string& name);

  /// Create a fresh anonymous internal node.
  NodeId internal_node(const std::string& prefix = "int");

  /// Construct and register a device. Returns a stable reference.
  template <typename DeviceT, typename... Args>
  DeviceT& add(Args&&... args) {
    auto device = std::make_unique<DeviceT>(std::forward<Args>(args)...);
    DeviceT& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  /// Number of nodes including ground.
  [[nodiscard]] int node_count() const { return static_cast<int>(node_names_.size()); }

  /// Total branch variables across devices (assigned by finalize()).
  [[nodiscard]] int branch_count() const { return branch_count_; }

  /// Size of the MNA unknown vector.
  [[nodiscard]] int unknown_count() const { return node_count() - 1 + branch_count(); }

  [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  [[nodiscard]] const std::string& node_name(NodeId n) const;

  /// Names of the MNA unknowns in solution order: each non-ground node,
  /// then each branch current as "I(device)" ("I(device)#k" for a
  /// device with several branches). Call after finalize().
  [[nodiscard]] std::vector<std::string> unknown_names() const;

  /// Look up an existing node id by name; throws if absent.
  [[nodiscard]] NodeId find_node(const std::string& name) const;

  /// Assign branch variable offsets. Called by analyses; idempotent.
  void finalize();

  /// Sum of quiescent currents reported by behavioural devices [A].
  [[nodiscard]] double total_quiescent_current() const;

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<std::unique_ptr<Device>> devices_;
  int branch_count_ = 0;
  int anon_counter_ = 0;
};

}  // namespace focv::circuit
