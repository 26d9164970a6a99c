// FleetReport accumulation, merging and the byte-stable focv-fleet/v1
// JSON / focv-fleet-node/v1 JSONL exports.
#include <algorithm>
#include <fstream>

#include "common/json.hpp"
#include "common/require.hpp"
#include "fleet/fleet.hpp"

namespace focv::fleet {

namespace {

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += format_number(values[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string histogram_json(const FixedHistogram& h) {
  return "{\"edges\": " + json_array(h.edges) + ", \"counts\": " + json_array(h.counts) + "}";
}

// Distribution bin edges: part of the focv-fleet/v1 schema (documented
// in EXPERIMENTS.md). Efficiency is linear in [0, 1]; net energy and
// downtime are signed/positive decades.
std::vector<double> efficiency_edges() {
  std::vector<double> e(21);
  for (int i = 0; i <= 20; ++i) e[static_cast<std::size_t>(i)] = 0.05 * i;
  return e;
}

std::vector<double> net_energy_edges() {
  return {-1e6, -100.0, -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 100.0, 1e6};
}

std::vector<double> downtime_edges() {
  return {0.0, 1.0, 10.0, 60.0, 600.0, 3600.0, 14400.0, 43200.0, 86400.0, 604800.0};
}

}  // namespace

FixedHistogram::FixedHistogram(std::vector<double> bin_edges) : edges(std::move(bin_edges)) {
  require(edges.size() >= 2, "FixedHistogram: need at least 2 edges");
  for (std::size_t i = 1; i < edges.size(); ++i) {
    require(edges[i] > edges[i - 1], "FixedHistogram: edges must strictly increase");
  }
  counts.assign(edges.size() - 1, 0);
}

void FixedHistogram::observe(double value) {
  require(!counts.empty(), "FixedHistogram::observe: default-constructed histogram");
  // upper_bound - 1 is the bin whose [lo, hi) contains the value;
  // out-of-range values clamp into the end bins so totals stay exact.
  const auto it = std::upper_bound(edges.begin(), edges.end(), value);
  std::size_t bin = it == edges.begin() ? 0 : static_cast<std::size_t>(it - edges.begin()) - 1;
  bin = std::min(bin, counts.size() - 1);
  ++counts[bin];
}

void FixedHistogram::merge(const FixedHistogram& other) {
  require(edges == other.edges, "FixedHistogram::merge: edge mismatch");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
}

std::uint64_t FixedHistogram::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

namespace detail {

FleetReport make_skeleton(const FleetSpec& spec, const std::vector<PolicyAxis>& policies) {
  FleetReport r;
  r.node_count = spec.node_count;
  r.root_seed = spec.root_seed;
  r.chunk_size = spec.chunk_size;
  for (const EnvironmentAxis& e : spec.environments) {
    if (e.trace) r.duration_s = std::max(r.duration_s, e.trace->duration());
    EnvironmentAggregate env;
    env.environment = e.name;
    r.environments.push_back(std::move(env));
  }
  for (const PolicyAxis& p : policies) {
    PolicyAggregate agg;
    agg.policy = p.label;
    r.policies.push_back(std::move(agg));
  }
  r.efficiency_hist = FixedHistogram(efficiency_edges());
  r.net_energy_hist = FixedHistogram(net_energy_edges());
  r.downtime_hist = FixedHistogram(downtime_edges());
  return r;
}

std::string node_record_jsonl(const FleetSpec& spec, const NodeDraw& draw,
                              const node::NodeReport& report, bool failed,
                              const std::string& error, bool energy_neutral,
                              double downtime_s) {
  std::string out = "{\"schema\": \"focv-fleet-node/v1\"";
  out += ", \"node\": " + std::to_string(draw.node);
  out += ", \"seed\": " + std::to_string(draw.seed);
  out += ", \"environment\": \"" +
         json_escape(spec.environments[draw.env_index].name) + "\"";
  const std::vector<PolicyAxis> policies = effective_policies(spec);
  require(draw.policy_index < policies.size(),
          "fleet jsonl: draw's policy index does not match this spec's mixture");
  out += ", \"policy\": \"" + json_escape(policies[draw.policy_index].label) + "\"";
  out += ", \"attenuation\": " + format_number(draw.attenuation);
  out += ", \"cell_factor\": " + format_number(draw.cell_factor);
  out += ", \"divider_ratio\": " + format_number(draw.divider_ratio);
  out += ", \"report_period_s\": " + format_number(draw.report_period);
  out += ", \"burst_phase_s\": " + format_number(draw.burst_phase);
  out += ", \"failed\": ";
  out += failed ? "true" : "false";
  if (failed) {
    out += ", \"error\": \"" + json_escape(error) + "\"";
  } else {
    out += ", \"energy_neutral\": ";
    out += energy_neutral ? "true" : "false";
    out += ", \"harvested_j\": " + format_number(report.harvested_energy);
    out += ", \"delivered_j\": " + format_number(report.delivered_energy);
    out += ", \"overhead_j\": " + format_number(report.overhead_energy);
    out += ", \"load_served_j\": " + format_number(report.load_energy_served);
    out += ", \"net_j\": " + format_number(report.net_energy());
    out += ", \"tracking_efficiency\": " + format_number(report.tracking_efficiency());
    out += ", \"downtime_s\": " + format_number(downtime_s);
    out += ", \"final_store_v\": " + format_number(report.final_store_voltage);
    out += ", \"coldstart_s\": " + format_number(report.coldstart_time);
  }
  out += "}";
  return out;
}

}  // namespace detail

void FleetReport::add_node(const NodeDraw& draw, const node::NodeReport& report,
                           bool energy_neutral, double node_downtime_s) {
  require(draw.policy_index < policies.size() && draw.env_index < environments.size(),
          "FleetReport::add_node: draw does not match this report's shape");
  const double eff = report.tracking_efficiency();
  const double net = report.net_energy();

  if (nodes_ok == 0) {
    efficiency_min = eff;
    efficiency_max = eff;
  } else {
    efficiency_min = std::min(efficiency_min, eff);
    efficiency_max = std::max(efficiency_max, eff);
  }
  ++nodes_ok;
  if (energy_neutral) ++energy_neutral_nodes;
  harvested_j += report.harvested_energy;
  delivered_j += report.delivered_energy;
  overhead_j += report.overhead_energy;
  load_served_j += report.load_energy_served;
  ideal_mpp_j += report.ideal_mpp_energy;
  net_j += net;
  downtime_s += node_downtime_s;
  steps += report.steps;
  model_evals += report.model_evals;
  curve_entries += report.curve_entries;
  events += report.events;
  efficiency_sum += eff;
  efficiency_hist.observe(eff);
  net_energy_hist.observe(net);
  downtime_hist.observe(node_downtime_s);

  PolicyAggregate& p = policies[draw.policy_index];
  if (p.nodes == 0) {
    p.efficiency_min = eff;
    p.efficiency_max = eff;
  } else {
    p.efficiency_min = std::min(p.efficiency_min, eff);
    p.efficiency_max = std::max(p.efficiency_max, eff);
  }
  ++p.nodes;
  if (energy_neutral) ++p.energy_neutral;
  p.harvested_j += report.harvested_energy;
  p.net_j += net;
  p.downtime_s += node_downtime_s;
  p.efficiency_sum += eff;

  ++environments[draw.env_index].nodes;
}

void FleetReport::add_failed_node(const NodeDraw& draw) {
  require(draw.policy_index < policies.size() && draw.env_index < environments.size(),
          "FleetReport::add_failed_node: draw does not match this report's shape");
  ++nodes_failed;
  ++policies[draw.policy_index].failed;
  ++environments[draw.env_index].nodes;
}

void FleetReport::merge(const FleetReport& other) {
  require(policies.size() == other.policies.size() &&
              environments.size() == other.environments.size(),
          "FleetReport::merge: shape mismatch");

  if (other.nodes_ok > 0) {
    if (nodes_ok == 0) {
      efficiency_min = other.efficiency_min;
      efficiency_max = other.efficiency_max;
    } else {
      efficiency_min = std::min(efficiency_min, other.efficiency_min);
      efficiency_max = std::max(efficiency_max, other.efficiency_max);
    }
  }
  nodes_ok += other.nodes_ok;
  nodes_failed += other.nodes_failed;
  energy_neutral_nodes += other.energy_neutral_nodes;
  harvested_j += other.harvested_j;
  delivered_j += other.delivered_j;
  overhead_j += other.overhead_j;
  load_served_j += other.load_served_j;
  ideal_mpp_j += other.ideal_mpp_j;
  net_j += other.net_j;
  downtime_s += other.downtime_s;
  steps += other.steps;
  model_evals += other.model_evals;
  curve_entries += other.curve_entries;
  events += other.events;
  efficiency_sum += other.efficiency_sum;
  efficiency_hist.merge(other.efficiency_hist);
  net_energy_hist.merge(other.net_energy_hist);
  downtime_hist.merge(other.downtime_hist);

  for (std::size_t i = 0; i < policies.size(); ++i) {
    PolicyAggregate& p = policies[i];
    const PolicyAggregate& o = other.policies[i];
    require(p.policy == o.policy, "FleetReport::merge: policy row mismatch");
    if (o.nodes > 0) {
      if (p.nodes == 0) {
        p.efficiency_min = o.efficiency_min;
        p.efficiency_max = o.efficiency_max;
      } else {
        p.efficiency_min = std::min(p.efficiency_min, o.efficiency_min);
        p.efficiency_max = std::max(p.efficiency_max, o.efficiency_max);
      }
    }
    p.nodes += o.nodes;
    p.failed += o.failed;
    p.energy_neutral += o.energy_neutral;
    p.harvested_j += o.harvested_j;
    p.net_j += o.net_j;
    p.downtime_s += o.downtime_s;
    p.efficiency_sum += o.efficiency_sum;
  }
  for (std::size_t i = 0; i < environments.size(); ++i) {
    require(environments[i].environment == other.environments[i].environment,
            "FleetReport::merge: environment row mismatch");
    environments[i].nodes += other.environments[i].nodes;
  }
}

std::string FleetReport::to_json(bool include_timing) const {
  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(kSchema) + "\",\n";
  out += "  \"fleet\": {\"node_count\": " + std::to_string(node_count) +
         ", \"root_seed\": " + std::to_string(root_seed) +
         ", \"chunk_size\": " + std::to_string(chunk_size) +
         ", \"duration_s\": " + format_number(duration_s) + "},\n";
  out += "  \"totals\": {\"nodes_ok\": " + std::to_string(nodes_ok) +
         ", \"nodes_failed\": " + std::to_string(nodes_failed) +
         ", \"energy_neutral_nodes\": " + std::to_string(energy_neutral_nodes) +
         ", \"energy_neutral_fraction\": " + format_number(energy_neutral_fraction()) +
         ", \"harvested_j\": " + format_number(harvested_j) +
         ", \"delivered_j\": " + format_number(delivered_j) +
         ", \"overhead_j\": " + format_number(overhead_j) +
         ", \"load_served_j\": " + format_number(load_served_j) +
         ", \"ideal_mpp_j\": " + format_number(ideal_mpp_j) +
         ", \"net_j\": " + format_number(net_j) +
         ", \"downtime_s\": " + format_number(downtime_s) +
         ", \"steps\": " + std::to_string(steps) +
         ", \"model_evals\": " + std::to_string(model_evals) +
         ", \"curve_entries\": " + std::to_string(curve_entries) +
         ", \"events\": " + std::to_string(events) + "},\n";
  out += "  \"tracking_efficiency\": {\"mean\": " + format_number(mean_tracking_efficiency()) +
         ", \"min\": " + format_number(efficiency_min) +
         ", \"max\": " + format_number(efficiency_max) +
         ", \"histogram\": " + histogram_json(efficiency_hist) + "},\n";
  out += "  \"net_energy_j\": {\"histogram\": " + histogram_json(net_energy_hist) + "},\n";
  out += "  \"downtime_s\": {\"histogram\": " + histogram_json(downtime_hist) + "},\n";

  out += "  \"policies\": [\n";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicyAggregate& p = policies[i];
    out += "    {\"policy\": \"" + json_escape(p.policy) + "\"" +
           ", \"nodes\": " + std::to_string(p.nodes) +
           ", \"failed\": " + std::to_string(p.failed) +
           ", \"energy_neutral\": " + std::to_string(p.energy_neutral) +
           ", \"energy_neutral_fraction\": " + format_number(p.energy_neutral_fraction()) +
           ", \"mean_tracking_efficiency\": " + format_number(p.mean_efficiency()) +
           ", \"min_tracking_efficiency\": " + format_number(p.efficiency_min) +
           ", \"max_tracking_efficiency\": " + format_number(p.efficiency_max) +
           ", \"harvested_j\": " + format_number(p.harvested_j) +
           ", \"net_j\": " + format_number(p.net_j) +
           ", \"downtime_s\": " + format_number(p.downtime_s) + "}";
    out += i + 1 < policies.size() ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"environments\": [\n";
  for (std::size_t i = 0; i < environments.size(); ++i) {
    out += "    {\"environment\": \"" + json_escape(environments[i].environment) +
           "\", \"nodes\": " + std::to_string(environments[i].nodes) + "}";
    out += i + 1 < environments.size() ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"load\": {\"window_s\": " + format_number(load.window_s) +
         ", \"peak_concurrent_tx\": " + std::to_string(load.peak_concurrent_tx) +
         ", \"peak_load_w\": " + format_number(load.peak_load_w) +
         ", \"average_load_w\": " + format_number(load.average_load_w) + "}";
  if (include_timing) {
    out += ",\n  \"timing\": {\"wall_seconds\": " + format_number(wall_seconds) +
           ", \"jobs_used\": " + std::to_string(jobs_used) + "}";
  }
  out += "\n}\n";
  return out;
}

void FleetReport::write_json(const std::string& path, bool include_timing) const {
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "FleetReport::write_json: cannot open " + path);
  f << to_json(include_timing);
  require(f.good(), "FleetReport::write_json: write failed for " + path);
}

}  // namespace focv::fleet
