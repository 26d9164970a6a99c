// Internal helpers shared between the fleet translation units
// (fleet.cpp, report.cpp, soa.cpp). Not part of the public API.
#pragma once

#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace focv::fleet::detail {

/// Skeleton report with every env/policy row present (so merges of
/// partial reports line up) and zero counters.
FleetReport make_skeleton(const FleetSpec& spec, const std::vector<PolicyAxis>& policies);

/// One focv-fleet-node/v1 JSONL record (no trailing newline).
std::string node_record_jsonl(const FleetSpec& spec, const NodeDraw& draw,
                              const node::NodeReport& report, bool failed,
                              const std::string& error, bool energy_neutral,
                              double downtime_s);

/// draw_node() minus the per-call validation and policy-mixture
/// materialization: the fleet loop validates the spec once, resolves
/// effective_policies() once, and then draws millions of nodes through
/// this. Identical output to draw_node(spec, index) by construction.
NodeDraw draw_node_prevalidated(const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
                                std::size_t index);

/// A node's load burst clock: bursts start at k * period + phase.
struct BurstClock {
  double period = 0.0;
  double phase = 0.0;
};

/// analyze_load_concurrency() on clocks already drawn (clocks[i] is
/// node i's report_period and burst_phase), so run_fleet can reuse the
/// draws its chunks made. The spec must already be validated.
LoadConcurrency load_concurrency(const FleetSpec& spec, const std::vector<BurstClock>& clocks,
                                 double window_s);

/// The store voltage a node starts from (battery OCV or supercap
/// initial voltage) — the energy-neutrality reference.
double initial_store_voltage(const node::NodeConfig& config);

}  // namespace focv::fleet::detail
