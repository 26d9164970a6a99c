// Hill-climber lanes for run_fleet under FleetEngine::kSoa.
//
// `graddesc` and `pando` nodes cannot batch: their controllers act on
// every lit step. run_fleet collects them from the whole fleet before
// any chunk runs, groups them by (environment, policy axis), orders
// each group by lux scale and runs groups W nodes at a time in the
// lockstep lane kernel (hill_lanes.cpp), as pool tasks of their own.
// The chunks then skip those nodes and fold the lane outcomes in node
// order, so every report byte is the per-node path's.
//
// A node rides a lane when all of these hold; any other node stays on
// the per-node path:
//  - its controller's exact type (not a subclass) is
//    GradientDescentController or HillClimbingController;
//  - the run is lean: surrogate model, event stepper, supercapacitor,
//    no cold start, recording or load bursts, telemetry off;
//  - every curve slot its run can query lies inside the plan's dense
//    table, so its curve cache builds nothing and no counter moves;
//  - the host runs a lane width (soa::internal::lanes_width() > 0);
//  - the spec has an SoA plan, i.e. some axis batches: a fleet of only
//    per-node laws keeps the per-node engine's bytes, cache counters
//    included, under both engines;
//  - its W-node batch holds at least kMinBatch nodes: a group's tail
//    below that runs per-node, where it ticks faster.
//
// Groups span the fleet, not a chunk: a 64-node chunk holds only a few
// nodes of any one group, too few to fill the lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/soa.hpp"
#include "node/curve_cache.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::fleet::hill {

/// What a lane node's run produced: its report, or the error it threw.
struct Outcome {
  node::NodeReport report;
  std::string error;
  bool failed = false;
};

/// Smallest batch worth a lane block: one busy lane costs about twice
/// the per-node tick, two break even (EXPERIMENTS.md).
inline constexpr std::size_t kMinBatch = 2;

class Lanes {
 public:
  /// Collects and groups the lane nodes of `spec` (draws every node
  /// once, only when some policy axis is a lane law). The plan, the
  /// prepared traces and the warm cache must outlive this object.
  Lanes(const FleetSpec& spec, const std::vector<PolicyAxis>& policies,
        const std::vector<std::optional<sched::PreparedTrace>>& prepared,
        const soa::SoaPlan& plan, const node::CurveCache& warm);

  [[nodiscard]] bool empty() const { return nodes_.empty(); }
  /// Independent units of work: each runs its share of the groups'
  /// W-node batches. `executors` is the number of threads that will
  /// run them.
  [[nodiscard]] std::size_t task_count(int executors) const;
  void run_task(std::size_t task, std::size_t task_count);
  /// The outcome of node `index` when it rode a lane, else null. Valid
  /// once every task has run; the chunk that owns the node takes it.
  [[nodiscard]] Outcome* outcome(std::size_t index);

 private:
  struct Member {
    NodeDraw draw;
    double scale_key = 0.0;  ///< attenuation * cell_factor: the group order
  };
  struct Batch {
    std::size_t first = 0;  ///< into nodes_
    std::size_t count = 0;
    std::size_t axis = 0;
  };

  const FleetSpec& spec_;
  const std::vector<std::optional<sched::PreparedTrace>>& prepared_;
  const soa::SoaPlan& plan_;
  const node::CurveCache& warm_;
  const std::vector<PolicyAxis>& policies_;
  int width_ = 0;
  std::vector<Member> nodes_;              ///< grouped, each group ordered by scale
  std::vector<Batch> batches_;             ///< up to width_ consecutive nodes_ of one group
  std::vector<std::uint32_t> slot_;        ///< node index -> nodes_/outcomes_ slot
  std::vector<Outcome> outcomes_;          ///< parallel to nodes_
};

}  // namespace focv::fleet::hill
