// One node's run of the stepper behind node::simulate_node, as an
// object. The segment walk is a run planner: next_ticks() macro-steps
// every interval it can (gated spans, sample-and-hold and memoryless
// runs, store crossings) and stops at the next span of steps that must
// tick.
//
// node::simulate_node drives one run at a time (sched/macro_stepper.cpp):
// plan, tick the span on the scalar step body, repeat. The fleet's
// hill-climber lanes (fleet/hill.cpp) drive many runs at once: they
// tick the lit spans of W same-environment nodes in lockstep and hand
// each node back to its own planner at its span's end, through
// tick_state() / set_tick_state(). Either way every report byte is the
// one simulate_node produces.
//
// The header is declarations only, so the lane kernel's wide-ISA
// objects can include it without instantiating any inline code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace focv::env {
class LightTrace;
}
namespace focv::mppt {
class MpptController;
}
namespace focv::node {
class CurveCache;
struct NodeConfig;
struct NodeReport;
}  // namespace focv::node

namespace focv::sched {

class PreparedTrace;

/// A span of trace steps [a, b) that must tick.
struct TickSpan {
  std::size_t a = 0;
  std::size_t b = 0;
};

/// What a lean tick carries from step to step besides the controller:
/// the supercapacitor voltage, the previous operating point the
/// controller senses, and the report sums the step adds into.
struct TickState {
  double store_voltage = 0.0;
  double prev_power = 0.0;
  double prev_voltage = 0.0;
  double ideal_mpp_energy = 0.0;
  double harvested_energy = 0.0;
  double delivered_energy = 0.0;
  double overhead_energy = 0.0;
  double load_energy_served = 0.0;
  double brownout_time = 0.0;
  double coldstart_time = -1.0;
};

class NodeRun {
 public:
  /// The arguments of node::simulate_node, which must outlive the run.
  NodeRun(const env::LightTrace& trace, const node::NodeConfig& config,
          node::CurveCache* shared_curves, const PreparedTrace* prepared);
  ~NodeRun();
  NodeRun(const NodeRun&) = delete;
  NodeRun& operator=(const NodeRun&) = delete;

  /// Advances the run up to the next span that must tick and returns it
  /// in `span`; false once the trace is done. The caller ticks every
  /// span, reproducing the lean scalar tick, and hands its end state
  /// back through set_tick_state() before the next call. Only lean runs
  /// (surrogate model, supercapacitor, no cold start, recording, load
  /// bursts or telemetry) may be ticked this way.
  bool next_ticks(TickSpan& span);
  /// The report, once next_ticks() has returned false.
  [[nodiscard]] node::NodeReport finish();

  /// The run's controller, cloned from the config's prototype and reset.
  [[nodiscard]] mppt::MpptController& controller();
  [[nodiscard]] TickState tick_state() const;
  /// Takes back a span ticked elsewhere: its end state, its step count
  /// and how many of its steps browned out.
  void set_tick_state(const TickState& state, std::uint64_t ticks, int brownout_steps);

  class Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace focv::sched
