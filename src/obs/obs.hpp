// focv::obs — unified process-wide telemetry facade.
//
// One global switch, three global sinks:
//
//   if (obs::enabled()) {            // one relaxed atomic load
//     obs::metrics().add(id, 1.0);   // counters / gauges / histograms
//     obs::tracer().span(...);       // Chrome-trace spans
//     obs::events().emit(...);       // focv-obs/v1 JSONL domain events
//   }
//
// Telemetry is OFF by default: the compiled-in off path of every
// instrument site is the enabled() branch alone, one predictable-not-
// taken branch on an uncontended cache line. No bench case measures
// that off path; the bench/micro obs_overhead_* pairs measure the tax
// of turning telemetry on (committed in BENCH_micro.json as
// overhead_obs_overhead 1.059 on the 24 h simulate_node run and
// overhead_obs_overhead_soa 0.978 on the SoA fleet sweep; CI gates both
// at 1.25x). Enabling telemetry only ever *observes* the
// simulation — instrument sites must not alter control flow, RNG draws
// or floating-point dataflow, which is what keeps exact-mode sweep
// exports byte-identical with tracing on or off (pinned by
// tests/obs/determinism_test.cpp).
//
// Instrument sites cache metric ids in function-local statics:
//
//   static const obs::CounterId id = obs::metrics().counter("node.steps");
//
// reset_all() clears recorded data but keeps registrations, so cached
// ids stay valid across runs.
#pragma once

#include <atomic>
#include <string>

#include "obs/event_log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace focv::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global telemetry switch (off by default).
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Process-wide sinks. Construction is thread-safe and lazy; the
/// instances live until process exit.
[[nodiscard]] MetricsRegistry& metrics();
[[nodiscard]] Tracer& tracer();
[[nodiscard]] EventLog& events();

/// Clear all recorded telemetry (spans, events, metric values). Metric
/// registrations survive, so ids cached in static locals stay valid.
void reset_all();

/// Write the tracer's Chrome trace JSON to `path`.
void write_trace(const std::string& path);
/// Write the combined JSONL stream — every buffered event followed by
/// one line per metric — to `path` (schema focv-obs/v1 throughout).
void write_metrics_jsonl(const std::string& path);

/// Arm the process-wide flight recorder (obs/flight.hpp) and attach it
/// to the global event log: every event line rendered from now on is
/// retained in the recorder's fixed-size tail.
void arm_flight(FlightRecorder::Options options);
/// Detach from the event log and stop recording.
void disarm_flight();

/// Record an anomaly — a brown-out, a cold-start certification
/// failure, a Newton non-convergence. Emits `name` as a domain event,
/// bumps the `obs.anomalies` counter and, when the flight recorder is
/// armed, drains pending events into it and writes a
/// focv-obs-flight/v1 dump. No-op (one branch) while telemetry is off;
/// never alters simulation state.
void anomaly(std::string_view name, double sim_t,
             std::initializer_list<EventField> fields = {});

/// RAII enable/disable for tests and scoped captures.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : previous_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(previous_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool previous_;
};

}  // namespace focv::obs
