// End-to-end energy-harvesting node simulation:
//   light trace -> PV cell -> MPPT controller -> converter -> store -> load.
//
// This is the fast behavioural tier used for 24-hour scenarios and the
// state-of-the-art comparison bench; waveform-level behaviour is covered
// by the circuit netlists in focv::core.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "env/light_trace.hpp"
#include "mppt/controller.hpp"
#include "mppt/registry.hpp"
#include "node/curve_cache.hpp"
#include "power/battery.hpp"
#include "power/coldstart.hpp"
#include "power/converter.hpp"
#include "power/load.hpp"
#include "power/storage.hpp"
#include "pv/diode_models.hpp"
#include "sched/options.hpp"

namespace focv::sched {
class PreparedTrace;  // sched/prepared_trace.hpp
}

namespace focv::node {

/// Time-advancement strategy of simulate_node. Both run one stepper
/// (sched/macro_stepper.cpp) and one definition of a step: PV curve ->
/// controller -> converter -> store -> load.
enum class Stepper {
  /// Tick every trace step (the bit-identical reference). NodeConfig::
  /// events is ignored and NodeReport::events stays 0.
  kFixed,
  /// Event-driven macro-stepping (focv::sched): advance from event to
  /// event — MPPT sample/hold boundaries, light-trace segments, storage
  /// threshold crossings, report points — integrating analytically in
  /// between. Energy/efficiency outputs agree with kFixed to within
  /// 0.1 % (enforced by tests/sched/) at 1-2 orders of magnitude fewer
  /// steps. Per-step-only controllers such as P&O run here too: spans
  /// under their supply floor advance in closed form, and lit spans
  /// tick with kFixed's own step (harvest and brown-out steps
  /// bit-identical). Configurations the engine cannot macro-step (exact
  /// power model, the obs_compare_exact shadow) tick every step exactly
  /// as kFixed does.
  kEvent,
};

/// Static configuration of a simulated node.
///
/// A config owns (shares) its cell model and holds the controller only
/// as an immutable *prototype*: `simulate_node` clones the prototype
/// for each run, so the same `NodeConfig` value can drive many runs
/// concurrently from different threads (this is what the sweep engine
/// in focv::runtime relies on).
struct NodeConfig {
  /// Cell model (required). Set with use_cell().
  std::shared_ptr<const pv::SingleDiodeModel> cell_model;
  /// Controller prototype (required): cloned once per run, never
  /// mutated. Set with use_controller().
  std::shared_ptr<const mppt::MpptController> controller_prototype;

  /// Point at a long-lived cell (e.g. a pv::cell_library singleton)
  /// without taking ownership.
  void use_cell(const pv::SingleDiodeModel& cell_ref) {
    cell_model = std::shared_ptr<const pv::SingleDiodeModel>(
        std::shared_ptr<const pv::SingleDiodeModel>(), &cell_ref);
  }
  /// Share ownership of a heap-allocated cell model.
  void use_cell(std::shared_ptr<const pv::SingleDiodeModel> cell_ptr) {
    cell_model = std::move(cell_ptr);
  }
  /// Store a deep copy of `prototype` as this config's controller.
  void use_controller(const mppt::MpptController& prototype) {
    controller_prototype = prototype.clone();
  }
  /// Take ownership of an already-built controller prototype.
  void use_controller(std::unique_ptr<mppt::MpptController> prototype) {
    controller_prototype = std::move(prototype);
  }
  /// Build the controller from a registry spec string, e.g.
  /// `"focv[k=0.6,hold=69s]"` or `"graddesc[lr=0.05]"` (grammar and
  /// catalog: mppt/registry.hpp). Throws mppt::SpecError on an unknown
  /// name or a malformed/out-of-range parameter — never silently falls
  /// back to a default-constructed controller.
  void use_controller(const std::string& spec) {
    controller_prototype = mppt::Registry::instance().make(spec);
  }

  /// PV curve evaluation strategy (see node/curve_cache.hpp). The
  /// surrogate is several times faster and agrees with exact solves to
  /// well under 0.1 % tracking efficiency; kExact reproduces the
  /// pre-surrogate per-step solve trajectory bit for bit.
  PowerModel power_model = PowerModel::kSurrogate;
  /// Voltage-grid points per surrogate P(V) table entry.
  int surrogate_points = 128;

  /// Multiplier applied to the light trace before it reaches the cell
  /// (both spectral channels). Fleet nodes use this for placement-derived
  /// attenuation and photocurrent tolerance over one shared trace, so a
  /// 10,000-node deployment never materialises per-node trace copies.
  /// 1.0 (default) reproduces the unscaled trace bit for bit.
  double lux_scale = 1.0;

  /// Time-advancement strategy (see Stepper). kFixed is the reference.
  Stepper stepper = Stepper::kFixed;
  /// Tuning of the event engine; ignored under kFixed and whenever the
  /// engine ticks every step (see Stepper::kEvent).
  sched::EventOptions events;

  power::BuckBoostConverter converter;
  power::Supercapacitor::Params storage;
  /// When set, a battery replaces the supercapacitor as the store.
  std::optional<power::Battery::Params> battery;
  power::WsnLoad::Params load;
  std::optional<power::ColdStartCircuit::Params> coldstart;  ///< engaged when set
  double temperature_k = 300.15;
  bool record_traces = false;   ///< keep per-step waveforms in the report
  int record_stride = 60;       ///< record every k-th step

  /// Telemetry-only: when focv::obs is enabled and the surrogate power
  /// model is active, additionally run an exact CurveCache alongside it
  /// and record the per-step surrogate-vs-exact power deviation into
  /// the `node.surrogate.deviation_rel` histogram. Never alters the
  /// simulated trajectory; costs extra exact solves, so off by default.
  bool obs_compare_exact = false;
};

/// Results of one simulation run.
struct NodeReport {
  double duration = 0.0;             ///< [s]
  double harvested_energy = 0.0;     ///< PV output energy (after disconnects) [J]
  double delivered_energy = 0.0;     ///< converter output into the store [J]
  double overhead_energy = 0.0;      ///< tracking-circuitry consumption [J]
  double load_energy_served = 0.0;   ///< load demand met from the store [J]
  double ideal_mpp_energy = 0.0;     ///< energy of a perfect tracker [J]
  double coldstart_time = -1.0;      ///< first time the controller ran [s]; -1 = never
  int brownout_steps = 0;            ///< steps where the store could not feed the load
  double brownout_time = 0.0;        ///< time the store could not feed the load [s]
  double final_store_voltage = 0.0;  ///< [V]

  // Observability counters (deterministic for a given config + trace).
  std::uint64_t steps = 0;           ///< simulation steps executed
  std::uint64_t model_evals = 0;     ///< exact cell-model solves issued by the curve cache
  std::uint64_t curve_entries = 0;   ///< unique illuminance buckets solved
  /// Event-engine boundaries processed (segment starts, controller
  /// sample/decay events, storage threshold flips, report points).
  /// 0 under the fixed stepper; deterministic for a config + trace, so
  /// jobs=1 and jobs=N fleet runs must agree (tested).
  std::uint64_t events = 0;

  /// harvested / ideal over lit periods (1.0 = perfect tracking).
  [[nodiscard]] double tracking_efficiency() const {
    return (ideal_mpp_energy > 0.0) ? harvested_energy / ideal_mpp_energy : 0.0;
  }
  /// delivered minus overhead: what actually accumulates [J].
  [[nodiscard]] double net_energy() const { return delivered_energy - overhead_energy; }

  // Optional recorded traces (when NodeConfig::record_traces).
  std::vector<double> time;
  std::vector<double> pv_voltage;
  std::vector<double> pv_power;
  std::vector<double> store_voltage;
};

/// Run the node across a light trace. The step size is the trace's
/// sample spacing. Throws PreconditionError on a missing cell or
/// controller.
///
/// Re-entrancy: this function never mutates shared state — the
/// controller prototype is cloned and reset per run — so concurrent
/// calls with the same config are safe and deterministic.
///
/// `shared_curves` (optional) evaluates PV curves through a caller-owned
/// cache, which must have been built for the same cell model,
/// temperature and power-model options as `config`. In surrogate mode
/// the entry table carries over between runs, so simulating many nodes
/// that share a cell model through one cache — what the fleet chunk
/// stepper does — only pays exact solves for grid nodes no earlier run
/// touched, while every run's trajectory stays bit-identical to a
/// fresh-cache run; in exact mode the cache is re-prepared for this
/// run's series (see CurveCache::prepare). The report's model_evals /
/// curve_entries counters are this run's increments only. nullptr uses
/// an internal per-run cache. NOT re-entrant with respect to
/// `shared_curves`: concurrent runs must not share one cache (the fleet
/// engine shares per worker chunk, which is sequential).
///
/// `prepared` (optional) is a caller-owned PreparedTrace (the event
/// engine's O(trace) preprocessing — see sched/prepared_trace.hpp)
/// built for exactly this trace and cell, shared read-only across any
/// number of concurrent runs; an event run also requires its
/// segmentation to be sched::segmentation_for(config.events). The
/// fleet engine builds one per
/// environment so nodes share the preprocessing. nullptr builds what
/// the run needs: under kFixed only the two lux series, since a
/// segmented PreparedTrace costs more than the series alone.
[[nodiscard]] NodeReport simulate_node(const env::LightTrace& trace, const NodeConfig& config,
                                       CurveCache* shared_curves = nullptr,
                                       const sched::PreparedTrace* prepared = nullptr);

}  // namespace focv::node
