// Common interface of all MPPT controllers (the paper's technique and
// the state-of-the-art baselines it compares against).
#pragma once

#include <limits>
#include <memory>
#include <string>

namespace focv::mppt {

/// Everything a controller may sense in one simulation step. Which
/// fields a controller reads defines what hardware it needs (pilot cell,
/// photodiode, microcontroller ADC, ...) — see each controller's note.
struct SensedInputs {
  double time = 0.0;              ///< [s]
  double dt = 1.0;                ///< step length [s]
  double voc = 0.0;               ///< main-cell Voc, valid only while sampling [V]
  double pilot_voc = 0.0;         ///< pilot-cell Voc (continuously available) [V]
  double illuminance_estimate = 0.0;  ///< photodetector reading [lux]
  double prev_power = 0.0;        ///< power harvested during the previous step [W]
  double prev_voltage = 0.0;      ///< PV voltage commanded in the previous step [V]
  double store_voltage = 0.0;     ///< energy-store voltage [V]
};

/// One step's command.
struct ControlOutput {
  double pv_voltage = 0.0;          ///< commanded PV operating voltage [V]
  double disconnect_fraction = 0.0; ///< fraction of dt the PV is disconnected (sampling)
};

/// How a controller's command evolves between simulation steps — the
/// contract the event-driven macro-stepper (focv::sched) relies on to
/// skip dead time. Conservative by default: a law the engine cannot
/// classify is stepped tick by tick wherever it runs.
enum class MacroLaw {
  /// Mutable state updated every step (P&O, incremental conductance):
  /// the engine makes the fixed path's step() calls with the fixed
  /// path's inputs, and advances spans under minimum_operating_lux()
  /// (where neither path calls step()) as store intervals, whether a
  /// span fills a trace segment or is one floor run inside it. Those
  /// reproduce store_voltage to rounding only, which is all a law that
  /// reads it can differ by.
  kPerStepOnly,
  /// step() is a pure function of the sensed inputs (fixed voltage,
  /// pilot cell, photodetector): the engine may evaluate it at arbitrary
  /// quadrature points.
  kMemoryless,
  /// Sample-and-hold: the command is piecewise-deterministic between
  /// sample events, exposed via next_command_event()/command_at().
  kSampleHold,
  /// The command follows the energy-store voltage (direct connection):
  /// the engine bounds the store drift per macro interval instead.
  kTracksStore,
};

/// Abstract MPPT controller.
///
/// Lifecycle contract (relied on by the sweep runtime in focv::runtime):
///  - `reset()` restores the power-on state: after it, the controller
///    behaves as if freshly constructed with the same parameters.
///  - `clone()` returns a deep, independent copy carrying both the
///    parameters AND the current mutable tracking state. Stepping a
///    clone never affects the original (and vice versa), so one
///    controller instance can serve as an immutable *prototype* that is
///    cloned once per simulation run and stepped concurrently from many
///    threads. A `clone()` followed by `reset()` is therefore the
///    canonical way to stamp out a fresh controller for an isolated run.
class MpptController {
 public:
  virtual ~MpptController() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy (parameters + mutable state). See the class contract.
  [[nodiscard]] virtual std::unique_ptr<MpptController> clone() const = 0;

  /// Advance one step and command the operating point.
  [[nodiscard]] virtual ControlOutput step(const SensedInputs& inputs) = 0;

  /// Average electrical overhead of the tracking circuitry [W]. Drawn
  /// from the harvested energy by the node simulator.
  [[nodiscard]] virtual double overhead_power() const = 0;

  /// Lowest illuminance at which the controller's circuitry can operate
  /// (cold-start and sustain itself) [lux]. The node simulator freezes
  /// the controller below this level.
  [[nodiscard]] virtual double minimum_operating_lux() const { return 0.0; }

  /// Classification used by the event-driven macro-stepper. See MacroLaw.
  [[nodiscard]] virtual MacroLaw macro_law() const { return MacroLaw::kPerStepOnly; }

  /// kSampleHold only: earliest time >= t at which the commanded voltage
  /// changes discontinuously or leaves its closed-form law (next sample
  /// edge, hold-decay threshold crossing). Infinity when no event is
  /// pending. The engine snaps the returned time to the enclosing trace
  /// step and replays that step through step() so the mutable state stays
  /// exact.
  [[nodiscard]] virtual double next_command_event(double t) const {
    (void)t;
    return std::numeric_limits<double>::infinity();
  }

  /// kSampleHold only: commanded PV voltage at time t, assuming no
  /// command event occurs in between. Pure (no state mutation).
  [[nodiscard]] virtual double command_at(double t) const {
    (void)t;
    return 0.0;
  }

  /// Restore the power-on state.
  virtual void reset() = 0;
};

}  // namespace focv::mppt
