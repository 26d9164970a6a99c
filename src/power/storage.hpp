// Energy storage models: supercapacitor and a simple battery.
#pragma once

#include <cmath>

#include "common/require.hpp"
#include "common/step_laws.hpp"

namespace focv::power {

/// Ideal supercapacitor with voltage limits and self-discharge.
class Supercapacitor {
 public:
  struct Params {
    double capacitance = 0.4;       ///< [F]
    double max_voltage = 5.0;       ///< [V]
    double min_useful_voltage = 1.8;///< below this the load browns out [V]
    double initial_voltage = 0.0;   ///< cold start: empty [V]
    double self_discharge_resistance = 5e6;  ///< [Ohm]
  };

  explicit Supercapacitor(Params params) : params_(params), voltage_(params.initial_voltage) {
    require(params_.capacitance > 0.0, "Supercapacitor: capacitance must be > 0");
    require(params_.max_voltage > params_.min_useful_voltage,
            "Supercapacitor: max_voltage must exceed min_useful_voltage");
  }
  Supercapacitor() : Supercapacitor(Params{}) {}

  /// Apply a net power for dt seconds (positive charges, negative
  /// discharges) by laws::supercap_step, as the fleet's hill-climber
  /// lanes do. Returns the energy actually absorbed/delivered [J]
  /// (clipped at the voltage limits and at empty). Tick mode calls this
  /// once per trace step, so it is inline, and the self-discharge factor
  /// exp(-dt / tau) is memoised on the last dt: traces step at a uniform
  /// dt, and exp() of the same argument returns the same bits.
  double apply_power(double power, double dt) {
    require(dt > 0.0, "Supercapacitor::apply_power: dt must be > 0");
    const bool self_discharge = params_.self_discharge_resistance > 0.0;
    if (self_discharge && dt != decay_dt_) {
      const double tau = params_.self_discharge_resistance * params_.capacitance;
      decay_ = std::exp(-dt / tau);
      decay_dt_ = dt;
    }
    return laws::supercap_step<laws::Scalar>(true, voltage_, power, dt, decay_, self_discharge,
                                             params_.capacitance, max_energy());
  }

  /// Advance by dt under a constant net power using the closed form of
  /// the continuous dynamics dE/dt = P - 2E/tau (tau = R_self * C).
  /// apply_power() composes the same dynamics one decay-then-integrate
  /// step at a time; the two agree to O(dt_step / tau) per step, which
  /// for the default parameters (tau = 2e6 s, 1 s steps) is ~5e-7
  /// relative. The trajectory is monotone toward its asymptote, so
  /// clamping the endpoint at [0, max] is exact. Used by the event-driven
  /// macro-stepper to jump across hold periods in one call. Returns the
  /// energy change [J].
  double advance_constant_power(double power, double dt);

  /// Time until the stored energy first reaches `target_j` under a
  /// constant net power from the current state (voltage clamps ignored).
  /// +infinity when the trajectory never gets there — wrong direction or
  /// asymptote short of the target; 0 when already exactly at it. This is the
  /// closed-form root-solve behind storage threshold events (cold-start,
  /// energy-neutral, depletion crossings).
  [[nodiscard]] double time_to_energy(double power, double target_j) const;

  [[nodiscard]] double voltage() const { return voltage_; }
  [[nodiscard]] double stored_energy() const {
    return 0.5 * params_.capacitance * voltage_ * voltage_;
  }
  /// Energy at max_voltage [J].
  [[nodiscard]] double max_energy() const {
    return 0.5 * params_.capacitance * params_.max_voltage * params_.max_voltage;
  }
  /// Energy at min_useful_voltage — the usable()/brown-out threshold [J].
  [[nodiscard]] double min_useful_energy() const {
    return 0.5 * params_.capacitance * params_.min_useful_voltage * params_.min_useful_voltage;
  }
  [[nodiscard]] bool usable() const { return voltage_ >= params_.min_useful_voltage; }
  [[nodiscard]] bool full() const { return voltage_ >= params_.max_voltage - 1e-9; }
  [[nodiscard]] const Params& params() const { return params_; }

  void set_voltage(double v) {
    require(v >= 0.0 && v <= params_.max_voltage, "Supercapacitor: voltage out of range");
    voltage_ = v;
  }
  /// Hands back a voltage that this store's own dynamics produced, for
  /// a stepper that advanced a copy of it elsewhere. Unlike set_voltage
  /// it takes the value unchecked: apply_power's sqrt may land one
  /// rounding above max_voltage.
  void restore_voltage(double v) { voltage_ = v; }

 private:
  Params params_;
  double voltage_;
  double decay_dt_ = 0.0;  ///< dt the memoised decay_ belongs to (0: none; dt > 0)
  double decay_ = 1.0;     ///< exp(-decay_dt_ / tau)
};

}  // namespace focv::power
