#include "mppt/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace focv::mppt {

// -------------------------------------------------------- HillClimbing

HillClimbingController::HillClimbingController(Params params) : params_(params) {
  require(params_.voltage_step > 0.0, "HillClimbingController: voltage_step must be > 0");
  require(params_.update_period > 0.0, "HillClimbingController: update_period must be > 0");
  reset();
}

ControlOutput HillClimbingController::step(const SensedInputs& inputs) {
  laws::pando_step<laws::Scalar>(true, state_, params_, inputs.time, inputs.prev_power);
  return {state_.voltage, 0.0};
}

void HillClimbingController::reset() {
  state_ = State{};
  state_.voltage = params_.start_voltage;
  state_.direction = 1.0;
}

// ----------------------------------------------- IncrementalConductance

IncrementalConductanceController::IncrementalConductanceController(Params params)
    : params_(params), voltage_(params.start_voltage) {
  require(params_.voltage_step > 0.0,
          "IncrementalConductanceController: voltage_step must be > 0");
}

ControlOutput IncrementalConductanceController::step(const SensedInputs& inputs) {
  if (inputs.time >= next_update_) {
    next_update_ = inputs.time + params_.update_period;
    const double v = inputs.prev_voltage;
    const double i = (v > 1e-9) ? inputs.prev_power / v : 0.0;
    if (has_prev_ && v > 1e-9) {
      const double dv = v - prev_v_;
      const double di = i - prev_i_;
      double move = 0.0;
      if (std::abs(dv) < 1e-9) {
        // Voltage unchanged: move along the sign of the current change.
        if (std::abs(di) > params_.tolerance) move = (di > 0.0) ? 1.0 : -1.0;
      } else {
        const double inc = di / dv;        // incremental conductance
        const double neg = -i / v;         // negative instantaneous conductance
        if (std::abs(inc - neg) > params_.tolerance) move = (inc > neg) ? 1.0 : -1.0;
      }
      voltage_ = std::clamp(voltage_ + move * params_.voltage_step, 0.0, params_.max_voltage);
    }
    prev_v_ = v;
    prev_i_ = i;
    has_prev_ = true;
  }
  return {voltage_, 0.0};
}

void IncrementalConductanceController::reset() {
  voltage_ = params_.start_voltage;
  prev_v_ = prev_i_ = 0.0;
  has_prev_ = false;
  next_update_ = 0.0;
}

// ------------------------------------------------------- PilotCellFocv

PilotCellFocvController::PilotCellFocvController(Params params) : params_(params) {
  require(params_.k > 0.0 && params_.k < 1.0, "PilotCellFocvController: k must be in (0,1)");
  require(params_.pilot_scale > 0.0, "PilotCellFocvController: pilot_scale must be > 0");
}

ControlOutput PilotCellFocvController::step(const SensedInputs& inputs) {
  const double estimated_voc = inputs.pilot_voc * params_.pilot_scale * params_.mismatch;
  return {params_.k * estimated_voc, 0.0};
}

// ------------------------------------------------------- Photodetector

PhotodetectorController::PhotodetectorController(Params params) : params_(params) {}

PhotodetectorController::Params PhotodetectorController::calibrate(double lux1, double vmpp1,
                                                                   double lux2, double vmpp2,
                                                                   Params base) {
  require(lux1 > 0.0 && lux2 > 0.0 && lux1 != lux2, "PhotodetectorController: bad cal points");
  base.b = (vmpp2 - vmpp1) / (std::log(lux2) - std::log(lux1));
  base.a = vmpp1 - base.b * std::log(lux1);
  return base;
}

ControlOutput PhotodetectorController::step(const SensedInputs& inputs) {
  const double lux = std::max(1.0, inputs.illuminance_estimate * params_.sensor_gain_error);
  const double v = params_.a + params_.b * std::log(lux);
  return {std::max(0.0, v), 0.0};
}

// ---------------------------------------------- PeriodicDisconnectFocv

PeriodicDisconnectFocvController::PeriodicDisconnectFocvController(Params params)
    : params_(params) {
  require(params_.period > 0.0 && params_.sample_duration > 0.0 &&
              params_.sample_duration < params_.period,
          "PeriodicDisconnectFocvController: bad timing");
}

ControlOutput PeriodicDisconnectFocvController::step(const SensedInputs& inputs) {
  // Samples are far denser than any realistic simulation step, so the
  // held Voc is effectively the instantaneous Voc and the disconnect
  // duty is the full sample_duration/period ratio.
  held_voc_ = inputs.voc;
  return {params_.k * held_voc_, params_.sample_duration / params_.period};
}

// -------------------------------------------------------- FixedVoltage

FixedVoltageController::FixedVoltageController(Params params) : params_(params) {
  require(params_.voltage > 0.0, "FixedVoltageController: voltage must be > 0");
}

ControlOutput FixedVoltageController::step(const SensedInputs& /*inputs*/) {
  return {params_.voltage, 0.0};
}

// ---------------------------------------------------- DirectConnection

DirectConnectionController::DirectConnectionController(Params params) : params_(params) {
  require(params_.diode_drop >= 0.0, "DirectConnectionController: diode_drop must be >= 0");
}

ControlOutput DirectConnectionController::step(const SensedInputs& inputs) {
  return {std::max(0.0, inputs.store_voltage + params_.diode_drop), 0.0};
}

}  // namespace focv::mppt
