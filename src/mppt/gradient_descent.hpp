// Adaptive gradient-descent MPPT (after arXiv 2511.20895): a
// computationally light digital tracker that climbs the measured P(V)
// gradient with a learning rate that anneals on gradient sign
// reversals, converging to small oscillations around the MPP without
// the fixed-step dithering loss of plain P&O.
#pragma once

#include <algorithm>
#include <cmath>

#include "mppt/controller.hpp"

namespace focv::mppt {

/// Gradient-descent hill climber with adaptive learning rate.
///
/// Update law, once per `update_period`:
///   g_k = (P_k - P_{k-1}) / (V_k - V_{k-1})          [W/V]
///   if sign(g_k) != sign(g_{k-1}): lr <- max(lr_min, lr * decay)
///   V <- clamp(V + clamp(lr * g_k, +/- max_step), 0, max_voltage)
///
/// Senses: own terminal power/voltage (microcontroller + ADC, like P&O,
/// but the proportional-to-gradient step takes large strides far from
/// the MPP and shrinks near it — the complexity/performance trade the
/// source paper benchmarks). A zero voltage delta falls back to a small
/// probe perturbation so the gradient estimate stays defined.
///
/// `final`, with step() inline below: simulate_node's lean tick loop
/// calls it through the concrete type, so the compiler inlines it into
/// the per-step chain instead of spilling every live double around a
/// virtual call.
class GradientDescentController final : public MpptController {
 public:
  struct Params {
    double learning_rate = 0.05;  ///< initial step gain [V^2/W]
    double decay = 0.9;           ///< lr multiplier on gradient sign reversal
    double lr_min = 1e-3;         ///< learning-rate floor [V^2/W]
    double update_period = 1.0;   ///< decision cadence [s]
    double start_voltage = 2.0;   ///< initial operating point [V]
    double max_voltage = 8.0;     ///< slew limit [V]
    double max_step = 0.2;        ///< per-decision voltage bound [V]
    double probe_step = 0.02;     ///< bootstrap / stalled-gradient perturbation [V]
    double overhead = 120e-6;     ///< low-duty MCU + ADC [W]
    double min_lux = 400.0;       ///< supply floor of the digital circuitry
  };

  explicit GradientDescentController(Params params);
  GradientDescentController() : GradientDescentController(Params{}) {}

  [[nodiscard]] std::string name() const override {
    return "adaptive gradient descent";
  }
  [[nodiscard]] std::unique_ptr<MpptController> clone() const override {
    return std::make_unique<GradientDescentController>(*this);
  }
  [[nodiscard]] ControlOutput step(const SensedInputs& inputs) override;
  [[nodiscard]] double overhead_power() const override { return params_.overhead; }
  [[nodiscard]] double minimum_operating_lux() const override { return params_.min_lux; }
  void reset() override;

  [[nodiscard]] const Params& params() const { return params_; }
  /// Current (annealed) learning rate [V^2/W] — telemetry/tests.
  [[nodiscard]] double learning_rate() const { return lr_; }

  /// Everything step() carries from one decision to the next: the
  /// fleet's hill-climber lanes (fleet/hill_lanes.cpp) start a node's
  /// lane from it and replay step() on it.
  struct State {
    double voltage = 0.0;
    double lr = 0.0;
    double prev_power = 0.0;
    double prev_voltage = 0.0;
    double prev_gradient = 0.0;
    double next_update = 0.0;
    bool has_prev = false;
    bool has_gradient = false;
  };
  [[nodiscard]] State state() const {
    return {voltage_, lr_,         prev_power_, prev_voltage_, prev_gradient_,
            next_update_, has_prev_, has_gradient_};
  }

 private:
  Params params_;
  double voltage_;
  double lr_;
  double prev_power_ = 0.0;
  double prev_voltage_ = 0.0;
  double prev_gradient_ = 0.0;
  bool has_prev_ = false;
  bool has_gradient_ = false;
  double next_update_ = 0.0;
};

inline ControlOutput GradientDescentController::step(const SensedInputs& inputs) {
  if (inputs.time >= next_update_) {
    next_update_ = inputs.time + params_.update_period;
    const double power = inputs.prev_power;
    const double voltage = inputs.prev_voltage;
    if (!has_prev_) {
      // Bootstrap: perturb once so the first gradient is defined.
      voltage_ = std::clamp(voltage_ + params_.probe_step, 0.0, params_.max_voltage);
    } else {
      const double dv = voltage - prev_voltage_;
      if (std::fabs(dv) < 1e-9) {
        // Command saturated or unchanged: probe toward the rail with
        // room left, so the next decision sees a real voltage delta.
        const double direction = voltage_ > 0.5 * params_.max_voltage ? -1.0 : 1.0;
        voltage_ =
            std::clamp(voltage_ + direction * params_.probe_step, 0.0, params_.max_voltage);
      } else {
        const double gradient = (power - prev_power_) / dv;
        if (has_gradient_ && gradient * prev_gradient_ < 0.0) {
          // Overshot the MPP: anneal the learning rate (the adaptive
          // part — big strides far out, fine steps at the summit).
          lr_ = std::max(params_.lr_min, lr_ * params_.decay);
        }
        const double raw = lr_ * gradient;
        const double bounded = std::clamp(raw, -params_.max_step, params_.max_step);
        voltage_ = std::clamp(voltage_ + bounded, 0.0, params_.max_voltage);
        prev_gradient_ = gradient;
        has_gradient_ = true;
      }
    }
    prev_power_ = power;
    prev_voltage_ = voltage;
    has_prev_ = true;
  }
  return {voltage_, 0.0};
}

}  // namespace focv::mppt
