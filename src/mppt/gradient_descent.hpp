// Adaptive gradient-descent MPPT (after arXiv 2511.20895): a
// computationally light digital tracker that climbs the measured P(V)
// gradient with a learning rate that anneals on gradient sign
// reversals, converging to small oscillations around the MPP without
// the fixed-step dithering loss of plain P&O.
#pragma once

#include "common/step_laws.hpp"
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
/// probe perturbation so the gradient estimate stays defined. The
/// update itself is laws::graddesc_step (common/step_laws.hpp), which
/// the fleet's hill-climber lanes run too.
class GradientDescentController : public MpptController {
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
  /// Everything step() carries from one decision to the next: the
  /// fleet's hill-climber lanes (fleet/hill_lanes.cpp) start a node's
  /// lane from it and run the same update on it.
  using State = laws::GradDescState<double, bool>;
  [[nodiscard]] const State& state() const { return state_; }

 private:
  Params params_;
  State state_{};
};

}  // namespace focv::mppt
