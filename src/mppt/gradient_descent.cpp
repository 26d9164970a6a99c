#include "mppt/gradient_descent.hpp"

#include "common/require.hpp"

namespace focv::mppt {

GradientDescentController::GradientDescentController(Params params) : params_(params) {
  require(params_.learning_rate > 0.0,
          "GradientDescentController: learning_rate must be > 0");
  require(params_.decay > 0.0 && params_.decay <= 1.0,
          "GradientDescentController: decay must be in (0, 1]");
  require(params_.lr_min >= 0.0 && params_.lr_min <= params_.learning_rate,
          "GradientDescentController: need 0 <= lr_min <= learning_rate");
  require(params_.update_period > 0.0,
          "GradientDescentController: update_period must be > 0");
  require(params_.max_step > 0.0 && params_.probe_step > 0.0,
          "GradientDescentController: step bounds must be > 0");
  reset();
}

ControlOutput GradientDescentController::step(const SensedInputs& inputs) {
  laws::graddesc_step<laws::Scalar>(true, state_, params_, inputs.time, inputs.prev_power,
                                    inputs.prev_voltage);
  return {state_.voltage, 0.0};
}

void GradientDescentController::reset() {
  state_ = State{};
  state_.voltage = params_.start_voltage;
  state_.lr = params_.learning_rate;
}

}  // namespace focv::mppt
