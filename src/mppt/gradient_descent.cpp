#include "mppt/gradient_descent.hpp"

#include "common/require.hpp"

namespace focv::mppt {

GradientDescentController::GradientDescentController(Params params)
    : params_(params), voltage_(params.start_voltage), lr_(params.learning_rate) {
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
}

void GradientDescentController::reset() {
  voltage_ = params_.start_voltage;
  lr_ = params_.learning_rate;
  prev_power_ = 0.0;
  prev_voltage_ = 0.0;
  prev_gradient_ = 0.0;
  has_prev_ = false;
  has_gradient_ = false;
  next_update_ = 0.0;
}

}  // namespace focv::mppt
