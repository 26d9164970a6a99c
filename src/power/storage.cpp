#include "power/storage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace focv::power {

double Supercapacitor::advance_constant_power(double power, double dt) {
  require(dt > 0.0, "Supercapacitor::advance_constant_power: dt must be > 0");
  const double e_before = stored_energy();
  double e_after;
  if (params_.self_discharge_resistance > 0.0) {
    const double tau = params_.self_discharge_resistance * params_.capacitance;
    const double e_inf = 0.5 * power * tau;
    e_after = e_inf + (e_before - e_inf) * std::exp(-2.0 * dt / tau);
  } else {
    e_after = e_before + power * dt;
  }
  e_after = std::clamp(e_after, 0.0, max_energy());
  voltage_ = std::sqrt(2.0 * e_after / params_.capacitance);
  return e_after - e_before;
}

double Supercapacitor::time_to_energy(double power, double target_j) const {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const double e0 = stored_energy();
  if (params_.self_discharge_resistance <= 0.0) {
    if (power == 0.0) return e0 == target_j ? 0.0 : kNever;
    const double t = (target_j - e0) / power;
    return t >= 0.0 ? t : kNever;
  }
  const double tau = params_.self_discharge_resistance * params_.capacitance;
  const double e_inf = 0.5 * power * tau;
  // E(t) = e_inf + (e0 - e_inf) exp(-2t/tau): the target is reached iff
  // it lies between e0 (inclusive: "already there" is t = 0, so a store
  // sitting exactly on a threshold still reports the crossing) and the
  // asymptote (exclusive).
  const double denom = e0 - e_inf;
  if (denom == 0.0) return e0 == target_j ? 0.0 : kNever;
  const double r = (target_j - e_inf) / denom;
  if (!(r > 0.0) || r > 1.0) return kNever;
  return -0.5 * tau * std::log(r);
}

}  // namespace focv::power
