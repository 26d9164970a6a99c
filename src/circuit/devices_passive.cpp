#include "circuit/devices_passive.hpp"

#include <cstdarg>
#include <cstdio>

#include "common/require.hpp"

namespace focv::circuit {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance_ohm)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance_ohm) {
  require(resistance_ohm > 0.0, "Resistor: resistance must be > 0");
}

void Resistor::set_resistance(double resistance_ohm) {
  require(resistance_ohm > 0.0, "Resistor: resistance must be > 0");
  resistance_ = resistance_ohm;
}

void Resistor::stamp(StampContext& ctx) { ctx.add_conductance(a_, b_, 1.0 / resistance_); }

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance_farad,
                     double initial_voltage)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance_farad),
      v_state_(initial_voltage) {
  require(capacitance_farad > 0.0, "Capacitor: capacitance must be > 0");
}

void Capacitor::set_initial_voltage(double v) {
  v_state_ = v;
  i_state_ = 0.0;
}

void Capacitor::begin_step(double /*time*/, double dt) { dt_ = dt; }

void Capacitor::set_dc_state(const Solution& solution) {
  v_state_ = solution.v(a_) - solution.v(b_);
  i_state_ = 0.0;
}

void Capacitor::stamp(StampContext& ctx) {
  if (ctx.dt <= 0.0) {
    // DC: a capacitor is an open circuit; the solver's global gmin keeps
    // otherwise-floating nodes well-posed.
    return;
  }
  if (ctx.integrator == Integrator::kTrapezoidal) {
    geq_ = 2.0 * capacitance_ / ctx.dt;
    ieq_ = geq_ * v_state_ + i_state_;
  } else {
    geq_ = capacitance_ / ctx.dt;
    ieq_ = geq_ * v_state_;
  }
  ctx.add_conductance(a_, b_, geq_);
  // Companion current source ieq injecting a -> b history current.
  ctx.add_current_into(a_, ieq_);
  ctx.add_current_into(b_, -ieq_);
}

void Capacitor::stamp_ac(const Solution& /*op*/, StampContext& /*g*/, StampContext& jw) {
  jw.add_conductance(a_, b_, capacitance_);
}

void Capacitor::accept_step(const Solution& solution) {
  if (dt_ <= 0.0) return;  // DC pseudo-step: keep the stored IC
  const double v_new = solution.v(a_) - solution.v(b_);
  i_state_ = geq_ * v_new - ieq_;  // device current a -> b under the stamped model
  v_state_ = v_new;
}

Inductor::Inductor(std::string name, NodeId a, NodeId b, double inductance_henry,
                   double initial_current)
    : Device(std::move(name)), a_(a), b_(b), inductance_(inductance_henry),
      i_state_(initial_current) {
  require(inductance_henry > 0.0, "Inductor: inductance must be > 0");
}

void Inductor::begin_step(double /*time*/, double dt) { dt_ = dt; }

void Inductor::set_dc_state(const Solution& solution) {
  i_state_ = solution.branch(branch_);
  v_state_ = 0.0;
}

void Inductor::stamp(StampContext& ctx) {
  const int br = ctx.branch_row(branch_);
  // KCL: branch current i flows a -> b.
  ctx.add_matrix(StampContext::row(a_), br, 1.0);
  ctx.add_matrix(StampContext::row(b_), br, -1.0);
  if (ctx.dt <= 0.0) {
    // DC: inductor is a short: va - vb = 0.
    ctx.add_matrix(br, StampContext::row(a_), 1.0);
    ctx.add_matrix(br, StampContext::row(b_), -1.0);
    return;
  }
  double req = 0.0, veq = 0.0;
  if (ctx.integrator == Integrator::kTrapezoidal) {
    req = 2.0 * inductance_ / ctx.dt;
    veq = -req * i_state_ - v_state_;
  } else {
    req = inductance_ / ctx.dt;
    veq = -req * i_state_;
  }
  // Branch equation: va - vb - req * i = veq.
  ctx.add_matrix(br, StampContext::row(a_), 1.0);
  ctx.add_matrix(br, StampContext::row(b_), -1.0);
  ctx.add_matrix(br, br, -req);
  ctx.add_rhs(br, veq);
}

void Inductor::stamp_ac(const Solution& /*op*/, StampContext& g, StampContext& jw) {
  stamp(g);  // dt = 0: KCL incidence and va - vb, the frequency-independent part
  const int br = jw.branch_row(branch_);
  jw.add_matrix(br, br, -inductance_);
}

void Inductor::accept_step(const Solution& solution) {
  if (dt_ <= 0.0) {
    i_state_ = solution.branch(branch_);
    v_state_ = 0.0;
    return;
  }
  i_state_ = solution.branch(branch_);
  v_state_ = solution.v(a_) - solution.v(b_);
}

}  // namespace focv::circuit

namespace focv::circuit {
namespace {
std::string format_card(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}
}  // namespace

std::string Resistor::netlist_card(const std::function<std::string(NodeId)>& names) const {
  return format_card("%s %s %s %.9g", name().c_str(), names(a_).c_str(), names(b_).c_str(),
                     resistance_);
}

std::string Capacitor::netlist_card(const std::function<std::string(NodeId)>& names) const {
  if (v_state_ != 0.0) {
    return format_card("%s %s %s %.9g IC=%.9g", name().c_str(), names(a_).c_str(),
                       names(b_).c_str(), capacitance_, v_state_);
  }
  return format_card("%s %s %s %.9g", name().c_str(), names(a_).c_str(), names(b_).c_str(),
                     capacitance_);
}

std::string Inductor::netlist_card(const std::function<std::string(NodeId)>& names) const {
  if (i_state_ != 0.0) {
    return format_card("%s %s %s %.9g IC=%.9g", name().c_str(), names(a_).c_str(),
                       names(b_).c_str(), inductance_, i_state_);
  }
  return format_card("%s %s %s %.9g", name().c_str(), names(a_).c_str(), names(b_).c_str(),
                     inductance_);
}

}  // namespace focv::circuit
