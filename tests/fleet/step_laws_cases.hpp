// Plain-data cases for tests/fleet/step_laws_test.cpp: one node's step
// inputs and its state before and after each shared step law and the
// converter (common/step_laws.hpp). step_laws_lanes.cpp, compiled once
// per lane width with that width's ISA flags, runs them on lanes from
// columns.
#pragma once

#include <cstddef>

#include "common/step_laws.hpp"
#include "mppt/baselines.hpp"
#include "mppt/gradient_descent.hpp"
#include "power/converter.hpp"

namespace focv::laws_test {

/// The group-uniform inputs: law parameters and the store model.
struct LawParams {
  mppt::GradientDescentController::Params graddesc;
  mppt::HillClimbingController::Params pando;
  power::BuckBoostConverter::Params converter;
  double capacitance;
  double max_energy;
  bool self_discharge;
};

/// One lane's step: the inputs, and each law's state, updated in place.
struct LawCase {
  bool on;          ///< the lane runs this step
  double time;      ///< decision time [s]
  double power;     ///< sensed power [W]
  double voltage;   ///< sensed voltage [V]
  double net;       ///< net store power [W]
  double dt;        ///< step length [s]
  double decay;     ///< exp(-dt / tau)
  laws::GradDescState<double, bool> graddesc;
  laws::PandoState<double, bool> pando;
  double store_voltage;
  double conv_in;    ///< converter input power [W]
  double conv_v;     ///< converter input voltage [V]
  double delivered;  ///< converter output [W], written by the step
};

/// The columns run_lanes reads and writes, one double per case (flags
/// as 1.0 or 0.0), in for_each_column's order.
enum Column : int {
  kOn, kTime, kPower, kVoltage, kNet, kDt, kDecay,
  kGdVoltage, kGdLr, kGdPrevPower, kGdPrevVoltage, kGdPrevGradient, kGdNextUpdate, kGdHasPrev,
  kGdHasGradient,
  kPoVoltage, kPoDirection, kPoLastPower, kPoNextUpdate, kPoHasLastPower,
  kStoreVoltage,
  kColumns
};

/// Calls f(column, field) on every field of a case, in Column order.
template <class Case, class F>
__attribute__((always_inline)) inline void for_each_column(Case& c, F&& f) {
  int k = 0;
  const auto g = [&](auto&... v) __attribute__((always_inline)) { (f(k++, v), ...); };
  auto& gd = c.graddesc;
  auto& po = c.pando;
  g(c.on, c.time, c.power, c.voltage, c.net, c.dt, c.decay);
  g(gd.voltage, gd.lr, gd.prev_power, gd.prev_voltage, gd.prev_gradient, gd.next_update,
    gd.has_prev, gd.has_gradient);
  g(po.voltage, po.direction, po.last_power, po.next_update, po.has_last_power);
  g(c.store_voltage);
}

/// The converter's columns, after the laws': run_converter_lanes reads
/// the case's on, conv_in and conv_v and writes delivered.
enum ConverterColumn : int { kConvIn = kColumns, kConvV, kDelivered, kAllColumns };

/// Runs every law on rows [0, n) of the columns (col[k][row]) in groups
/// of W lanes (n a multiple of W); defined by step_laws_lanes.cpp for
/// each width it is built at.
template <int W>
void run_lanes(const LawParams& p, double* const* col, std::size_t n);
/// The converter on the same rows and groups, in a frame of its own.
template <int W>
void run_converter_lanes(const LawParams& p, double* const* col, std::size_t n);

}  // namespace focv::laws_test
