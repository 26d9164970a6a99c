// The per-step decisions that both the scalar tick and the fleet's
// lanes make, written once as templates over a lane type: the
// hill-climber updates, the supercapacitor step, the buck-boost
// converter and the surrogate P(V) row read here, the certified curve
// key in node/curve_cache.hpp, the SoA interval body in
// fleet/soa_internal.hpp.
//
// A lane type L names a value type L::D, a choice type L::B, an index
// type L::I and the few operations the templates use. `Scalar` below is
// double/bool/long: its choices are ifs, so a controller's step() still
// branches (a branchless single-node annealing update measured slower).
// The lanes' type (lanes::Lanes in fleet/lane_math.hpp) is
// simd::DVec/MVec/IVec: a choice runs both sides, each on its own mask,
// and every write is a select on the mask it runs under, so a lane that
// does not take a side keeps its bits. Each lane of a lane op is the
// scalar IEEE op (simd.hpp), so one source gives every node the same
// bits either way.
//
// The functions are always_inline with internal linkage: the per-ISA
// lane objects include this header without leaving a weak out-of-line
// copy behind. The state structs are plain aggregates, with no code to
// emit.
#pragma once

#include <algorithm>
#include <cmath>

namespace focv::laws {

/// GradientDescentController's decision state: the commanded voltage,
/// the annealed learning rate, the point sensed at the last decision,
/// the last climb's gradient, the next decision's time, and whether a
/// point and a gradient have been seen.
template <class D, class B>
struct GradDescState {
  D voltage, lr, prev_power, prev_voltage, prev_gradient, next_update;
  B has_prev, has_gradient;
};

/// HillClimbingController's (P&O) decision state: the commanded
/// voltage, the next perturbation's sign (+1 or -1), the power sensed at
/// the last decision, the next decision's time, and whether a power has
/// been seen.
template <class D, class B>
struct PandoState {
  D voltage, direction, last_power, next_update;
  B has_last_power;
};

namespace {

#define FOCV_LAW_INLINE __attribute__((always_inline)) inline
// The choices' lambdas inline too: an out-of-line one would take the
// lane state by reference, and a referenced 64-byte vector local moves
// to ASan's fake stack, which aligns frames to 32 bytes only.
#define FOCV_LAW_LAMBDA __attribute__((always_inline))

/// The scalar lane type. `on` is the mask a lane type threads through
/// nested choices; a scalar caller passes true (yes()).
struct Scalar {
  using D = double;
  using B = bool;
  using I = long;
  static constexpr int kWidth = 1;
  FOCV_LAW_INLINE static D splat(double x) { return x; }
  FOCV_LAW_INLINE static I splat_i(int x) { return x; }
  FOCV_LAW_INLINE static B yes() { return true; }
  FOCV_LAW_INLINE static D pick(B c, D a, D b) { return c ? a : b; }
  FOCV_LAW_INLINE static D clamp(D x, D lo, D hi) { return std::clamp(x, lo, hi); }
  FOCV_LAW_INLINE static D max(D a, D b) { return std::max(a, b); }
  FOCV_LAW_INLINE static D abs(D x) { return std::fabs(x); }
  FOCV_LAW_INLINE static D sqrt(D x) { return std::sqrt(x); }
  FOCV_LAW_INLINE static D floor(D x) { return std::floor(x); }
  /// x rounded to the nearest float, widened back.
  FOCV_LAW_INLINE static D round_float(D x) { return static_cast<float>(x); }
  FOCV_LAW_INLINE static I to_index(D x) { return static_cast<I>(x); }
  FOCV_LAW_INLINE static D to_double(I x) { return static_cast<D>(x); }
  /// base[k], and field `f` of rows[k].
  FOCV_LAW_INLINE static D gather(const double* base, I k) { return base[k]; }
  template <class Row>
  FOCV_LAW_INLINE static D gather(const Row* rows, I k, double Row::*f) {
    return rows[k].*f;
  }
  /// Whether every lane holds the same index, and lane 0's.
  FOCV_LAW_INLINE static bool uniform(I) { return true; }
  FOCV_LAW_INLINE static I first(I k) { return k; }
  FOCV_LAW_INLINE static bool all(B c) { return c; }
  FOCV_LAW_INLINE static bool any(B c) { return c; }
  FOCV_LAW_INLINE static D lane(D x, int) { return x; }
  FOCV_LAW_INLINE static B lane(B c, int) { return c; }
  template <class Then>
  FOCV_LAW_INLINE static void when(B on, B c, Then&& then) {
    if (on && c) then(true);
  }
  /// when(), for work the lanes skip only when no lane needs it.
  template <class Then>
  FOCV_LAW_INLINE static void when_some(B on, B c, Then&& then) {
    if (on && c) then(true);
  }
  template <class Then, class Otherwise>
  FOCV_LAW_INLINE static void branch(B on, B c, Then&& then, Otherwise&& otherwise) {
    if (on) c ? then(true) : otherwise(true);
  }
  template <class T>
  FOCV_LAW_INLINE static void set(B on, T& dst, T v) {
    if (on) dst = v;
  }
};

/// GradientDescentController::step on the lanes in `on`: climb the P(V)
/// gradient sensed at `time`, annealing the learning rate on each sign
/// reversal. `p` is the controller's Params.
template <class L, class P>
FOCV_LAW_INLINE void graddesc_step(typename L::B on, GradDescState<typename L::D, typename L::B>& s,
                                   const P& p, typename L::D time, typename L::D power,
                                   typename L::D voltage) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  const D vmax = L::splat(p.max_voltage);
  const D probe = L::splat(p.probe_step);
  L::when(on, time >= s.next_update, [&](B due) FOCV_LAW_LAMBDA {
    L::set(due, s.next_update, time + L::splat(p.update_period));
    L::branch(
        due, s.has_prev,
        [&](B seen) FOCV_LAW_LAMBDA {
          const D dv = voltage - s.prev_voltage;
          L::branch(
              seen, L::abs(dv) < L::splat(1e-9),
              [&](B stall) FOCV_LAW_LAMBDA {
                // Command saturated or unchanged: probe toward the rail
                // with room left, so the next decision sees a real delta.
                const D direction = L::pick(s.voltage > L::splat(0.5 * p.max_voltage),
                                            L::splat(-1.0), L::splat(1.0));
                L::set(stall, s.voltage, L::clamp(s.voltage + direction * probe, zero, vmax));
              },
              [&](B climb) FOCV_LAW_LAMBDA {
                const D gradient = (power - s.prev_power) / dv;
                L::when(climb, s.has_gradient, [&](B had) FOCV_LAW_LAMBDA {
                  // Overshot the MPP: anneal the learning rate (big
                  // strides far out, fine steps at the summit).
                  L::when(had, gradient * s.prev_gradient < zero, [&](B overshot) FOCV_LAW_LAMBDA {
                    L::set(overshot, s.lr, L::max(L::splat(p.lr_min), s.lr * L::splat(p.decay)));
                  });
                });
                const D bounded =
                    L::clamp(s.lr * gradient, L::splat(-p.max_step), L::splat(p.max_step));
                L::set(climb, s.voltage, L::clamp(s.voltage + bounded, zero, vmax));
                L::set(climb, s.prev_gradient, gradient);
                L::set(climb, s.has_gradient, climb);
              });
        },
        [&](B first) FOCV_LAW_LAMBDA {
          // Bootstrap: perturb once so the first gradient is defined.
          L::set(first, s.voltage, L::clamp(s.voltage + probe, zero, vmax));
        });
    L::set(due, s.prev_power, power);
    L::set(due, s.prev_voltage, voltage);
    L::set(due, s.has_prev, due);
  });
}

/// HillClimbingController::step (perturb & observe) on the lanes in
/// `on`: keep stepping while the power sensed at `time` rises, reverse
/// when it falls. `p` is the controller's Params.
template <class L, class P>
FOCV_LAW_INLINE void pando_step(typename L::B on, PandoState<typename L::D, typename L::B>& s,
                                const P& p, typename L::D time, typename L::D power) {
  using B = typename L::B;
  L::when(on, time >= s.next_update, [&](B due) FOCV_LAW_LAMBDA {
    L::set(due, s.next_update, time + L::splat(p.update_period));
    L::when(due, s.has_last_power, [&](B climb) FOCV_LAW_LAMBDA {
      L::when(climb, power < s.last_power, [&](B fell) FOCV_LAW_LAMBDA {
        L::set(fell, s.direction, L::splat(-1.0) * s.direction);
      });
      L::set(climb, s.voltage,
             L::clamp(s.voltage + s.direction * L::splat(p.voltage_step), L::splat(0.0),
                      L::splat(p.max_voltage)));
    });
    L::set(due, s.last_power, power);
    L::set(due, s.has_last_power, due);
  });
}

/// Supercapacitor::apply_power's step on the lanes in `on`: self
/// discharge by `decay` = exp(-dt / tau) if `self_discharge`, integrate
/// the net power in the energy domain, clamp to [0, max_energy] and take
/// the voltage back. Returns the energy change.
template <class L>
FOCV_LAW_INLINE typename L::D supercap_step(typename L::B on, typename L::D& voltage,
                                            typename L::D power, typename L::D dt,
                                            typename L::D decay, bool self_discharge,
                                            double capacitance, double max_energy) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  D v = voltage;
  if (self_discharge) L::when(on, v > zero, [&](B m) FOCV_LAW_LAMBDA { L::set(m, v, v * decay); });
  const D e_before = (L::splat(0.5 * capacitance) * v) * v;
  const D e_after = L::clamp(e_before + power * dt, zero, L::splat(max_energy));
  L::set(on, voltage, L::sqrt((L::splat(2.0) * e_after) / L::splat(capacitance)));
  return e_after - e_before;
}

/// BuckBoostConverter::output_power on the lanes in `on`, zero on the
/// rest: the power delivered to the store for input power `in` at
/// input voltage `v`. `p` is the converter's Params.
template <class L, class P>
FOCV_LAW_INLINE typename L::D buck_boost_output(typename L::B on, const P& p, typename L::D in,
                                                typename L::D v) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  D out = zero;
  L::when(on, in > zero, [&](B drawn) FOCV_LAW_LAMBDA {
    const B in_range =
        !((v < L::splat(p.min_input_voltage)) | (v > L::splat(p.max_input_voltage)));
    L::when(drawn, in_range, [&](B ok) FOCV_LAW_LAMBDA {
      // Efficiency rolls off at very light load (switching losses
      // dominate) through a soft knee, then the fixed control loss
      // comes off the top.
      const D knee = in / (in + L::splat(p.input_power_knee));
      const D converted = (in * L::splat(p.efficiency_peak)) * knee;
      const D fixed = L::splat(p.fixed_loss);
      L::set(ok, out, L::pick(converted > fixed, converted - fixed, zero));
    });
  });
  return out;
}

/// Linear read of a surrogate P(V) row (node::CurveCache): `power` +
/// `row` is each lane's row of samples, evenly spaced in voltage on
/// [0, Voc], `pos` = (v / Voc) * (samples - 1) in [0, samples - 1) the
/// lane's position along it and `last` = samples - 2 the last row
/// index. The row index is min(int(pos), last); pos >= 0, so truncating
/// min(pos, last) gives it. Each caller forms `pos` its own way (the
/// cache and the hill lanes divide by Voc, the SoA sweep multiplies by
/// 1/Voc) and hoists `last`.
template <class L>
FOCV_LAW_INLINE typename L::D pv_row_read(const double* power, typename L::I row,
                                          typename L::D pos, typename L::D last) {
  using D = typename L::D;
  const typename L::I m = L::to_index(L::pick(last < pos, last, pos));
  const typename L::I at = row + m;
  const D p0 = L::gather(power, at);
  const D p1 = L::gather(power + 1, at);
  const D t = pos - L::to_double(m);
  return p0 + t * (p1 - p0);
}

#undef FOCV_LAW_INLINE
#undef FOCV_LAW_LAMBDA

}  // namespace
}  // namespace focv::laws
