// Node-major scalar sweep kernels: one transient NodeState per node
// walks the whole shared schedule (the PR 7 hot loop, now one kernel
// among two). This is the reference the lane kernels are byte-compared
// against, and the only kernel that can run kPrototype axes (virtual
// step() on a cloned controller per quadrature point).
//
// Compiled with -ffp-contract=off: the kernel byte-identity contract
// (soa_lanes.cpp) requires both kernels to evaluate the shared
// expression trees without FMA contraction on every target.

#include <utility>

#include "fleet/soa_internal.hpp"

namespace focv::fleet::soa::internal {

void advance_slow(const EnvContext& cx, const sched::BatchInterval& iv, double load_w,
                  double delivered, double oh_drain, double dec_full, SlowRefs s) {
  ++s.slow;
  const double* t = cx.t;
  std::uint32_t p = iv.a;
  double e = s.e;
  while (p < iv.b) {
    const bool usable = e >= cx.e_use;
    const double net = delivered - oh_drain - (usable ? load_w : 0.0);
    const double e_inf = 0.5 * net * cx.tau;
    std::uint32_t q = iv.b;
    double flip_dt = kInf;
    if (e == cx.e_use) {
      flip_dt = 0.0;
    } else if ((e - cx.e_use) * (e_inf - cx.e_use) < 0.0) {
      flip_dt = -0.5 * cx.tau * std::log((cx.e_use - e_inf) / (e - e_inf));
    }
    if (t[p] + flip_dt < t[q]) {
      const double* it = std::upper_bound(t + p, t + q + 1, t[p] + flip_dt);
      auto qf = static_cast<std::uint32_t>(it - t);
      if (qf <= p) qf = p + 1;
      if (qf < q) q = qf;
      ++s.flips;
    }
    const double len = t[q] - t[p];
    const double dec = (p == iv.a && q == iv.b) ? dec_full : std::exp(-2.0 * len / cx.tau);
    e = std::clamp(e_inf + (e - e_inf) * dec, 0.0, cx.e_max);
    if (usable) {
      s.served += load_w * len;
    } else {
      s.brown_steps += q - p;
      s.brown_t += len;
    }
    p = q;
  }
  s.e = e;
}

KernelTotals run_axis_scalar(const EnvContext& cx, const AxisPlan& ax,
                             const sched::EdgeOverlay::Interval* ovs,
                             const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                             std::size_t count, mppt::MpptController* proto,
                             std::vector<node::NodeReport>& reports) {
  const DenseTables& tb = *cx.tb;
  const power::BuckBoostConverter& conv = *cx.conv;
  const double tau = cx.tau;
  const double e_max = cx.e_max;
  const double e_use = cx.e_use;
  const double min_lux = ax.min_lux;
  const double* width_arr = cx.width;
  const double* span_arr = cx.span;
  const double* mean_arr = cx.mean_u;
  const double* xlo = cx.x_lo;
  const double* xhi = cx.x_hi;
  const double* dec_arr = cx.decay;
  const std::uint32_t* nstep_arr = cx.nsteps;
  const std::uint8_t* dark_arr = cx.dark;
  const sched::BatchInterval* ivs = cx.ivs;
  const std::size_t n_iv = cx.n_intervals;

  KernelTotals totals;

  // Supercapacitor::advance_constant_power across interval `ii`. The
  // common case costs one decay multiply and never touches the trace
  // time array: closed_form_ok() proves the store stays on its side of
  // usable() for the whole interval, and span[ii] is bit-identical to
  // the slow path's t[iv.b] - t[iv.a], so the branch cannot change a
  // single report byte.
  const auto advance_span = [&](NodeState& st, std::uint32_t ii, double delivered,
                                double oh_drain) __attribute__((always_inline)) {
    const bool usable = st.e >= e_use;
    const double net = delivered - oh_drain - (usable ? st.load_w : 0.0);
    const double e_inf = 0.5 * net * tau;
    const double z = e_inf + (st.e - e_inf) * dec_arr[ii];
    if (closed_form_ok(st.e, e_inf, z, e_use, kCrossingGuard)) {
      const double len = span_arr[ii];
      st.e = std::clamp(z, 0.0, e_max);
      if (usable) {
        st.served += st.load_w * len;
      } else {
        st.brown_steps += nstep_arr[ii];
        st.brown_t += len;
      }
      return;
    }
    advance_slow(cx, ivs[ii], st.load_w, delivered, oh_drain, dec_arr[ii],
                 SlowRefs{st.e, st.served, st.brown_t, st.brown_steps, st.flips, st.slow});
  };

  // One full day for one node: the flat interval order interleaves dark
  // spans (store advance only) with the axis' lit evaluation.
  const auto sweep_node = [&](std::size_t i, const auto& lit_iv) __attribute__((always_inline)) {
    NodeState st = init_node(cx, draws[members[i]], ax);
    for (std::uint32_t ii = 0; ii < n_iv; ++ii) {
      if (dark_arr[ii] != 0) {
        st.prev_p = st.prev_v = 0.0;
        advance_span(st, ii, 0.0, 0.0);
        continue;
      }
      lit_iv(st, ii);
    }
    finalize_node(cx, st, reports[members[i]]);
    totals.flips += st.flips;
    totals.slow += st.slow;
  };

  if (ax.eval == AxisEval::kSampleHold) {
    // Closed-form sample/hold: the held value right after an edge is
    // (Voc + in_off) * divider + val_const (the acquisition settles to
    // zero error within the 39 ms window), then droops linearly with
    // the sample age. The EdgeOverlay supplies each interval's mean
    // sample age and disconnect duty, shared by every node of this
    // axis.
    const double inv_alpha = 1.0 / ax.alpha;
    const bool has_droop = ax.droop > 0.0;
    const double inv_droop = has_droop ? 1.0 / ax.droop : 0.0;
    const double inv_period = 1.0 / ax.period;
    const auto lit_iv = [&](NodeState& st, std::uint32_t ii) __attribute__((always_inline)) {
      const double w = width_arr[ii];
      // Constant-light intervals collapse the 2-point quadrature
      // to one evaluation: with identical points, 0.5 * (x + x)
      // is exactly x, so the single-eval path is byte-identical.
      const bool two_pt = xlo[ii] != xhi[ii];
      const Slot s_lo = slot_of(tb, st.xoff + xlo[ii]);
      const Curve c_lo = curve_from(tb, s_lo);
      Slot s_hi = s_lo;
      Curve c_hi = c_lo;
      if (two_pt) {
        s_hi = slot_of(tb, st.xoff + xhi[ii]);
        c_hi = curve_from(tb, s_hi);
      }
      st.ideal += 0.5 * (c_lo.pmpp + c_hi.pmpp) * w;
      const bool running = min_lux <= 0.0 || st.scale * mean_arr[ii] >= min_lux;
      if (!running) {
        st.prev_p = 0.0;
        st.prev_v = 0.0;
        advance_span(st, ii, 0.0, 0.0);
        return;
      }
      if (st.cold_t < 0.0) st.cold_t = ivs[ii].t0;
      const sched::EdgeOverlay::Interval& ov = ovs[ii];
      if (ov.pre_frac >= 1.0) {
        // Running but no sample held yet: the metrology already
        // drains overhead while the converter stays off.
        st.over += st.oh * w;
        st.prev_p = 0.0;
        st.prev_v = 0.0;
        advance_span(st, ii, 0.0, st.oh);
        return;
      }
      const double harvest_scale = 1.0 - ov.disc;
      const double act_base = 1.0 - ov.pre_frac;
      struct PointOut {
        double p = 0.0, d = 0.0, v = 0.0;
      };
      const auto eval = [&](const Curve& c, const Slot& s) __attribute__((always_inline)) {
        PointOut o;
        const double value0 = (c.voc + ax.in_off) * st.divider + ax.val_const;
        double frac = 1.0;
        double lag = 0.0;
        if (has_droop) {
          const double lag_star = (value0 - ax.threshold) * inv_droop;
          if (lag_star <= 0.0) return o;  // never clears ACTIVE
          if (lag_star >= ax.period) {
            lag = ov.avg_lag;  // active across the whole sawtooth
          } else {
            frac = lag_star * inv_period;  // decays below ACTIVE mid-period
            lag = 0.5 * lag_star;
          }
        } else if (value0 < ax.threshold) {
          return o;
        }
        o.v = (value0 - ax.droop * lag) * inv_alpha;
        const double act = act_base * frac;
        const double p_full = power_at(tb, s, o.v) * harvest_scale;
        o.p = p_full * act;
        o.d = conv.output_power(p_full, o.v) * act;
        return o;
      };
      const PointOut lo = eval(c_lo, s_lo);
      const PointOut hi = two_pt ? eval(c_hi, s_hi) : lo;
      const double p_bar = 0.5 * (lo.p + hi.p);
      const double d_bar = 0.5 * (lo.d + hi.d);
      st.harv += p_bar * w;
      st.deliv += d_bar * w;
      st.over += st.oh * w;
      st.prev_p = p_bar;
      st.prev_v = 0.5 * (lo.v + hi.v);
      advance_span(st, ii, d_bar, st.oh);
    };
    for (std::size_t i = 0; i < count; ++i) sweep_node(i, lit_iv);
  } else if (ax.eval == AxisEval::kAffineVoc) {
    // Memoryless laws that are affine in Voc (fixed voltage, pilot
    // cell): the closed form replays step()'s exact arithmetic —
    // v = aff_k * ((Voc * aff_s1) * aff_s2) with the same association,
    // act = 1 - min(1, disconnect_fraction) folded at plan build — so
    // this path is bit-identical to running the cloned prototype.
    const auto lit_iv = [&](NodeState& st, std::uint32_t ii) __attribute__((always_inline)) {
      const double w = width_arr[ii];
      const bool two_pt = xlo[ii] != xhi[ii];
      const Slot s_lo = slot_of(tb, st.xoff + xlo[ii]);
      const Curve c_lo = curve_from(tb, s_lo);
      Slot s_hi = s_lo;
      Curve c_hi = c_lo;
      if (two_pt) {
        s_hi = slot_of(tb, st.xoff + xhi[ii]);
        c_hi = curve_from(tb, s_hi);
      }
      st.ideal += 0.5 * (c_lo.pmpp + c_hi.pmpp) * w;
      const bool running = min_lux <= 0.0 || st.scale * mean_arr[ii] >= min_lux;
      if (!running) {
        st.prev_p = 0.0;
        st.prev_v = 0.0;
        advance_span(st, ii, 0.0, 0.0);
        return;
      }
      if (st.cold_t < 0.0) st.cold_t = ivs[ii].t0;
      const auto eval = [&](const Curve& c, const Slot& s) __attribute__((always_inline)) {
        const double v = ax.aff_const ? ax.aff_v : ax.aff_k * ((c.voc * ax.aff_s1) * ax.aff_s2);
        const double p = power_at(tb, s, v) * ax.aff_act;
        return std::pair<double, double>{p, v};
      };
      const auto [pl, vl] = eval(c_lo, s_lo);
      const auto [ph, vh] = two_pt ? eval(c_hi, s_hi) : std::pair<double, double>{pl, vl};
      const double dl = conv.output_power(pl, vl);
      const double dh = two_pt ? conv.output_power(ph, vh) : dl;
      const double p_bar = 0.5 * (pl + ph);
      const double d_bar = 0.5 * (dl + dh);
      st.harv += p_bar * w;
      st.deliv += d_bar * w;
      st.over += st.oh * w;
      st.prev_p = p_bar;
      st.prev_v = 0.5 * (vl + vh);
      advance_span(st, ii, d_bar, st.oh);
    };
    for (std::size_t i = 0; i < count; ++i) sweep_node(i, lit_iv);
  } else {
    // Generic memoryless: exactly MacroStepper::process_interval's eval
    // on the axis' cloned prototype at both quadrature points. step()
    // is pure for kMemoryless controllers, so one clone serves every
    // node and any evaluation order.
    mppt::MpptController& ctl = *proto;
    const double inv_cap2 = cx.inv_cap2;
    const auto lit_iv = [&](NodeState& st, std::uint32_t ii) __attribute__((always_inline)) {
      const double w = width_arr[ii];
      const bool two_pt = xlo[ii] != xhi[ii];
      const Slot s_lo = slot_of(tb, st.xoff + xlo[ii]);
      const Curve c_lo = curve_from(tb, s_lo);
      Slot s_hi = s_lo;
      Curve c_hi = c_lo;
      if (two_pt) {
        s_hi = slot_of(tb, st.xoff + xhi[ii]);
        c_hi = curve_from(tb, s_hi);
      }
      st.ideal += 0.5 * (c_lo.pmpp + c_hi.pmpp) * w;
      const bool running = min_lux <= 0.0 || st.scale * mean_arr[ii] >= min_lux;
      if (!running) {
        st.prev_p = 0.0;
        st.prev_v = 0.0;
        advance_span(st, ii, 0.0, 0.0);
        return;
      }
      const sched::BatchInterval& iv = ivs[ii];
      if (st.cold_t < 0.0) st.cold_t = iv.t0;
      mppt::SensedInputs sensed;
      sensed.time = iv.t_mid;
      sensed.dt = iv.dt_bar;
      sensed.illuminance_estimate = iv.total_mean_u * st.scale;
      sensed.prev_power = st.prev_p;
      sensed.prev_voltage = st.prev_v;
      sensed.store_voltage = std::sqrt(st.e * inv_cap2);
      const auto eval = [&](const Curve& c, const Slot& s) __attribute__((always_inline)) {
        sensed.voc = c.voc;
        sensed.pilot_voc = c.voc;
        const mppt::ControlOutput out = ctl.step(sensed);
        const double p = power_at(tb, s, out.pv_voltage) *
                         (1.0 - std::min(1.0, out.disconnect_fraction));
        return std::pair<double, double>{p, out.pv_voltage};
      };
      const auto [pl, vl] = eval(c_lo, s_lo);
      const auto [ph, vh] = two_pt ? eval(c_hi, s_hi) : std::pair<double, double>{pl, vl};
      const double dl = conv.output_power(pl, vl);
      const double dh = two_pt ? conv.output_power(ph, vh) : dl;
      const double p_bar = 0.5 * (pl + ph);
      const double d_bar = 0.5 * (dl + dh);
      st.harv += p_bar * w;
      st.deliv += d_bar * w;
      st.over += st.oh * w;
      st.prev_p = p_bar;
      st.prev_v = 0.5 * (vl + vh);
      advance_span(st, ii, d_bar, st.oh);
    };
    for (std::size_t i = 0; i < count; ++i) sweep_node(i, lit_iv);
  }

  return totals;
}

}  // namespace focv::fleet::soa::internal
