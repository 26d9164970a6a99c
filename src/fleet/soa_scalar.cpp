// Node-major SoA sweep: one transient NodeState per node walks the whole
// shared schedule, the interval body of soa_internal.hpp instantiated on
// double/bool. This is the reference the lane kernel is byte-compared
// against, the kernel of pre-AVX2 x86-64 hosts, and the only one that can
// run kPrototype axes (a virtual step() on the run's cloned controller
// per quadrature point). It also holds the one advance_slow both kernels
// defer to.
//
// Compiled with -ffp-contract=off, like the lane kernel
// (src/fleet/CMakeLists.txt).

#include <algorithm>

#include "common/step_laws.hpp"
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

namespace {

using laws::Scalar;

/// Generic memoryless controllers: exactly MacroStepper::process_interval's
/// eval on the axis' cloned prototype at both quadrature points. step()
/// is pure for kMemoryless controllers, so one clone serves every node
/// and any evaluation order.
struct PrototypeLaw {
  mppt::MpptController& ctl;

  FOCV_SWEEP_INLINE auto points(const Sweep<Scalar>& sw, const SweepState<double>& st,
                                std::uint32_t ii) const {
    const sched::BatchInterval& iv = sw.cx.ivs[ii];
    mppt::SensedInputs sensed;
    sensed.time = iv.t_mid;
    sensed.dt = iv.dt_bar;
    sensed.illuminance_estimate = iv.total_mean_u * st.scale;
    sensed.prev_power = st.prev_p;
    sensed.prev_voltage = st.prev_v;
    sensed.store_voltage = std::sqrt(st.e * sw.cx.inv_cap2);
    return Points{true, [this, &sw, sensed](const Slot<Scalar>& s) {
      mppt::SensedInputs in = sensed;
      in.voc = s.voc;
      in.pilot_voc = s.voc;
      const mppt::ControlOutput out = ctl.step(in);
      const double v = out.pv_voltage;
      const double p = power_at(sw, s, v) * (1.0 - std::min(1.0, out.disconnect_fraction));
      return Point<Scalar>{p, laws::buck_boost_output<Scalar>(true, sw.conv, p, v), v};
    }};
  }
};

}  // namespace

KernelTotals run_axis_scalar(const EnvContext& cx, const AxisPlan& ax,
                             const sched::EdgeOverlay::Interval* ovs,
                             const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                             std::size_t count, mppt::MpptController* proto,
                             std::vector<node::NodeReport>& reports) {
  const Sweep<Scalar> sw(cx, ax);
  KernelTotals totals;
  const auto sweep = [&](const auto& law) FOCV_SWEEP_LAMBDA {
    for (std::size_t i = 0; i < count; ++i) {
      NodeState st = init_node(cx, draws[members[i]], ax);
      sweep_day(sw, law, st, st);
      finalize_node(cx, st, reports[members[i]]);
      totals.flips += st.flips;
      totals.slow += st.slow;
    }
  };
  switch (ax.eval) {
    case AxisEval::kSampleHold:
      sweep(SampleHoldLaw<Scalar>(ax, ovs));
      break;
    case AxisEval::kAffineVoc:
      sweep(AffineLaw<Scalar>(ax));
      break;
    case AxisEval::kPrototype:
      sweep(PrototypeLaw{*proto});
      break;
  }
  return totals;
}

}  // namespace focv::fleet::soa::internal
