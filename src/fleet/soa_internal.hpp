// Internals shared by the SoA fleet engine's translation units:
//
//   soa_plan.cpp    — plan construction (tables, schedules, axis forms)
//   soa_scalar.cpp  — node-major kernel: the reference, the pre-AVX2
//                     kernel and the only one for kPrototype axes
//   soa_lanes.cpp   — interval-major width-W lane kernel (one source,
//                     one object per lane width)
//   soa.cpp         — run_batch dispatch, axis grouping, telemetry
//
// The interval body is written once, below, as always_inline templates
// over a lane type (common/step_laws.hpp): table slot resolution,
// dense-table reads, the interpolated P(V) lookup (through the cache's
// own laws::pv_row_read), the closed-form laws,
// the converter, the accumulators and the guarded closed-form store
// advance. run_axis_scalar instantiates it on double/bool, one node at a
// time; run_axis_lanes<W> on simd::DVec/MVec, W nodes at a time. One
// source gives both kernels the same expression trees; both TUs are
// compiled with -ffp-contract=off, so no FMA contraction can split
// them, and every simd.hpp lane op is the scalar IEEE op.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/step_laws.hpp"
#include "fleet/soa.hpp"
#include "node/harvester_node.hpp"
#include "power/converter.hpp"

namespace focv::fleet::soa::internal {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kGrid = node::CurveCache::kGridNodesPerLogLux;

/// Grid coordinate below which the cell is dark (x = 32 ln lux).
inline const double kDarkX = kGrid * std::log(node::CurveCache::kDarkLux);

/// Per-node sweep state: the node's constants, the supercapacitor
/// ENERGY `e` (the voltage is monotonic in it, so the usable() gate
/// compares energies and the voltage is only materialised where a
/// controller senses it), the report accumulators, and the operating
/// point prototype axes sense. D is double for one node and simd::DVec
/// for a block of lanes.
template <class D>
struct SweepState {
  D scale{}, xoff{}, divider{}, oh{}, load_w{}, e{};
  D ideal{}, harv{}, deliv{}, over{}, served{}, brown_t{}, cold_t{};
  D prev_p{}, prev_v{};  ///< scratch of one day's sweep, not stored per lane
};

#define FOCV_SWEEP_INLINE __attribute__((always_inline)) inline
/// Lambdas over lane state inline too (see FOCV_LAW_LAMBDA in
/// common/step_laws.hpp).
#define FOCV_SWEEP_LAMBDA __attribute__((always_inline))

/// Calls f on each stored field of the states `s...`, zipped (the lane
/// kernel keeps one column per field).
template <class F, class... S>
FOCV_SWEEP_INLINE void for_each_field(F&& f, S&... s) {
  f(s.scale...), f(s.xoff...), f(s.divider...), f(s.oh...), f(s.load_w...), f(s.e...);
  f(s.ideal...), f(s.harv...), f(s.deliv...), f(s.over...), f(s.served...), f(s.brown_t...);
  f(s.cold_t...);
}

/// The store fields the slow advance mutates — plain references so the
/// scalar kernel passes NodeState members and the lane kernel passes
/// its column slots; either way the SAME function body runs.
struct SlowRefs {
  double& e;
  double& served;
  double& brown_t;
  std::uint32_t& brown_steps;
  std::uint32_t& flips;
  std::uint32_t& slow;
};

/// One node's state with the counters the slow advance keeps. It is
/// the scalar kernel's spill store (see advance()): the slow advance
/// updates the node in place.
struct NodeState : SweepState<double> {
  std::uint32_t brown_steps = 0, flips = 0;
  std::uint32_t slow = 0;  ///< intervals replayed step-by-step (telemetry only)
  FOCV_SWEEP_INLINE void store(const SweepState<double>&) const {}
  FOCV_SWEEP_INLINE void load(SweepState<double>&) const {}
  FOCV_SWEEP_INLINE SlowRefs refs(int) { return {e, served, brown_t, brown_steps, flips, slow}; }
};

/// Everything an axis-run kernel needs about its environment and the
/// shared storage model, resolved to plain pointers/doubles once per
/// run_env call so the kernels touch no plan objects on the hot path.
struct EnvContext {
  const node::CurveTable* tb = nullptr;
  const power::BuckBoostConverter* conv = nullptr;
  const double* t = nullptr;  ///< trace step boundaries
  const sched::BatchInterval* ivs = nullptr;
  std::size_t n_intervals = 0;
  const double* width = nullptr;
  const double* span = nullptr;
  const double* mean_u = nullptr;
  const double* t_start = nullptr;
  const double* x_lo = nullptr;
  const double* x_hi = nullptr;
  const double* decay = nullptr;
  const std::uint32_t* nsteps = nullptr;
  const std::uint8_t* dark = nullptr;  ///< flat interval-order dark flags
  // Storage model.
  double inv_cap2 = 0.0, tau = 0.0, e_max = 0.0, e_use = 0.0, e_init = 0.0;
  // Node init constants.
  double lux_scale = 1.0, burst_j = 0.0, sleep_power = 0.0;
  // Report constants.
  double duration = 0.0;
  std::uint64_t events_base = 0;
};

inline NodeState init_node(const EnvContext& cx, const NodeDraw& d, const AxisPlan& ax) {
  NodeState st;
  st.cold_t = -1.0;
  st.scale = cx.lux_scale * d.attenuation * d.cell_factor;
  st.xoff = kGrid * std::log(st.scale);
  st.divider = d.divider_ratio * ax.div_factor;
  st.oh = ax.law == mppt::MacroLaw::kSampleHold
              ? ax.oh_rep + ax.oh_div * (ax.div_rep - st.divider)
              : ax.oh_const;
  st.load_w = cx.sleep_power + cx.burst_j / d.report_period;
  st.e = cx.e_init;
  return st;
}

inline void finalize_node(const EnvContext& cx, const NodeState& st, node::NodeReport& r) {
  r = node::NodeReport{};
  r.duration = cx.duration;
  r.harvested_energy = st.harv;
  r.delivered_energy = st.deliv;
  r.overhead_energy = st.over;
  r.load_energy_served = st.served;
  r.ideal_mpp_energy = st.ideal;
  r.coldstart_time = st.cold_t;
  r.brownout_steps = static_cast<int>(st.brown_steps);
  r.brownout_time = st.brown_t;
  r.final_store_voltage = std::sqrt(st.e * cx.inv_cap2);
  r.steps = cx.n_intervals;
  r.events = cx.events_base + st.flips;
}

/// Relative width of the band around e_use inside which the closed-form
/// test defers to advance_slow. It is orders of magnitude above the
/// rounding of advance_slow's log, exp and t[p] + flip_dt, so the two
/// paths can never disagree about whether usable() flips.
constexpr double kCrossingGuard = 1e-9;

/// True when the one-piece closed-form advance is exact: the end energy
/// z = e_inf + (e - e_inf) * dec stays on e's side of e_use by more
/// than the guard band. The store decays monotonically toward e_inf, so
/// it then cannot reach e_use anywhere in the interval, and
/// advance_slow would run the same expressions in one piece with no
/// flip (dec_full, len = span, q - p = nsteps). e == e_use, NaNs and
/// ends inside the band all return false and take advance_slow.
///
/// V is double (result converts to bool) or simd::DVec (the per-lane
/// mask); `guard` is kCrossingGuard in V.
template <class V>
inline auto closed_form_ok(V e, V e_inf, V z, V e_use, V guard) {
  using std::abs;
  const V band = guard * (abs(e - e_inf) + abs(e_inf));
  return ((e > e_use) & ((z - e_use) > band)) | ((e < e_use) & ((e_use - z) > band));
}

/// The rare case: the store may cross usable() inside the interval, so
/// the advance splits at step boundaries exactly as
/// MacroStepper::advance_store_span does. Kept out of the kernels' fast
/// paths — closed_form_ok() sends them virtually every interval.
/// Defined once, in the baseline-ISA soa_scalar.cpp: an inline body
/// would leave each wide-ISA lanes object a weak copy the linker may
/// keep for every caller.
void advance_slow(const EnvContext& cx, const sched::BatchInterval& iv, double load_w,
                  double delivered, double oh_drain, double dec_full, SlowRefs s);

// --- The interval body, written once ----------------------------------

using SlotF = node::CurveTable::SlotF;

/// A run's hoisted view of the dense table, the converter, the storage
/// model and the axis' supply gate, in the lane type's values.
template <class L>
struct Sweep {
  using D = typename L::D;
  FOCV_SWEEP_INLINE Sweep(const EnvContext& c, const AxisPlan& ax)
      : cx(c),
        conv(c.conv->params()),
        slot_f(c.tb->slot_f.data()),
        power(c.tb->power.data()),
        points(c.tb->points),
        grid_lo(L::splat(static_cast<double>(c.tb->grid_lo))),
        grid_hi(L::splat(static_cast<double>(c.tb->grid_lo + c.tb->slots - 2))),
        // A table of fewer than two slots (an always-dark environment)
        // has nothing to interpolate: every point reads dark.
        dark_x(L::splat(c.tb->slots >= 2 ? kDarkX : kInf)),
        row_last(L::splat(static_cast<double>(c.tb->points - 1))),
        row_max(L::splat(static_cast<double>(c.tb->points - 2))),
        tau(L::splat(c.tau)),
        e_max(L::splat(c.e_max)),
        e_use(L::splat(c.e_use)),
        guard(L::splat(kCrossingGuard)),
        gate(ax.min_lux > 0.0),
        min_lux(L::splat(ax.min_lux)) {}
  const EnvContext& cx;
  const power::BuckBoostConverter::Params& conv;
  const SlotF* slot_f;
  const double* power;
  int points;
  D grid_lo, grid_hi, dark_x;  ///< slot 0's grid index, the last slot's, the dark edge
  D row_last, row_max;         ///< points - 1, points - 2
  D tau, e_max, e_use, guard;
  bool gate;  ///< the axis has a supply floor
  D min_lux;
};

/// The table slot of grid coordinate x (x = 32 ln lux), clamped into
/// the exported span: nodes beyond the +-6 sigma export margin read the
/// edge entries. Dark lanes keep slot 0 and weight 0, and every read
/// through them is voided by `lit`. `uniform` marks slots all lanes
/// share (always, for one node). voc and pmpp are the curve there
/// (CurveCache::at), zero dark.
template <class L>
struct Slot {
  typename L::I k;
  typename L::D f;
  typename L::B lit;
  bool uniform;
  typename L::D voc, pmpp;
};

/// A law's operating point at one quadrature point: harvested power,
/// delivered power, PV voltage.
template <class L>
struct Point {
  typename L::D p, d, v;
};

/// Field `f` of slot k + row. A block whose lanes share one slot (the
/// common case: run_env sorts each axis run by illuminance scale) reads
/// it once and broadcasts it; always gathering measured 3-6 % slower on
/// fleet_soa at 8 lanes.
template <class L>
FOCV_SWEEP_INLINE typename L::D slot_read(const Sweep<L>& sw, const Slot<L>& s, int row,
                                          double SlotF::*f) {
  const SlotF* rows = sw.slot_f + row;
  return s.uniform ? L::splat(rows[L::first(s.k)].*f) : L::gather(rows, s.k, f);
}

template <class L>
FOCV_SWEEP_INLINE Slot<L> slot_of(const Sweep<L>& sw, typename L::D x) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  Slot<L> s{L::splat_i(0), zero, x >= sw.dark_x, true, zero, zero};
  D k = zero;
  L::when(L::yes(), s.lit, [&](B on) FOCV_SWEEP_LAMBDA {
    D j = L::floor(x);
    D f = x - j;
    L::when(on, j < sw.grid_lo, [&](B below) FOCV_SWEEP_LAMBDA {
      L::set(below, j, sw.grid_lo);
      L::set(below, f, zero);
    });
    L::when(on, j > sw.grid_hi, [&](B above) FOCV_SWEEP_LAMBDA {
      L::set(above, j, sw.grid_hi);
      L::set(above, f, L::splat(1.0));
    });
    L::set(on, s.f, f);
    // Integer-valued doubles: the difference and the cast are exact.
    L::set(on, k, j - sw.grid_lo);
  });
  s.k = L::to_index(k);
  s.uniform = L::uniform(s.k);
  L::when(L::yes(), s.lit, [&](B on) FOCV_SWEEP_LAMBDA {
    const D voc0 = slot_read(sw, s, 0, &SlotF::voc);
    const D voc1 = slot_read(sw, s, 1, &SlotF::voc);
    const D pm0 = slot_read(sw, s, 0, &SlotF::pmpp);
    const D pm1 = slot_read(sw, s, 1, &SlotF::pmpp);
    L::set(on, s.voc, voc0 + s.f * (voc1 - voc0));
    L::set(on, s.pmpp, pm0 + s.f * (pm1 - pm0));
  });
  return s;
}

/// CurveCache::table_power on slot k + row at v, on the lanes in `on`
/// (zero elsewhere). rel = v / Voc(row) via the precomputed reciprocal:
/// the only difference from the cache's own arithmetic is
/// mul-by-reciprocal instead of divide, well inside the engine's 0.1 %
/// contract.
template <class L>
FOCV_SWEEP_INLINE typename L::D row_power(const Sweep<L>& sw, const Slot<L>& s, int row,
                                          typename L::D v, typename L::B on) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  D p = zero;
  const D rel = v * slot_read(sw, s, row, &SlotF::inv_voc);
  L::when(on, rel < L::splat(1.0), [&](B below) FOCV_SWEEP_LAMBDA {
    // Other lanes take row position 0, so every read stays in bounds.
    const D pos = L::pick(below, rel * sw.row_last, zero);
    // Power rows are contiguous (slot * points + m); a dense table big
    // enough to overflow int32 lane indices would be >16 GiB, far past
    // what export_range can produce.
    L::set(below, p,
           laws::pv_row_read<L>(sw.power + row * sw.points, s.k * L::splat_i(sw.points), pos,
                                sw.row_max));
  });
  return p;
}

/// CurveCache::power_at(LuxKey, v) on a resolved slot: zero at v <= 0
/// and dark. The engine resolves each quadrature point's slot once and
/// reuses it for the Voc/Pmpp read and every P(V) lookup.
template <class L>
FOCV_SWEEP_INLINE typename L::D power_at(const Sweep<L>& sw, const Slot<L>& s, typename L::D v) {
  using D = typename L::D;
  using B = typename L::B;
  const D zero = L::splat(0.0);
  D p = zero;
  L::when_some(L::yes(), s.lit & (v > zero), [&](B valid) FOCV_SWEEP_LAMBDA {
    const D p0 = row_power(sw, s, 0, v, valid);
    const D p1 = row_power(sw, s, 1, v, valid);
    L::set(valid, p, p0 + s.f * (p1 - p0));
  });
  return p;
}

/// A law's points in one interval: whether the controller commands
/// anything yet (`held`), and its operating point at a quadrature slot.
template <class F>
struct Points {
  bool held;
  F at;
};

/// The paper's sample-and-hold FOCV law in closed form. The held value
/// right after an edge is (Voc + in_off) * divider + val_const (the
/// acquisition settles to zero error within the 39 ms window), then
/// droops linearly with the sample age. The EdgeOverlay supplies each
/// interval's mean sample age and disconnect duty, shared by every node
/// of the axis.
template <class L>
struct SampleHoldLaw {
  using D = typename L::D;
  using B = typename L::B;
  FOCV_SWEEP_INLINE SampleHoldLaw(const AxisPlan& ax, const sched::EdgeOverlay::Interval* ov)
      : ovs(ov),
        has_droop(ax.droop > 0.0),
        in_off(L::splat(ax.in_off)),
        val_const(L::splat(ax.val_const)),
        threshold(L::splat(ax.threshold)),
        droop(L::splat(ax.droop)),
        inv_alpha(L::splat(1.0 / ax.alpha)),
        inv_droop(L::splat(has_droop ? 1.0 / ax.droop : 0.0)),
        period(L::splat(ax.period)),
        inv_period(L::splat(1.0 / ax.period)) {}
  const sched::EdgeOverlay::Interval* ovs;
  bool has_droop;
  D in_off, val_const, threshold, droop, inv_alpha, inv_droop, period, inv_period;

  FOCV_SWEEP_INLINE auto points(const Sweep<L>& sw, const SweepState<D>& st,
                                std::uint32_t ii) const {
    const sched::EdgeOverlay::Interval& ov = ovs[ii];
    const D hs = L::splat(1.0 - ov.disc);
    const D act_base = L::splat(1.0 - ov.pre_frac);
    const D avg_lag = L::splat(ov.avg_lag);
    // Before the first edge no sample is held: the metrology already
    // drains overhead while the converter stays off.
    return Points{!(ov.pre_frac >= 1.0), [=, this, &sw, &st](const Slot<L>& s)
                                              FOCV_SWEEP_LAMBDA {
      const D zero = L::splat(0.0);
      const D one = L::splat(1.0);
      Point<L> o{zero, zero, zero};
      const D value0 = (s.voc + in_off) * st.divider + val_const;
      B live;
      D frac = one;
      D lag = zero;
      if (has_droop) {
        const D lag_star = (value0 - threshold) * inv_droop;
        live = lag_star > zero;  // else it never clears ACTIVE
        L::branch(
            live, lag_star >= period,
            [&](B whole) FOCV_SWEEP_LAMBDA {
              L::set(whole, lag, avg_lag);  // active across the whole sawtooth
            },
            [&](B part) FOCV_SWEEP_LAMBDA {
              L::set(part, frac, lag_star * inv_period);  // decays below ACTIVE mid-period
              L::set(part, lag, L::splat(0.5) * lag_star);
            });
      } else {
        live = value0 >= threshold;
      }
      L::when_some(L::yes(), live, [&](B on) FOCV_SWEEP_LAMBDA {
        const D v = (value0 - droop * lag) * inv_alpha;
        const D act = act_base * frac;
        const D p_full = power_at(sw, s, v) * hs;
        L::set(on, o.p, p_full * act);
        L::set(on, o.d, laws::buck_boost_output<L>(L::yes(), sw.conv, p_full, v) * act);
        L::set(on, o.v, v);
      });
      return o;
    }};
  }
};

/// Memoryless laws that are affine in Voc (fixed voltage, pilot cell):
/// the closed form replays step()'s exact arithmetic, v = aff_k *
/// ((Voc * aff_s1) * aff_s2) with the same association and act = 1 -
/// min(1, disconnect_fraction) folded at plan build, so it is
/// bit-identical to running the cloned prototype.
template <class L>
struct AffineLaw {
  using D = typename L::D;
  FOCV_SWEEP_INLINE explicit AffineLaw(const AxisPlan& ax)
      : constant(ax.aff_const),
        v_const(L::splat(ax.aff_v)),
        k(L::splat(ax.aff_k)),
        s1(L::splat(ax.aff_s1)),
        s2(L::splat(ax.aff_s2)),
        act(L::splat(ax.aff_act)) {}
  bool constant;
  D v_const, k, s1, s2, act;

  FOCV_SWEEP_INLINE auto points(const Sweep<L>& sw, const SweepState<D>&, std::uint32_t) const {
    return Points{true, [this, &sw](const Slot<L>& s) FOCV_SWEEP_LAMBDA {
      const D v = constant ? v_const : k * ((s.voc * s1) * s2);
      const D p = power_at(sw, s, v) * act;
      return Point<L>{p, laws::buck_boost_output<L>(L::yes(), sw.conv, p, v), v};
    }};
  }
};

/// Supercapacitor::advance_constant_power across interval ii. The common
/// case costs one decay multiply and never touches the trace time array:
/// closed_form_ok() proves the store stays on its side of usable() for
/// the whole interval, and span[ii] is bit-identical to the slow path's
/// t[iv.b] - t[iv.a]. A lane it cannot clear keeps its pre-interval
/// state, is spilled, replayed by the one advance_slow, and reloaded:
/// `spill` is the kernel's store, whose store(st) and load(st) move the
/// spilled fields and refs(l) names lane l's. The advance stays fused
/// with the table work: it is a serial chain through e, and the
/// out-of-order core hides it behind the independent reads (a staged
/// two-pass split measured ~35 % slower).
template <class L, class Spill>
FOCV_SWEEP_INLINE void advance(const Sweep<L>& sw, SweepState<typename L::D>& st, std::uint32_t ii,
                               typename L::D delivered, typename L::D oh_drain, Spill& spill) {
  using D = typename L::D;
  using B = typename L::B;
  const EnvContext& cx = sw.cx;
  const D zero = L::splat(0.0);
  const B usable = st.e >= sw.e_use;
  const D net = (delivered - oh_drain) - L::pick(usable, st.load_w, zero);
  const D e_inf = (L::splat(0.5) * net) * sw.tau;
  const D z = e_inf + (st.e - e_inf) * L::splat(cx.decay[ii]);
  const B fast = closed_form_ok(st.e, e_inf, z, sw.e_use, sw.guard);
  const D len = L::splat(cx.span[ii]);
  L::when(L::yes(), fast, [&](B on) FOCV_SWEEP_LAMBDA {
    L::set(on, st.e, L::clamp(z, zero, sw.e_max));
    L::branch(
        on, usable,
        [&](B healthy) FOCV_SWEEP_LAMBDA {
          L::set(healthy, st.served, st.served + st.load_w * len);
        },
        [&](B brown) FOCV_SWEEP_LAMBDA { L::set(brown, st.brown_t, st.brown_t + len); });
  });
  // One test gates both rare paths: a lane outside fast & usable is
  // either browned out or may cross usable().
  if (L::all(fast & usable)) return;
  const B brown = fast & !usable;
  if (L::any(brown)) {
    for (int l = 0; l < L::kWidth; ++l) {
      if (L::lane(brown, l)) spill.refs(l).brown_steps += cx.nsteps[ii];
    }
  }
  if (!L::all(fast)) {
    spill.store(st);
    for (int l = 0; l < L::kWidth; ++l) {
      if (L::lane(fast, l)) continue;
      advance_slow(cx, cx.ivs[ii], L::lane(st.load_w, l), L::lane(delivered, l),
                   L::lane(oh_drain, l), cx.decay[ii], spill.refs(l));
    }
    spill.load(st);
  }
}

/// One node's (scalar) or one block's (lanes) whole day under `law`:
/// the flat interval order interleaves dark spans (store advance only)
/// with lit ones: the two-point curve read, ideal-MPP energy, the supply
/// gate and cold-start stamp, the law's operating point, the
/// accumulators and the store advance.
template <class L, class Law, class Spill>
FOCV_SWEEP_INLINE void sweep_day(const Sweep<L>& sw, const Law& law,
                                 SweepState<typename L::D>& st, Spill& spill) {
  using D = typename L::D;
  using B = typename L::B;
  const EnvContext& cx = sw.cx;
  const D zero = L::splat(0.0);
  const D half = L::splat(0.5);
  for (std::uint32_t ii = 0; ii < cx.n_intervals; ++ii) {
    if (cx.dark[ii] != 0) {
      st.prev_p = st.prev_v = zero;
      advance(sw, st, ii, zero, zero, spill);
      continue;
    }
    const D w = L::splat(cx.width[ii]);
    // Constant-light intervals collapse the 2-point quadrature to one
    // evaluation: with identical points, 0.5 * (x + x) is exactly x.
    const bool two_pt = cx.x_lo[ii] != cx.x_hi[ii];
    const Slot<L> lo_s = slot_of(sw, st.xoff + L::splat(cx.x_lo[ii]));
    const Slot<L> hi_s = two_pt ? slot_of(sw, st.xoff + L::splat(cx.x_hi[ii])) : lo_s;
    st.ideal = st.ideal + (half * (lo_s.pmpp + hi_s.pmpp)) * w;
    B running = L::yes();
    if (sw.gate) running = st.scale * L::splat(cx.mean_u[ii]) >= sw.min_lux;
    st.cold_t = L::pick(running & (st.cold_t < zero), L::splat(cx.t_start[ii]), st.cold_t);
    // Below the supply floor on every lane: the rest would add zeros.
    if (sw.gate && !L::any(running)) {
      st.prev_p = st.prev_v = zero;
      advance(sw, st, ii, zero, zero, spill);
      continue;
    }
    const auto points = law.points(sw, st, ii);
    Point<L> lo{zero, zero, zero};
    Point<L> hi = lo;
    if (points.held) {
      lo = points.at(lo_s);
      hi = two_pt ? points.at(hi_s) : lo;
    }
    const D p_bar = half * (lo.p + hi.p);
    const D d_bar = half * (lo.d + hi.d);
    L::set(running, st.harv, st.harv + p_bar * w);
    L::set(running, st.deliv, st.deliv + d_bar * w);
    L::set(running, st.over, st.over + st.oh * w);
    st.prev_p = p_bar;
    st.prev_v = half * (lo.v + hi.v);
    advance(sw, st, ii, L::pick(running, d_bar, zero), L::pick(running, st.oh, zero), spill);
  }
}

/// What a kernel reports back to the dispatcher for telemetry.
struct KernelTotals {
  std::uint64_t flips = 0;
  std::uint64_t slow = 0;
};

/// Node-major sweep over one axis run (members[0..count)), for every
/// AxisEval. `proto` is the run's cloned controller for kPrototype axes
/// (unused otherwise).
KernelTotals run_axis_scalar(const EnvContext& cx, const AxisPlan& ax,
                             const sched::EdgeOverlay::Interval* ovs,
                             const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                             std::size_t count, mppt::MpptController* proto,
                             std::vector<node::NodeReport>& reports);

/// Interval-major sweep over one axis run, W lanes wide; closed-form
/// axes only (eval != kPrototype). One source, one object per width
/// (soa_lanes.cpp). The entry points exchange only scalar, pointer and
/// reference arguments, so the cross-TU call ABI is ISA-independent,
/// and the dispatcher only calls an instance lanes_runnable() admits.
template <int W>
KernelTotals run_axis_lanes(const EnvContext& cx, const AxisPlan& ax,
                            const sched::EdgeOverlay::Interval* ovs,
                            const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                            std::size_t count, std::vector<node::NodeReport>& reports);
template <>
KernelTotals run_axis_lanes<4>(const EnvContext& cx, const AxisPlan& ax,
                               const sched::EdgeOverlay::Interval* ovs,
                               const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                               std::size_t count, std::vector<node::NodeReport>& reports);
template <>
KernelTotals run_axis_lanes<8>(const EnvContext& cx, const AxisPlan& ax,
                               const sched::EdgeOverlay::Interval* ovs,
                               const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                               std::size_t count, std::vector<node::NodeReport>& reports);

/// Every lane width soa_lanes.cpp can be built at, narrowest first.
inline constexpr int kLaneWidths[] = {4, 8};

/// True when this build has the W-lane instance and this host can
/// execute it: W = 4 needs AVX2 on x86-64 (any host elsewhere), W = 8
/// exists only in x86-64 builds and needs AVX-512 F/DQ/VL/BW. Reports
/// are byte-identical whichever instance runs; only throughput differs.
[[nodiscard]] bool lanes_runnable(int width);

/// What the W-lane instance needs, for skip and log messages.
[[nodiscard]] const char* lanes_requirement(int width);

/// The lane width run_env dispatches closed-form axes to, and the
/// hill-climber lanes run at (fleet/hill.hpp): the widest runnable
/// instance, probed once per process, or 0 when none runs (the scalar
/// kernel takes every axis and hill-climbers stay per-node).
[[nodiscard]] int lanes_width();

/// Pins lanes_width() to `width` (a runnable width, or 0 for the scalar
/// kernel) until destroyed, so tests can byte-compare every instance
/// the host runs. Not for concurrent use with a running fleet.
class ScopedLanesWidth {
 public:
  explicit ScopedLanesWidth(int width);
  ~ScopedLanesWidth();
  ScopedLanesWidth(const ScopedLanesWidth&) = delete;
  ScopedLanesWidth& operator=(const ScopedLanesWidth&) = delete;

 private:
  int previous_;
};

}  // namespace focv::fleet::soa::internal
