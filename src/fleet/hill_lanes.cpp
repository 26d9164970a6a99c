// Lockstep lane kernel for the lit spans of hill-climber nodes.
//
// A `graddesc` or `pando` node ticks every lit step of its day; one
// scalar tick is a serial dependency chain (curve key, controller,
// converter, store) near its latency floor. Nodes are independent, so
// this kernel ticks W nodes of one (environment, policy axis) group in
// lockstep: lane l runs its node's span [a, b) and the group advances
// one trace step at a time, every active lane at the same step. The
// trace (t, eq) is read once per step for all lanes; only the lux
// scale differs. A lane whose span ends is handed back to its node's
// planner (GroupContext::resume), which macro-steps the gated interval
// that follows and returns the next span; the lane then waits, masked
// off, until the group reaches that span's first step.
//
// BYTE-IDENTITY ARGUMENT (vs the lean scalar tick in
// sched/macro_stepper.cpp, which tests/fleet/hill_lanes_test.cpp holds
// it to):
//
//  1. Same curve keys, without a log per lane. CurveCache::step_key
//     takes x = 32 ln(lux) with lux = scale * eq, then j = floor(x) and
//     the weight float(x - j). The lanes instead take one log per step
//     for all lanes, xeq = 32 ln(eq), and one per node when it is set
//     up, xoff = 32 ln(scale) (hill.cpp), and add them. With L the
//     libm log, assumed within 1 ulp, and every |32 ln| below
//     kKeyLogBound (lux, eq and scale in (e^-16, e^16)), the sum is
//     within 2^-42 of the scalar x:
//       fl(scale * eq) moves ln by <= 2^-53         -> 2^-48 in x;
//       each of the three L calls errs by <= 2^-49  -> 3 * 2^-44;
//       the rounding of xoff + xeq (|x| < 512)      -> 2^-45.
//     A lane keeps (floor(lo), float(lo - floor(lo))) only when both
//     ends of [lo, hi] = [x - 2^-40, x + 2^-40] give the same pair
//     (forming lo and hi rounds by <= 2^-45, so the interval still
//     holds the scalar x). floor, subtraction of a fixed j and the
//     float rounding are monotone, so every point between the ends,
//     the scalar x among them, gives that pair too. A lit lane whose
//     check fails (x within 2^-40 of a grid node or of a float
//     rounding tie: ~2.6e-4 of lit keys, mostly small weights) sends
//     its step to the scalar key, std::log(scale * eq) per lane. Dark
//     and NaN lanes keep x = 0, as before. tests/fleet/
//     hill_lanes_test.cpp checks a scalar copy of the certificate
//     against step_key over four days and 128 scales.
//  2. Same expression trees for the rest. Each lane evaluates exactly
//     the scalar tick's arithmetic: at_key and power_at_key on the
//     dense table's verbatim entries (the P(V) row position by
//     division, as table_power divides), the controller's update, the
//     converter, and Supercapacitor::apply_power with its memoised
//     decay. This TU is compiled with -ffp-contract=off like the scalar
//     one, and simd.hpp ops are per-lane IEEE ops.
//  3. Branches become selects that mirror std::clamp / std::max /
//     std::min in scalar comparison order, and every state update is
//     a select on the lane's mask: a lane that is waiting, running
//     gated or outside its update cadence keeps its exact bits.
//  4. Reads are reads. Curve entries are gathered per lane from the
//     plan's dense export, which holds the very doubles the node's
//     CurveCache entries hold; hill.cpp admits only nodes whose
//     every slot lies inside it, so no lane ever builds an entry and no
//     cache counter moves.
//  5. The planner stays scalar and shared: the gated intervals between
//     spans run NodeRun's own code, one node at a time.
//
// ISA: one source, one object per lane width (src/fleet/CMakeLists.txt),
// exactly as soa_lanes.cpp; hill.cpp calls the widest instance the
// host runs (soa::internal::lanes_width()).

#include <cmath>

#include "common/simd.hpp"
#include "fleet/hill_internal.hpp"
#include "fleet/lane_math.hpp"
#include "node/curve_cache.hpp"

namespace focv::fleet::hill {

namespace {

using simd::DVec;
using simd::IVec;
using simd::MVec;

constexpr int W = simd::kLanes;
static_assert(W == 4 || W == 8, "hill_internal.hpp declares tick_lanes<4> and <8> only");

constexpr double kGrid = node::CurveCache::kGridNodesPerLogLux;
constexpr double kDarkLux = node::CurveCache::kDarkLux;
/// Half-width of the interval around xoff + xeq whose every point must
/// give the same key (point 1 above).
constexpr double kKeyRadius = 0x1p-40;
/// Steps whose key_log(eq) is taken ahead of their ticks, on the stack.
constexpr std::size_t kXeqBlock = 64;

#define FOCV_HILL_INLINE __attribute__((always_inline)) inline

/// Per-field lane columns: the lane state between vector registers and
/// the LaneNode records at span boundaries.
enum Field : int {
  kStoreV,
  kPrevP,
  kPrevV,
  kIdeal,
  kHarv,
  kDeliv,
  kOver,
  kServed,
  kBrownT,
  kCold,
  kBrownN,
  kCtlV,
  kCtlRate,
  kCtlPrevP,
  kCtlPrevV,
  kCtlPrevG,
  kCtlNext,
  kCtlHasPrev,
  kCtlHasGrad,
  kScale,
  kXoff,
  kLoad,
  kFields
};

struct Columns {
  alignas(64) double f[kFields][W];
};

/// Calls f(field, value) on every lane field of a node, in Field order.
template <class Node, class F>
void for_each_field(Node& n, F&& f) {
  f(kStoreV, n.tick.store_voltage);
  f(kPrevP, n.tick.prev_power);
  f(kPrevV, n.tick.prev_voltage);
  f(kIdeal, n.tick.ideal_mpp_energy);
  f(kHarv, n.tick.harvested_energy);
  f(kDeliv, n.tick.delivered_energy);
  f(kOver, n.tick.overhead_energy);
  f(kServed, n.tick.load_energy_served);
  f(kBrownT, n.tick.brownout_time);
  f(kCold, n.tick.coldstart_time);
  f(kBrownN, n.brownout_steps);
  f(kCtlV, n.voltage);
  f(kCtlRate, n.lr_or_direction);
  f(kCtlPrevP, n.prev_power);
  f(kCtlPrevV, n.prev_voltage);
  f(kCtlPrevG, n.prev_gradient);
  f(kCtlNext, n.next_update);
  f(kCtlHasPrev, n.has_prev);
  f(kCtlHasGrad, n.has_gradient);
  f(kScale, n.scale);
  f(kXoff, n.xoff);
  f(kLoad, n.load_w);
}

void node_to_column(const LaneNode& n, Columns& c, int l) {
  for_each_field(n, [&](int k, double v) { c.f[k][l] = v; });
}

/// The constants (scale, xoff, load) never change, so only state goes back.
void column_to_node(const Columns& c, int l, LaneNode& n) {
  for_each_field(n, [&](int k, double& v) {
    if (k < kScale) v = c.f[k][l];
  });
}

/// The lane state while it sits in vector registers.
struct State {
  DVec store_v, prev_p, prev_v, ideal, harv, deliv, over, served, brown_t, cold, brown_n;
  DVec ctl_v, ctl_rate, ctl_prev_p, ctl_prev_v, ctl_prev_g, ctl_next, ctl_has_prev,
      ctl_has_grad;
  DVec scale, xoff, load;
};

FOCV_HILL_INLINE State load_state(const Columns& c) {
  State s;
  s.store_v = simd::load(c.f[kStoreV]);
  s.prev_p = simd::load(c.f[kPrevP]);
  s.prev_v = simd::load(c.f[kPrevV]);
  s.ideal = simd::load(c.f[kIdeal]);
  s.harv = simd::load(c.f[kHarv]);
  s.deliv = simd::load(c.f[kDeliv]);
  s.over = simd::load(c.f[kOver]);
  s.served = simd::load(c.f[kServed]);
  s.brown_t = simd::load(c.f[kBrownT]);
  s.cold = simd::load(c.f[kCold]);
  s.brown_n = simd::load(c.f[kBrownN]);
  s.ctl_v = simd::load(c.f[kCtlV]);
  s.ctl_rate = simd::load(c.f[kCtlRate]);
  s.ctl_prev_p = simd::load(c.f[kCtlPrevP]);
  s.ctl_prev_v = simd::load(c.f[kCtlPrevV]);
  s.ctl_prev_g = simd::load(c.f[kCtlPrevG]);
  s.ctl_next = simd::load(c.f[kCtlNext]);
  s.ctl_has_prev = simd::load(c.f[kCtlHasPrev]);
  s.ctl_has_grad = simd::load(c.f[kCtlHasGrad]);
  s.scale = simd::load(c.f[kScale]);
  s.xoff = simd::load(c.f[kXoff]);
  s.load = simd::load(c.f[kLoad]);
  return s;
}

FOCV_HILL_INLINE void store_state(const State& s, Columns& c) {
  simd::store(c.f[kStoreV], s.store_v);
  simd::store(c.f[kPrevP], s.prev_p);
  simd::store(c.f[kPrevV], s.prev_v);
  simd::store(c.f[kIdeal], s.ideal);
  simd::store(c.f[kHarv], s.harv);
  simd::store(c.f[kDeliv], s.deliv);
  simd::store(c.f[kOver], s.over);
  simd::store(c.f[kServed], s.served);
  simd::store(c.f[kBrownT], s.brown_t);
  simd::store(c.f[kCold], s.cold);
  simd::store(c.f[kBrownN], s.brown_n);
  simd::store(c.f[kCtlV], s.ctl_v);
  simd::store(c.f[kCtlRate], s.ctl_rate);
  simd::store(c.f[kCtlPrevP], s.ctl_prev_p);
  simd::store(c.f[kCtlPrevV], s.ctl_prev_v);
  simd::store(c.f[kCtlPrevG], s.ctl_prev_g);
  simd::store(c.f[kCtlNext], s.ctl_next);
  simd::store(c.f[kCtlHasPrev], s.ctl_has_prev);
  simd::store(c.f[kCtlHasGrad], s.ctl_has_grad);
}

/// CurveCache::table_power on each lane's entry `slot` (k3 = 3 * slot
/// in slot_f doubles), zero where the lane's v is at or past the
/// entry's Voc. Positions of lanes outside `valid` are routed to row 0
/// before the int cast so every gather stays in bounds.
FOCV_HILL_INLINE DVec row_power(const GroupContext& cx, IVec slot, IVec k3, DVec v, MVec valid) {
  const DVec zero = simd::broadcast(0.0);
  const DVec voc = simd::gather(cx.slot_f, k3);
  const MVec ok = v < voc;
  const DVec pos = (v / voc) * simd::broadcast(static_cast<double>(cx.points - 1));
  const DVec pos_s = simd::select(ok & valid, pos, zero);
  // min(static_cast<int>(pos), n - 2): pos_s is in [0, n - 1), so the
  // int32 truncation and a double-domain min give the scalar row index
  // and its (double) exactly.
  const DVec n2 = simd::broadcast(static_cast<double>(cx.points - 2));
  DVec md = simd::to_double(simd::to_int(pos_s));
  md = simd::select(md > n2, n2, md);
  const IVec idx = slot * simd::broadcast_i(cx.points) + simd::to_int(md);
  const DVec p0 = simd::gather(cx.power, idx);
  const DVec p1 = simd::gather(cx.power, idx + simd::broadcast_i(1));
  const DVec t = pos_s - md;
  return simd::select(ok, p0 + t * (p1 - p0), zero);
}

/// One lockstep step i on the lanes in `act`; xeq = key_log(eq[i]).
template <Law kLaw>
FOCV_HILL_INLINE void tick_step(const GroupContext& cx, State& s, std::size_t i, double xeq,
                                MVec act, double decay) {
  const DVec zero = simd::broadcast(0.0);
  const DVec one = simd::broadcast(1.0);
  const double ti = cx.t[i];
  const double dt = cx.t[i + 1] - ti;
  const DVec dt_v = simd::broadcast(dt);

  // CurveCache::step_key: x = 32 ln(lux), the slot below it and the
  // float-rounded weight, certified from x ~ xoff + xeq (point 1
  // above). Dark lanes (lux < kDarkLux or NaN) keep x = 0; their slot
  // is clamped into the table and every read through it is voided by
  // `lit`.
  const DVec lux = s.scale * simd::broadcast(cx.eq[i]);
  const MVec lit = lux >= simd::broadcast(kDarkLux);
  const DVec xs = s.xoff + simd::broadcast(xeq);
  const DVec lo = xs - simd::broadcast(kKeyRadius);
  const DVec hi = xs + simd::broadcast(kKeyRadius);
  const DVec j_lo = simd::floor(lo);
  const DVec f_lo = simd::round_to_float(lo - j_lo);
  const DVec f_hi = simd::round_to_float(hi - simd::floor(hi));
  const MVec sure = (j_lo == simd::floor(hi)) & (f_lo == f_hi) &
                    (hi < simd::broadcast(kKeyLogBound));
  DVec jf = simd::select(lit, j_lo, zero);
  DVec frac = simd::select(lit, f_lo, zero);
  if (simd::any(lit & ~sure)) [[unlikely]] {
    // Certificate fallback: the scalar key on every lane of this step.
    const DVec x = simd::from_lanes([&](int l) {
      const double v = lux[l];
      return v >= kDarkLux ? kGrid * std::log(v) : 0.0;
    });
    jf = simd::floor(x);
    frac = simd::round_to_float(x - jf);
  }
  const DVec slot_d =
      simd::clamp(jf - simd::broadcast(static_cast<double>(cx.grid_lo)), zero,
                  simd::broadcast(static_cast<double>(cx.slots - 2)));
  const IVec slot = simd::to_int(slot_d);
  const IVec k3 = slot * simd::broadcast_i(3);

  // at_key's Pmpp and the ideal-tracker energy.
  const DVec pm0 = simd::gather(cx.slot_f + 1, k3);
  const DVec pm1 = simd::gather(cx.slot_f + 4, k3);
  const DVec pmpp = simd::select(lit, pm0 + frac * (pm1 - pm0), zero);
  s.ideal = simd::select(act, s.ideal + pmpp * dt_v, s.ideal);

  // Supply floor (lux < min_lux gates; a NaN lux does not).
  const MVec running = ~(lux < simd::broadcast(cx.min_lux));
  const MVec run = act & running;
  s.cold = simd::select(run & (s.cold < zero), simd::broadcast(ti), s.cold);

  // The controller's step(), sensing the previous tick's operating point.
  const MVec upd = run & (simd::broadcast(ti) >= s.ctl_next);
  s.ctl_next = simd::select(upd, simd::broadcast(ti + cx.update_period), s.ctl_next);
  const MVec has_prev = s.ctl_has_prev != zero;
  const DVec vmax = simd::broadcast(cx.max_voltage);
  const DVec step = simd::broadcast(cx.step);
  if constexpr (kLaw == Law::kGradientDescent) {
    const DVec v_boot = simd::clamp(s.ctl_v + step, zero, vmax);
    const DVec dv = s.prev_v - s.ctl_prev_v;
    const MVec stall = simd::abs(dv) < simd::broadcast(1e-9);
    const DVec direction = simd::select(s.ctl_v > simd::broadcast(0.5 * cx.max_voltage),
                                        simd::broadcast(-1.0), one);
    const DVec v_stall = simd::clamp(s.ctl_v + direction * step, zero, vmax);
    const DVec gradient = (s.prev_p - s.ctl_prev_p) / dv;
    const MVec anneal = (s.ctl_has_grad != zero) & ((gradient * s.ctl_prev_g) < zero);
    const DVec lr_min = simd::broadcast(cx.lr_min);
    const DVec decayed = s.ctl_rate * simd::broadcast(cx.lr_decay);
    // std::max(lr_min, decayed) = lr_min < decayed ? decayed : lr_min.
    const DVec lr = simd::select(anneal, simd::select(lr_min < decayed, decayed, lr_min),
                                 s.ctl_rate);
    const DVec bounded = simd::clamp(lr * gradient, simd::broadcast(-cx.max_step),
                                     simd::broadcast(cx.max_step));
    const DVec v_climb = simd::clamp(s.ctl_v + bounded, zero, vmax);
    const MVec climb = upd & has_prev & ~stall;
    s.ctl_v = simd::select(
        upd, simd::select(has_prev, simd::select(stall, v_stall, v_climb), v_boot), s.ctl_v);
    s.ctl_rate = simd::select(climb, lr, s.ctl_rate);
    s.ctl_prev_g = simd::select(climb, gradient, s.ctl_prev_g);
    s.ctl_has_grad = simd::select(climb, one, s.ctl_has_grad);
    s.ctl_prev_v = simd::select(upd, s.prev_v, s.ctl_prev_v);
  } else {
    const MVec climb = upd & has_prev;
    const MVec reverse = climb & (s.prev_p < s.ctl_prev_p);
    s.ctl_rate = simd::select(reverse, simd::broadcast(-1.0) * s.ctl_rate, s.ctl_rate);
    s.ctl_v = simd::select(climb, simd::clamp(s.ctl_v + s.ctl_rate * step, zero, vmax),
                           s.ctl_v);
  }
  s.ctl_prev_p = simd::select(upd, s.prev_p, s.ctl_prev_p);
  s.ctl_has_prev = simd::select(upd, one, s.ctl_has_prev);

  // power_at_key at the commanded voltage (zero while gated: pv_v is
  // then 0); disconnect_fraction is 0.
  const DVec pv_v = simd::select(run, s.ctl_v, zero);
  const MVec valid = lit & (pv_v > zero);
  DVec pv_p = zero;
  if (simd::any(valid)) {
    const DVec r0 = row_power(cx, slot, k3, pv_v, valid);
    const DVec r1 =
        row_power(cx, slot + simd::broadcast_i(1), k3 + simd::broadcast_i(3), pv_v, valid);
    pv_p = simd::select(valid, r0 + frac * (r1 - r0), zero);
  }
  const DVec oh = simd::broadcast(cx.overhead);
  s.over = simd::select(run, s.over + oh * dt_v, s.over);
  s.prev_p = simd::select(act, pv_p, s.prev_p);
  s.prev_v = simd::select(act, pv_v, s.prev_v);
  s.harv = simd::select(act, s.harv + pv_p * dt_v, s.harv);
  const DVec delivered = lanes::conv_lanes(cx.converter, pv_p, pv_v);
  s.deliv = simd::select(act, s.deliv + delivered * dt_v, s.deliv);

  // Store bookkeeping, then Supercapacitor::apply_power(delivered - drain, dt).
  const DVec drain0 = simd::select(running, oh, zero);
  const MVec usable = s.store_v >= simd::broadcast(cx.min_useful_voltage);
  const DVec drain = simd::select(usable, drain0 + s.load, drain0);
  s.served = simd::select(act & usable, s.served + s.load * dt_v, s.served);
  const MVec brown = act & ~usable;
  s.brown_t = simd::select(brown, s.brown_t + dt_v, s.brown_t);
  s.brown_n = simd::select(brown, s.brown_n + one, s.brown_n);
  DVec v = s.store_v;
  if (cx.self_discharge_resistance > 0.0) {
    v = simd::select(v > zero, v * simd::broadcast(decay), v);
  }
  const DVec half_cap = simd::broadcast(0.5 * cx.capacitance);
  const DVec e_before = (half_cap * v) * v;
  const DVec e_after = simd::clamp(e_before + (delivered - drain) * dt_v, zero,
                                   simd::broadcast(cx.max_energy));
  const DVec v_after =
      simd::sqrt((simd::broadcast(2.0) * e_after) / simd::broadcast(cx.capacitance));
  s.store_v = simd::select(act, v_after, s.store_v);
}

template <Law kLaw>
void run_group(const GroupContext& cx, LaneNode* const* nodes, std::size_t count) {
  // Lane l runs nodes[l]; spare lanes copy node 0 and never tick.
  Columns cols;
  std::size_t a[W];
  std::size_t b[W];
  for (int l = 0; l < W; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    node_to_column(*nodes[lu < count ? lu : 0], cols, l);
    a[l] = lu < count ? nodes[lu]->a : kDone;
    b[l] = lu < count ? nodes[lu]->b : kDone;
  }
  State s = load_state(cols);
  // Supercapacitor::apply_power memoises exp(-dt / tau) on the last dt.
  const double tau = cx.self_discharge_resistance * cx.capacitance;
  double decay_dt = 0.0;
  double decay = 1.0;

  std::size_t i = kDone;
  for (int l = 0; l < W; ++l) i = a[l] < i ? a[l] : i;
  while (i != kDone) {
    // The lanes whose span covers step i tick up to the next step where
    // a span ends or a waiting lane's span begins.
    std::size_t stop = kDone;
    bool live[W];
    bool any_live = false;
    for (int l = 0; l < W; ++l) {
      live[l] = a[l] <= i && i < b[l];
      any_live = any_live || live[l];
      const std::size_t edge = live[l] ? b[l] : a[l];
      if (edge > i && edge < stop) stop = edge;
    }
    if (!any_live) {
      i = stop;
      continue;
    }
    const MVec act = simd::from_lanes([&](int l) { return live[l] ? 1.0 : 0.0; }) !=
                     simd::broadcast(0.0);
    while (i < stop) {
      // One log per step for all lanes, taken ahead of the ticks so the
      // libm calls do not split the lane state's register chain.
      double xeq[kXeqBlock];
      const std::size_t n = stop - i < kXeqBlock ? stop - i : kXeqBlock;
      for (std::size_t k = 0; k < n; ++k) xeq[k] = key_log(cx.eq[i + k]);
      for (std::size_t k = 0; k < n; ++k, ++i) {
        const double dt = cx.t[i + 1] - cx.t[i];
        if (dt != decay_dt) {
          decay = std::exp(-dt / tau);
          decay_dt = dt;
        }
        tick_step<kLaw>(cx, s, i, xeq[k], act, decay);
      }
    }
    // Hand every lane whose span ends here back to its planner.
    store_state(s, cols);
    for (int l = 0; l < W; ++l) {
      if (!live[l] || b[l] != i) continue;
      LaneNode& n = *nodes[l];
      column_to_node(cols, l, n);
      cx.resume(n);
      a[l] = n.a;
      b[l] = n.b;
      node_to_column(n, cols, l);
    }
    s = load_state(cols);
    std::size_t next = kDone;
    for (int l = 0; l < W; ++l) {
      const std::size_t from = a[l] > i ? a[l] : (b[l] > i ? i : kDone);
      next = from < next ? from : next;
    }
    i = next;
  }
}

}  // namespace

template <>
void tick_lanes<W>(const GroupContext& cx, LaneNode* const* nodes, std::size_t count) {
  if (cx.law == Law::kGradientDescent) {
    run_group<Law::kGradientDescent>(cx, nodes, count);
  } else {
    run_group<Law::kPerturbObserve>(cx, nodes, count);
  }
}

}  // namespace focv::fleet::hill
