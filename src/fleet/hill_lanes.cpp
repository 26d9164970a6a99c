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
//     for all lanes, xeq = key_term(eq), and one per node when it is
//     set up, xoff = key_term(scale) (hill.cpp), and add them. With L
//     the libm log, assumed within 1 ulp, and every |32 ln| below the
//     grid's ceiling CurveCache::kGridHi = 512 (lux, eq and scale in
//     (e^-16, e^16)), the sum is within 2^-42 of the scalar x:
//       fl(scale * eq) moves ln by <= 2^-53         -> 2^-48 in x;
//       each of the three L calls errs by <= 2^-49  -> 3 * 2^-44;
//       the rounding of xoff + xeq (|x| < 512)      -> 2^-45.
//     CurveCache::certified_key keeps (floor(lo), float(lo - floor(lo)))
//     only when both ends of [lo, hi] = [x - 2^-40, x + 2^-40] give
//     the same pair (forming lo and hi rounds by <= 2^-45, so the
//     interval still holds the scalar x). floor, subtraction of a fixed
//     j and the float rounding are monotone, so every point between the
//     ends, the scalar x among them, gives that pair too. A lit lane
//     whose check fails (x within 2^-40 of a grid node or of a float
//     rounding tie: ~2.6e-4 of lit keys, mostly small weights) sends
//     its step to the scalar key, std::log(scale * eq) per lane. Dark
//     and NaN lanes keep x = 0, as before. tests/fleet/
//     hill_lanes_test.cpp runs the same certificate on doubles against
//     step_key over four days and 128 scales.
//  2. The same source for the rest. The controller's update, the
//     converter, the supercapacitor step and the P(V) row read are the
//     templates the scalar step(), BuckBoostConverter::output_power,
//     Supercapacitor::apply_power and CurveCache::table_power
//     instantiate on double/bool (common/step_laws.hpp), here on lanes
//     (lane_math.hpp); the row position divides by Voc, as table_power
//     does. The Voc/Pmpp reads keep CurveCache::at's expression trees.
//     This TU is compiled with -ffp-contract=off like the scalar ones,
//     and simd.hpp ops are per-lane IEEE ops.
//  3. Branches become selects that mirror std::clamp / std::max /
//     std::min in scalar comparison order, and every state update is
//     a select on the lane's mask (a choice of the shared templates
//     runs each side on its own mask): a lane that is waiting, running
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
#include <type_traits>

#include "common/simd.hpp"
#include "common/step_laws.hpp"
#include "fleet/hill_internal.hpp"
#include "fleet/lane_math.hpp"
#include "node/curve_cache.hpp"

namespace focv::fleet::hill {

namespace {

using simd::DVec;
using simd::IVec;
using simd::MVec;
using L = lanes::Lanes;
using SlotF = node::CurveTable::SlotF;

constexpr int W = simd::kLanes;
static_assert(W == 4 || W == 8, "hill_internal.hpp declares tick_lanes<4> and <8> only");

constexpr double kGrid = node::CurveCache::kGridNodesPerLogLux;
constexpr double kDarkLux = node::CurveCache::kDarkLux;
/// Steps whose key_term(eq) is taken ahead of their ticks, on the stack.
constexpr std::size_t kXeqBlock = 64;

#define FOCV_HILL_INLINE __attribute__((always_inline)) inline
/// Lambdas over lane state inline too (see FOCV_LAW_LAMBDA in step_laws.hpp).
#define FOCV_HILL_LAMBDA __attribute__((always_inline))

/// The lane state while it sits in vector registers, named as in
/// LaneNode. Only the group's law's controller state is live.
struct State {
  struct {
    DVec store_voltage, prev_power, prev_voltage, ideal_mpp_energy, harvested_energy,
        delivered_energy, overhead_energy, load_energy_served, brownout_time, coldstart_time;
  } tick;
  DVec brownout_steps;
  laws::GradDescState<DVec, MVec> graddesc;
  laws::PandoState<DVec, MVec> pando;
  DVec scale, xoff, load_w;
};

/// Calls f(k, field) on every lane field of a LaneNode or a State, k
/// counting from 0: the tick state, the law's controller state, then
/// the node's constants.
template <Law kLaw, class Node, class F>
FOCV_HILL_INLINE void for_each_field(Node& n, F&& f) {
  int k = 0;
  const auto g = [&](auto&... v) FOCV_HILL_LAMBDA { (f(k++, v), ...); };
  auto& tk = n.tick;
  g(tk.store_voltage, tk.prev_power, tk.prev_voltage, tk.ideal_mpp_energy, tk.harvested_energy,
    tk.delivered_energy, tk.overhead_energy, tk.load_energy_served, tk.brownout_time,
    tk.coldstart_time, n.brownout_steps);
  if constexpr (kLaw == Law::kGradientDescent) {
    auto& c = n.graddesc;
    g(c.voltage, c.lr, c.prev_power, c.prev_voltage, c.prev_gradient, c.next_update, c.has_prev,
      c.has_gradient);
  } else {
    auto& c = n.pando;
    g(c.voltage, c.direction, c.last_power, c.next_update, c.has_last_power);
  }
  g(n.scale, n.xoff, n.load_w);
}

/// Per-field lane columns: the lane state between vector registers and
/// the LaneNode records at span boundaries. Flags are 1.0 or 0.0.
constexpr int kFields = 22;  // 11 tick fields, up to 8 controller fields, 3 constants
struct Columns {
  alignas(64) double f[kFields][W];
};

template <Law kLaw>
void node_to_column(const LaneNode& n, Columns& c, int l) {
  for_each_field<kLaw>(n, [&](int k, auto v) { c.f[k][l] = static_cast<double>(v); });
}

template <Law kLaw>
void column_to_node(const Columns& c, int l, LaneNode& n) {
  for_each_field<kLaw>(
      n, [&](int k, auto& v) { v = static_cast<std::remove_reference_t<decltype(v)>>(c.f[k][l]); });
}

FOCV_HILL_INLINE void from_column(DVec& v, const double* c) { v = simd::load(c); }
FOCV_HILL_INLINE void from_column(MVec& v, const double* c) {
  v = simd::load(c) != simd::broadcast(0.0);
}
FOCV_HILL_INLINE void to_column(double* c, DVec v) { simd::store(c, v); }
FOCV_HILL_INLINE void to_column(double* c, MVec v) {
  simd::store(c, simd::select(v, simd::broadcast(1.0), simd::broadcast(0.0)));
}

template <Law kLaw>
FOCV_HILL_INLINE State load_state(const Columns& c) {
  State s{};
  for_each_field<kLaw>(s, [&](int k, auto& v) FOCV_HILL_LAMBDA { from_column(v, c.f[k]); });
  return s;
}

template <Law kLaw>
FOCV_HILL_INLINE void store_state(State& s, Columns& c) {
  for_each_field<kLaw>(s, [&](int k, auto& v) FOCV_HILL_LAMBDA { to_column(c.f[k], v); });
}

/// CurveCache::table_power on each lane's entry `slot`, zero where the
/// lane's v is at or past the entry's Voc. Positions of lanes outside
/// `valid` are routed to row 0 so every read stays in bounds.
FOCV_HILL_INLINE DVec row_power(const GroupContext& cx, IVec slot, DVec v, MVec valid) {
  const DVec zero = simd::broadcast(0.0);
  const DVec voc = L::gather(cx.slot_f, slot, &SlotF::voc);
  const MVec ok = v < voc;
  const DVec pos = (v / voc) * simd::broadcast(static_cast<double>(cx.points - 1));
  const DVec pos_s = simd::select(ok & valid, pos, zero);
  const DVec last = simd::broadcast(static_cast<double>(cx.points - 2));
  const DVec p = laws::pv_row_read<L>(cx.power, slot * simd::broadcast_i(cx.points), pos_s, last);
  return simd::select(ok, p, zero);
}

/// One lockstep step i on the lanes in `act`; xeq = key_term(eq[i]).
template <Law kLaw>
FOCV_HILL_INLINE void tick_step(const GroupContext& cx, State& s, std::size_t i, double xeq,
                                MVec act, double decay) {
  const DVec zero = simd::broadcast(0.0);
  const double ti = cx.t[i];
  const double dt = cx.t[i + 1] - ti;
  const DVec dt_v = simd::broadcast(dt);
  auto& tk = s.tick;

  // CurveCache::step_key: x = 32 ln(lux), the slot below it and the
  // float-rounded weight, certified from x ~ xoff + xeq (point 1
  // above). Dark lanes (lux < kDarkLux or NaN) keep x = 0; their slot
  // is clamped into the table and every read through it is voided by
  // `lit`.
  const DVec lux = s.scale * simd::broadcast(cx.eq[i]);
  const MVec lit = lux >= simd::broadcast(kDarkLux);
  const auto key = node::CurveCache::certified_key<L>(s.xoff, simd::broadcast(xeq));
  DVec jf = simd::select(lit, key.j, zero);
  DVec frac = simd::select(lit, key.frac, zero);
  if (simd::any(lit & ~key.sure)) [[unlikely]] {
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

  // at()'s Pmpp and the ideal-tracker energy.
  const DVec pm0 = L::gather(cx.slot_f, slot, &SlotF::pmpp);
  const DVec pm1 = L::gather(cx.slot_f + 1, slot, &SlotF::pmpp);
  const DVec pmpp = simd::select(lit, pm0 + frac * (pm1 - pm0), zero);
  tk.ideal_mpp_energy = simd::select(act, tk.ideal_mpp_energy + pmpp * dt_v, tk.ideal_mpp_energy);

  // Supply floor (lux < min_lux gates; a NaN lux does not).
  const MVec running = ~(lux < simd::broadcast(cx.min_lux));
  const MVec run = act & running;
  tk.coldstart_time =
      simd::select(run & (tk.coldstart_time < zero), simd::broadcast(ti), tk.coldstart_time);

  // The controller's step(), sensing the previous tick's operating point.
  DVec command;
  if constexpr (kLaw == Law::kGradientDescent) {
    laws::graddesc_step<L>(run, s.graddesc, cx.graddesc, simd::broadcast(ti), tk.prev_power,
                           tk.prev_voltage);
    command = s.graddesc.voltage;
  } else {
    laws::pando_step<L>(run, s.pando, cx.pando, simd::broadcast(ti), tk.prev_power);
    command = s.pando.voltage;
  }

  // power_at at the commanded voltage (zero while gated: pv_v is
  // then 0); disconnect_fraction is 0.
  const DVec pv_v = simd::select(run, command, zero);
  const MVec valid = lit & (pv_v > zero);
  DVec pv_p = zero;
  if (simd::any(valid)) {
    const DVec r0 = row_power(cx, slot, pv_v, valid);
    const DVec r1 = row_power(cx, slot + simd::broadcast_i(1), pv_v, valid);
    pv_p = simd::select(valid, r0 + frac * (r1 - r0), zero);
  }
  const DVec oh = simd::broadcast(cx.overhead);
  tk.overhead_energy = simd::select(run, tk.overhead_energy + oh * dt_v, tk.overhead_energy);
  tk.prev_power = simd::select(act, pv_p, tk.prev_power);
  tk.prev_voltage = simd::select(act, pv_v, tk.prev_voltage);
  tk.harvested_energy = simd::select(act, tk.harvested_energy + pv_p * dt_v, tk.harvested_energy);
  const DVec delivered = laws::buck_boost_output<L>(L::yes(), cx.converter, pv_p, pv_v);
  tk.delivered_energy =
      simd::select(act, tk.delivered_energy + delivered * dt_v, tk.delivered_energy);

  // Store bookkeeping, then Supercapacitor::apply_power(delivered - drain, dt).
  const DVec drain0 = simd::select(running, oh, zero);
  const MVec usable = tk.store_voltage >= simd::broadcast(cx.storage.min_useful_voltage);
  const DVec drain = simd::select(usable, drain0 + s.load_w, drain0);
  tk.load_energy_served =
      simd::select(act & usable, tk.load_energy_served + s.load_w * dt_v, tk.load_energy_served);
  const MVec brown = act & ~usable;
  tk.brownout_time = simd::select(brown, tk.brownout_time + dt_v, tk.brownout_time);
  s.brownout_steps = simd::select(brown, s.brownout_steps + simd::broadcast(1.0), s.brownout_steps);
  laws::supercap_step<L>(act, tk.store_voltage, delivered - drain, dt_v, simd::broadcast(decay),
                         cx.storage.self_discharge_resistance > 0.0, cx.storage.capacitance,
                         cx.max_energy);
}

template <Law kLaw>
void run_group(const GroupContext& cx, LaneNode* const* nodes, std::size_t count) {
  // Lane l runs nodes[l]; spare lanes copy node 0 and never tick.
  Columns cols;
  std::size_t a[W];
  std::size_t b[W];
  for (int l = 0; l < W; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    node_to_column<kLaw>(*nodes[lu < count ? lu : 0], cols, l);
    a[l] = lu < count ? nodes[lu]->a : kDone;
    b[l] = lu < count ? nodes[lu]->b : kDone;
  }
  State s = load_state<kLaw>(cols);
  // Supercapacitor::apply_power memoises exp(-dt / tau) on the last dt.
  const double tau = cx.storage.self_discharge_resistance * cx.storage.capacitance;
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
      for (std::size_t k = 0; k < n; ++k) xeq[k] = node::CurveCache::key_term(cx.eq[i + k]);
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
    store_state<kLaw>(s, cols);
    for (int l = 0; l < W; ++l) {
      if (!live[l] || b[l] != i) continue;
      LaneNode& n = *nodes[l];
      column_to_node<kLaw>(cols, l, n);
      cx.resume(n);
      a[l] = n.a;
      b[l] = n.b;
      node_to_column<kLaw>(n, cols, l);
    }
    s = load_state<kLaw>(cols);
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
