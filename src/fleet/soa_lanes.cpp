// Interval-major, lane-batched SoA sweep kernels.
//
// The scalar kernel (soa_scalar.cpp) walks the schedule once per node
// with a transient NodeState. This kernel flips the loop order: nodes
// of an axis run live in contiguous 64-byte-aligned per-field arrays,
// and blocks of W = simd::kLanes nodes advance through every interval
// of the flat schedule together — table-slot lookup, curve and P(V)
// gathers, the closed-form controller laws and the supercapacitor
// advance all run width-W, with per-node branches turned into bitwise
// selects. Tail blocks are padded with replicas of the last real node
// so no lane ever asks "am I real"; replica results are discarded at
// finalize.
//
// BYTE-IDENTITY ARGUMENT (vs run_axis_scalar, which the dispatcher and
// tests/fleet/soa_lanes_test.cpp hold it to):
//
//  1. Same expression trees. Every lane evaluates exactly the scalar
//     kernel's arithmetic — same association, same order, through the
//     shared helpers of soa_internal.hpp — and both TUs are compiled
//     with -ffp-contract=off, so no FMA contraction can fuse an
//     (a*b)+c differently in one kernel than the other. simd.hpp ops
//     are the per-lane IEEE scalar ops; there are no horizontal
//     reductions anywhere on the state path.
//  2. Branches become selects with exact identities. Divergent scalar
//     branches (running gate, droop dead/whole, converter guards,
//     table-edge clamps) are computed on all lanes and resolved with
//     bitwise select(), which is a pure bit blend — a masked-off lane
//     contributes exactly +0.0 to an accumulator, and every
//     accumulator here is non-negative with x + 0.0 == x bitwise, so
//     masked adds equal the scalar "skipped add". Values that scalar
//     control flow never computes (dark or dead lanes) are sanitized
//     before any float->int cast and then discarded by the selects.
//  3. Uniform branches stay branches. Per-interval facts (dark
//     segment, pre_frac >= 1, constant-light single-point quadrature)
//     and per-axis facts (droop, min_lux gate, table presence) are the
//     same for every lane, so they remain ordinary branches taken
//     identically to the scalar kernel.
//  4. Rare per-node work falls back to the shared scalar routine. A
//     lane that closed_form_ok() cannot clear (its store may cross
//     usable() inside the interval) keeps its pre-interval state (the
//     selects preserve it), then internal::advance_slow — the same
//     function the scalar kernel calls — replays that one node's
//     interval in lane order.
//  5. Reads are reads. A block whose lanes all resolved one table slot
//     (the common case: run_env sorts each axis run by illuminance
//     scale) loads that slot's Voc/Pmpp/1/Voc once and broadcasts it;
//     a block straddling two slots gathers per lane. Both hand every
//     lane the same double from the same table entry.
//  6. Fixed-order merges. Per-node accumulators live in per-node array
//     slots; nothing is summed across lanes. Reports are written per
//     member index exactly as the scalar kernel writes them.
//
// ISA: this one source is compiled once per lane width (see
// src/fleet/CMakeLists.txt), each object defining run_axis_lanes<W>
// for its own W = simd::kLanes. On x86-64 the W = 4 object is built
// with -mavx2 and the W = 8 object with -mavx512f -mavx512dq
// -mavx512vl -mavx512bw, so the table gathers lower to one vgatherdpd
// per lane vector instead of serial insert chains. The dispatcher
// (soa.cpp) probes the host once and runs the widest instance it can
// execute, falling back to the scalar kernel (same bytes, less
// throughput). Neither flag set enables FMA, matching
// -ffp-contract=off. The extern template declarations below keep this
// TU from emitting wide-ISA COMDAT copies of shared helpers that
// baseline TUs could link against.

#include "common/simd.hpp"
#include "fleet/lane_math.hpp"
#include "fleet/soa_internal.hpp"

// AlignedBuffer's members are instantiated baseline-compiled in
// soa_plan.cpp; calls from here inline or resolve to those symbols.
extern template class focv::AlignedBuffer<double>;
extern template class focv::AlignedBuffer<std::uint32_t>;

namespace focv::fleet::soa::internal {

namespace {

using simd::DVec;
using simd::IVec;
using simd::MVec;

constexpr int W = simd::kLanes;
static_assert(W == 4 || W == 8, "soa_internal.hpp declares run_axis_lanes<4> and <8> only");

#define FOCV_LANES_INLINE __attribute__((always_inline)) inline

/// slot_of() on W lanes: clamped table slots, interpolation fractions
/// and the lit mask. Dark lanes are sanitized to a finite in-range
/// coordinate before floor/cast; their slot is forced to 0 so gathers
/// stay in bounds, and the lit mask voids everything read through them.
/// `uniform` marks a block whose lanes all resolved the same slot — the
/// common case, since run_env sorts each axis run by illuminance scale.
struct SlotLanes {
  simd::IVec k;
  DVec f;
  MVec lit;
  bool uniform;
};

FOCV_LANES_INLINE SlotLanes slot_lanes(const DenseTables& tb, DVec x) {
  SlotLanes s;
  const DVec dark_x = simd::broadcast(kDarkX);
  s.lit = x >= dark_x;
  const DVec xs = simd::select(s.lit, x, dark_x);
  const DVec jf = simd::floor(xs);
  const DVec lo = simd::broadcast(static_cast<double>(tb.grid_lo));
  const DVec hi = simd::broadcast(static_cast<double>(tb.grid_lo + tb.slots - 2));
  DVec f = xs - jf;
  f = simd::select(jf < lo, simd::broadcast(0.0),
                   simd::select(jf > hi, simd::broadcast(1.0), f));
  const DVec jc = simd::clamp(jf, lo, hi);
  // jc and grid_lo are both integer-valued doubles, so jc - grid_lo is
  // exact and the int32 truncation equals the scalar kernel's
  // static_cast of the clamped slot. Dark lanes route to slot 0.
  const DVec kd = simd::select(s.lit, jc - lo, simd::broadcast(0.0));
  s.k = simd::to_int(kd);
  s.f = simd::select(s.lit, f, simd::broadcast(0.0));
  s.uniform = simd::uniform(s.k);
  return s;
}

/// Slot k's entry and its upper neighbour, read once for a uniform block.
FOCV_LANES_INLINE const DenseTables::SlotF* uniform_slot(const DenseTables& tb,
                                                         const SlotLanes& s) {
  return tb.slot_f.data() + static_cast<std::size_t>(s.k[0]);
}

struct CurveLanes {
  DVec voc;
  DVec pmpp;
};

/// curve_from() on W lanes: the two bracketing slot entries, lane-wide
/// interpolation, dark lanes voided to {0, 0}. A uniform block loads
/// the entries once and broadcasts them; otherwise they are gathered as
/// strided scalar fields off the first member (SlotF is 3 doubles
/// {voc, pmpp, inv_voc}). Either way every lane reads curve_from's
/// doubles of soa_internal.hpp.
FOCV_LANES_INLINE CurveLanes curve_lanes(const DenseTables& tb, const SlotLanes& s) {
  DVec voc0;
  DVec voc1;
  DVec pm0;
  DVec pm1;
  if (s.uniform) {
    const DenseTables::SlotF* e = uniform_slot(tb, s);
    voc0 = simd::broadcast(e[0].voc);
    voc1 = simd::broadcast(e[1].voc);
    pm0 = simd::broadcast(e[0].pmpp);
    pm1 = simd::broadcast(e[1].pmpp);
  } else {
    const double* fb = &tb.slot_f[0].voc;
    const IVec j = s.k * simd::broadcast_i(3);
    voc0 = simd::gather(fb, j);
    voc1 = simd::gather(fb, j + simd::broadcast_i(3));
    pm0 = simd::gather(fb, j + simd::broadcast_i(1));
    pm1 = simd::gather(fb, j + simd::broadcast_i(4));
  }
  const DVec zero = simd::broadcast(0.0);
  CurveLanes c;
  c.voc = simd::select(s.lit, voc0 + s.f * (voc1 - voc0), zero);
  c.pmpp = simd::select(s.lit, pm0 + s.f * (pm1 - pm0), zero);
  return c;
}

/// power_at() on W lanes: both bracketing row_power() interpolations
/// with the scalar guards (v <= 0, dark, rel >= 1) as selects. Row
/// positions of guarded-off lanes are routed to 0 before the int cast
/// so the gather indices are always in range.
FOCV_LANES_INLINE DVec power_lanes(const DenseTables& tb, const SlotLanes& s, DVec v) {
  const DVec zero = simd::broadcast(0.0);
  const DVec one = simd::broadcast(1.0);
  const MVec valid = s.lit & (v > zero);
  // Uniform early-out, the block analogue of power_at's v <= 0 / dark
  // guard: every lane's result is select()ed to zero anyway, so
  // skipping the gathers cannot change a byte.
  if (!simd::any(valid)) return zero;
  const int n = tb.points;
  const DVec nscale = simd::broadcast(static_cast<double>(n - 1));
  const DVec n2 = simd::broadcast(static_cast<double>(n - 2));
  DVec row0;
  DVec row1;
  for (int off = 0; off < 2; ++off) {
    const IVec ko = s.k + simd::broadcast_i(off);
    // SlotF::inv_voc: stride 3 doubles at field offset 2. (The power
    // rows below stay gathered even in a uniform block: their position
    // follows each lane's v, so a uniformity test there rarely passes
    // and its branch mispredicts.)
    const DVec inv =
        s.uniform ? simd::broadcast(uniform_slot(tb, s)[off].inv_voc)
                  : simd::gather(&tb.slot_f[0].voc,
                                 ko * simd::broadcast_i(3) + simd::broadcast_i(2));
    const DVec rel = v * inv;
    const MVec ok = rel < one;
    const DVec pos = rel * nscale;
    const DVec pos_s = simd::select(ok & valid, pos, zero);
    // min(static_cast<int>(pos_s), n - 2) as lane ops: pos_s is already
    // sanitized to [0, n-1), so int32 truncation + a double-domain min
    // reproduce the scalar row index and its (double)m exactly; the
    // re-truncation of the clamped double recovers the exact int index.
    const IVec mi = simd::to_int(pos_s);
    DVec mdv = simd::to_double(mi);
    mdv = simd::select(mdv > n2, n2, mdv);
    // Power rows are contiguous (idx = k*points + m); a dense table
    // big enough to overflow int32 lane indices would be >16 GiB, far
    // past what build_tables can produce.
    const IVec pidx = ko * simd::broadcast_i(n) + simd::to_int(mdv);
    const DVec pav = simd::gather(tb.power.data(), pidx);
    const DVec pbv = simd::gather(tb.power.data(), pidx + simd::broadcast_i(1));
    const DVec t = pos_s - mdv;
    const DVec interp = pav + t * (pbv - pav);
    const DVec r = simd::select(ok, interp, zero);
    if (off == 0) {
      row0 = r;
    } else {
      row1 = r;
    }
  }
  return simd::select(valid, row0 + s.f * (row1 - row0), zero);
}

}  // namespace

template <>
KernelTotals run_axis_lanes<W>(const EnvContext& cx, const AxisPlan& ax,
                               const sched::EdgeOverlay::Interval* ovs,
                               const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                               std::size_t count, std::vector<node::NodeReport>& reports) {
  const DenseTables& tb = *cx.tb;
  const power::BuckBoostConverter::Params& cp = cx.conv->params();
  const std::size_t blocks = (count + static_cast<std::size_t>(W) - 1) / static_cast<std::size_t>(W);
  const std::size_t padded = blocks * static_cast<std::size_t>(W);

  // Chunk state as resident per-field arrays (cache-line aligned, one
  // slot per lane). Tail lanes replicate the last real node.
  AlignedBuffer<double> a_scale(padded);
  AlignedBuffer<double> a_xoff(padded);
  AlignedBuffer<double> a_div(padded);
  AlignedBuffer<double> a_oh(padded);
  AlignedBuffer<double> a_loadw(padded);
  AlignedBuffer<double> a_e(padded);
  AlignedBuffer<double> a_ideal(padded);
  AlignedBuffer<double> a_harv(padded);
  AlignedBuffer<double> a_deliv(padded);
  AlignedBuffer<double> a_over(padded);
  AlignedBuffer<double> a_served(padded);
  AlignedBuffer<double> a_brownt(padded);
  AlignedBuffer<double> a_cold(padded);
  AlignedBuffer<std::uint32_t> a_bsteps(padded);
  AlignedBuffer<std::uint32_t> a_flips(padded);
  AlignedBuffer<std::uint32_t> a_slow(padded);
  for (std::size_t i = 0; i < padded; ++i) {
    const std::uint32_t node = members[std::min(i, count - 1)];
    const NodeState st = init_node(cx, draws[node], ax);
    a_scale[i] = st.scale;
    a_xoff[i] = st.xoff;
    a_div[i] = st.divider;
    a_oh[i] = st.oh;
    a_loadw[i] = st.load_w;
    a_e[i] = st.e;
    a_cold[i] = st.cold_t;
  }

  const double* width_arr = cx.width;
  const double* span_arr = cx.span;
  const double* mean_arr = cx.mean_u;
  const double* tstart_arr = cx.t_start;
  const double* xlo = cx.x_lo;
  const double* xhi = cx.x_hi;
  const double* dec_arr = cx.decay;
  const std::uint32_t* nstep_arr = cx.nsteps;
  const std::uint8_t* dark_arr = cx.dark;
  const std::size_t n_iv = cx.n_intervals;

  const bool sample_hold = ax.eval == AxisEval::kSampleHold;
  const double min_lux = ax.min_lux;
  const bool gate = min_lux > 0.0;
  const bool has_droop = ax.droop > 0.0;

  const DVec zero = simd::broadcast(0.0);
  const DVec one = simd::broadcast(1.0);
  const DVec half = simd::broadcast(0.5);
  const MVec true_v = zero == zero;
  const DVec tau_v = simd::broadcast(cx.tau);
  const DVec emax_v = simd::broadcast(cx.e_max);
  const DVec euse_v = simd::broadcast(cx.e_use);
  const DVec guard_v = simd::broadcast(kCrossingGuard);
  const DVec minlux_v = simd::broadcast(min_lux);
  // Sample-and-hold axis constants (unused lanes of the affine path).
  const DVec inoff_v = simd::broadcast(ax.in_off);
  const DVec vc_v = simd::broadcast(ax.val_const);
  const DVec thr_v = simd::broadcast(ax.threshold);
  const DVec droop_v = simd::broadcast(ax.droop);
  const DVec invalpha_v = simd::broadcast(1.0 / ax.alpha);
  const DVec invdroop_v = simd::broadcast(has_droop ? 1.0 / ax.droop : 0.0);
  const DVec period_v = simd::broadcast(ax.period);
  const DVec invperiod_v = simd::broadcast(sample_hold ? 1.0 / ax.period : 0.0);
  // Affine axis constants.
  const DVec affv_v = simd::broadcast(ax.aff_v);
  const DVec affk_v = simd::broadcast(ax.aff_k);
  const DVec affs1_v = simd::broadcast(ax.aff_s1);
  const DVec affs2_v = simd::broadcast(ax.aff_s2);
  const DVec affact_v = simd::broadcast(ax.aff_act);

  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * static_cast<std::size_t>(W);
    const DVec scale_v = simd::load(a_scale.data() + off);
    const DVec xoff_v = simd::load(a_xoff.data() + off);
    const DVec div_v = simd::load(a_div.data() + off);
    const DVec oh_v = simd::load(a_oh.data() + off);
    const DVec loadw_v = simd::load(a_loadw.data() + off);
    DVec e_v = simd::load(a_e.data() + off);
    DVec ideal_v = simd::load(a_ideal.data() + off);
    DVec harv_v = simd::load(a_harv.data() + off);
    DVec deliv_v = simd::load(a_deliv.data() + off);
    DVec over_v = simd::load(a_over.data() + off);
    DVec served_v = simd::load(a_served.data() + off);
    DVec brownt_v = simd::load(a_brownt.data() + off);
    DVec cold_v = simd::load(a_cold.data() + off);

    // Lane-wide closed-form supercap advance: the scalar kernel's
    // advance_span with the crossing test as a mask. Lanes that need
    // the slow step-split keep their pre-interval state through the
    // selects; the state is spilled, fixed per lane by the SAME
    // internal::advance_slow the scalar kernel calls, and reloaded.
    // (Kept fused with the table/eval pipeline: the advance is a
    // serial loop-carried chain through e_v, and interleaving it with
    // the independent per-interval table work lets the out-of-order
    // core hide its latency — a staged two-pass split measures ~35%
    // slower on the 10k micro case.)
    const auto advance = [&](std::uint32_t ii, DVec delivered,
                             DVec oh_drain) __attribute__((always_inline)) {
      const MVec usable = e_v >= euse_v;
      const DVec net = (delivered - oh_drain) - simd::select(usable, loadw_v, zero);
      const DVec e_inf = (half * net) * tau_v;
      const DVec z = e_inf + (e_v - e_inf) * simd::broadcast(dec_arr[ii]);
      const MVec fast = closed_form_ok(e_v, e_inf, z, euse_v, guard_v);
      const MVec healthy = fast & usable;
      const DVec len = simd::broadcast(span_arr[ii]);
      e_v = simd::select(fast, simd::clamp(z, zero, emax_v), e_v);
      served_v = served_v + simd::select(healthy, loadw_v * len, zero);
      const MVec brown = fast & ~usable;
      brownt_v = brownt_v + simd::select(brown, len, zero);
      // One reduction gates both rare paths: a lane outside
      // fast & usable is either browned out (bstep counters) or
      // may cross usable() (scalar step-split fallback).
      if (simd::all(healthy)) return;
      if (simd::any(brown)) {
        for (int l = 0; l < W; ++l) {
          if (brown.lane(l)) a_bsteps[off + static_cast<std::size_t>(l)] += nstep_arr[ii];
        }
      }
      if (!simd::all(fast)) {
        simd::store(a_e.data() + off, e_v);
        simd::store(a_served.data() + off, served_v);
        simd::store(a_brownt.data() + off, brownt_v);
        for (int l = 0; l < W; ++l) {
          if (fast.lane(l)) continue;
          const std::size_t i = off + static_cast<std::size_t>(l);
          advance_slow(cx, cx.ivs[ii], a_loadw[i], delivered[l], oh_drain[l], dec_arr[ii],
                       SlowRefs{a_e[i], a_served[i], a_brownt[i], a_bsteps[i], a_flips[i],
                                a_slow[i]});
        }
        e_v = simd::load(a_e.data() + off);
        served_v = simd::load(a_served.data() + off);
        brownt_v = simd::load(a_brownt.data() + off);
      }
    };

    for (std::uint32_t ii = 0; ii < n_iv; ++ii) {
      if (dark_arr[ii] != 0) {
        advance(ii, zero, zero);
        continue;
      }
      const DVec w = simd::broadcast(width_arr[ii]);
      const bool two_pt = xlo[ii] != xhi[ii];
      const SlotLanes s_lo = slot_lanes(tb, xoff_v + simd::broadcast(xlo[ii]));
      const CurveLanes c_lo = curve_lanes(tb, s_lo);
      SlotLanes s_hi = s_lo;
      CurveLanes c_hi = c_lo;
      if (two_pt) {
        s_hi = slot_lanes(tb, xoff_v + simd::broadcast(xhi[ii]));
        c_hi = curve_lanes(tb, s_hi);
      }
      ideal_v = ideal_v + (half * (c_lo.pmpp + c_hi.pmpp)) * w;
      const MVec running =
          gate ? (scale_v * simd::broadcast(mean_arr[ii])) >= minlux_v : true_v;
      cold_v = simd::select(running & (cold_v < zero), simd::broadcast(tstart_arr[ii]), cold_v);
      // Whole block gated off: the scalar kernel's per-node !running
      // path, hoisted to the block when it is unanimous. Every
      // accumulator below selects on `running`, so the skipped work
      // contributes nothing.
      if (gate && !simd::any(running)) {
        advance(ii, zero, zero);
        continue;
      }

      DVec p_lo;
      DVec d_lo;
      if (sample_hold) {
        const sched::EdgeOverlay::Interval& ov = ovs[ii];
        if (ov.pre_frac >= 1.0) {
          over_v = over_v + simd::select(running, oh_v * w, zero);
          advance(ii, zero, simd::select(running, oh_v, zero));
          continue;
        }
        const DVec hs = simd::broadcast(1.0 - ov.disc);
        const DVec ab = simd::broadcast(1.0 - ov.pre_frac);
        const DVec avglag_v = simd::broadcast(ov.avg_lag);
        const auto eval = [&](const CurveLanes& c, const SlotLanes& s, DVec* p_out,
                              DVec* d_out) __attribute__((always_inline)) {
          const DVec value0 = (c.voc + inoff_v) * div_v + vc_v;
          MVec live;
          DVec frac;
          DVec lag;
          if (has_droop) {
            const DVec lag_star = (value0 - thr_v) * invdroop_v;
            live = lag_star > zero;
            const MVec whole = lag_star >= period_v;
            frac = simd::select(whole, one, lag_star * invperiod_v);
            lag = simd::select(whole, avglag_v, half * lag_star);
          } else {
            live = value0 >= thr_v;
            frac = one;
            lag = zero;
          }
          // All lanes below the ACTIVE threshold: the scalar eval's
          // early return, unanimous. Both outputs are select()ed on
          // `live`, so the skipped power/converter work is all zeros.
          if (!simd::any(live)) {
            *p_out = zero;
            *d_out = zero;
            return;
          }
          const DVec v = (value0 - droop_v * lag) * invalpha_v;
          const DVec act = ab * frac;
          const DVec p_full = power_lanes(tb, s, v) * hs;
          *p_out = simd::select(live, p_full * act, zero);
          *d_out = simd::select(live, lanes::conv_lanes(cp, p_full, v) * act, zero);
        };
        eval(c_lo, s_lo, &p_lo, &d_lo);
        DVec p_hi = p_lo;
        DVec d_hi = d_lo;
        if (two_pt) eval(c_hi, s_hi, &p_hi, &d_hi);
        p_lo = half * (p_lo + p_hi);
        d_lo = half * (d_lo + d_hi);
      } else {
        const auto eval = [&](const CurveLanes& c, const SlotLanes& s, DVec* p_out,
                              DVec* d_out) __attribute__((always_inline)) {
          const DVec v =
              ax.aff_const ? affv_v : affk_v * ((c.voc * affs1_v) * affs2_v);
          const DVec p = power_lanes(tb, s, v) * affact_v;
          *p_out = p;
          *d_out = lanes::conv_lanes(cp, p, v);
        };
        eval(c_lo, s_lo, &p_lo, &d_lo);
        DVec p_hi = p_lo;
        DVec d_hi = d_lo;
        if (two_pt) eval(c_hi, s_hi, &p_hi, &d_hi);
        p_lo = half * (p_lo + p_hi);
        d_lo = half * (d_lo + d_hi);
      }
      // p_lo/d_lo now hold the quadrature means p_bar/d_bar.
      harv_v = harv_v + simd::select(running, p_lo * w, zero);
      deliv_v = deliv_v + simd::select(running, d_lo * w, zero);
      over_v = over_v + simd::select(running, oh_v * w, zero);
      advance(ii, simd::select(running, d_lo, zero), simd::select(running, oh_v, zero));
    }

    simd::store(a_e.data() + off, e_v);
    simd::store(a_ideal.data() + off, ideal_v);
    simd::store(a_harv.data() + off, harv_v);
    simd::store(a_deliv.data() + off, deliv_v);
    simd::store(a_over.data() + off, over_v);
    simd::store(a_served.data() + off, served_v);
    simd::store(a_brownt.data() + off, brownt_v);
    simd::store(a_cold.data() + off, cold_v);
  }

  KernelTotals totals;
  for (std::size_t i = 0; i < count; ++i) {
    NodeState st;
    st.e = a_e[i];
    st.ideal = a_ideal[i];
    st.harv = a_harv[i];
    st.deliv = a_deliv[i];
    st.over = a_over[i];
    st.served = a_served[i];
    st.brown_t = a_brownt[i];
    st.cold_t = a_cold[i];
    st.brown_steps = a_bsteps[i];
    st.flips = a_flips[i];
    st.slow = a_slow[i];
    finalize_node(cx, st, reports[members[i]]);
    totals.flips += a_flips[i];
    totals.slow += a_slow[i];
  }
  return totals;
}

}  // namespace focv::fleet::soa::internal
