// Interval-major, lane-batched SoA sweep: the interval body of
// soa_internal.hpp instantiated on W = simd::kLanes lanes.
//
// The scalar kernel (soa_scalar.cpp) walks the schedule once per node.
// This kernel flips the loop order: the nodes of an axis run live in
// cache-line-aligned per-field columns, and blocks of W nodes advance
// through every interval together. Tail blocks are padded with replicas
// of the last real node, discarded at finalize. Nothing is summed
// across lanes, and reports are written per member index.
//
// ISA: this one source is compiled once per lane width
// (src/fleet/CMakeLists.txt), each object defining run_axis_lanes<W>
// for its own W: W = 4 with -mavx2 and W = 8 with -mavx512f -mavx512dq
// -mavx512vl -mavx512bw on x86-64, so the table gathers lower to one
// vgatherdpd per lane vector. Neither flag set enables FMA, matching
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

using lanes::Lanes;
using simd::DVec;

constexpr int W = simd::kLanes;
static_assert(W == 4 || W == 8, "soa_internal.hpp declares run_axis_lanes<4> and <8> only");

/// Per-lane state, one aligned column per stored field, and the slow
/// advance's counters.
struct Columns {
  SweepState<AlignedBuffer<double>> state;
  AlignedBuffer<std::uint32_t> brown_steps, flips, slow;
};

/// The lane kernel's store for the block at lane `off`: spilled fields
/// go to their columns, and lane l's slow-advance fields are its column
/// slots.
struct BlockSpill {
  Columns& cols;
  std::size_t off;
  FOCV_SWEEP_INLINE void store(const SweepState<DVec>& st) const {
    simd::store(cols.state.e.data() + off, st.e);
    simd::store(cols.state.served.data() + off, st.served);
    simd::store(cols.state.brown_t.data() + off, st.brown_t);
  }
  FOCV_SWEEP_INLINE void load(SweepState<DVec>& st) const {
    st.e = simd::load(cols.state.e.data() + off);
    st.served = simd::load(cols.state.served.data() + off);
    st.brown_t = simd::load(cols.state.brown_t.data() + off);
  }
  FOCV_SWEEP_INLINE SlowRefs refs(int l) const {
    const std::size_t i = off + static_cast<std::size_t>(l);
    return SlowRefs{cols.state.e[i],      cols.state.served[i], cols.state.brown_t[i],
                    cols.brown_steps[i], cols.flips[i],        cols.slow[i]};
  }
};

}  // namespace

template <>
KernelTotals run_axis_lanes<W>(const EnvContext& cx, const AxisPlan& ax,
                               const sched::EdgeOverlay::Interval* ovs,
                               const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                               std::size_t count, std::vector<node::NodeReport>& reports) {
  constexpr std::size_t kW = W;
  const std::size_t padded = (count + kW - 1) / kW * kW;
  Columns cols;
  for_each_field([&](AlignedBuffer<double>& column) { column.assign(padded); }, cols.state);
  cols.brown_steps.assign(padded);
  cols.flips.assign(padded);
  cols.slow.assign(padded);
  for (std::size_t i = 0; i < padded; ++i) {
    NodeState st = init_node(cx, draws[members[std::min(i, count - 1)]], ax);
    for_each_field([&](AlignedBuffer<double>& column, double v) { column[i] = v; }, cols.state, st);
  }

  const Sweep<Lanes> sw(cx, ax);
  const auto sweep = [&](const auto& law) FOCV_SWEEP_LAMBDA {
    for (std::size_t off = 0; off < padded; off += kW) {
      SweepState<DVec> st;
      for_each_field(
          [&](const AlignedBuffer<double>& column, DVec& v)
              FOCV_SWEEP_LAMBDA { v = simd::load(column.data() + off); },
          cols.state, st);
      BlockSpill spill{cols, off};
      sweep_day(sw, law, st, spill);
      for_each_field(
          [&](AlignedBuffer<double>& column, DVec v)
              FOCV_SWEEP_LAMBDA { simd::store(column.data() + off, v); },
          cols.state, st);
    }
  };
  if (ax.eval == AxisEval::kSampleHold) {
    sweep(SampleHoldLaw<Lanes>(ax, ovs));
  } else {
    sweep(AffineLaw<Lanes>(ax));
  }

  KernelTotals totals;
  for (std::size_t i = 0; i < count; ++i) {
    NodeState st;
    for_each_field([&](const AlignedBuffer<double>& column, double& v) { v = column[i]; },
                   cols.state, st);
    st.brown_steps = cols.brown_steps[i];
    st.flips = cols.flips[i];
    st.slow = cols.slow[i];
    finalize_node(cx, st, reports[members[i]]);
    totals.flips += st.flips;
    totals.slow += st.slow;
  }
  return totals;
}

}  // namespace focv::fleet::soa::internal
