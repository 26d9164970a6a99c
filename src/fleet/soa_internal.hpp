// Internals shared by the SoA fleet engine's translation units:
//
//   soa_plan.cpp    — plan construction (tables, schedules, axis forms)
//   soa_scalar.cpp  — node-major scalar sweep kernels (the reference)
//   soa_lanes.cpp   — interval-major width-W lane kernels (one source,
//                     one object per lane width)
//   soa.cpp         — run_batch dispatch, axis grouping, telemetry
//
// Everything here is arithmetic both kernels must execute IDENTICALLY:
// table slot resolution, dense-table reads, the interpolated P(V)
// lookup, per-node init/finalize, and the slow usable()-crossing store
// advance. The byte-identity contract between the kernels rests on the
// two kernel TUs inlining these exact expression trees (both TUs are
// compiled with -ffp-contract=off so no FMA contraction can split
// them).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "fleet/soa.hpp"
#include "node/harvester_node.hpp"
#include "power/converter.hpp"

namespace focv::fleet::soa::internal {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kGrid = node::CurveCache::kGridNodesPerLogLux;

/// Grid coordinate below which the cell is dark (x = 32 ln lux).
/// Namespace-scope so the hot loops read a plain double instead of
/// re-checking a function-local static's init guard on every lookup.
inline const double kDarkX = kGrid * std::log(node::CurveCache::kDarkLux);

struct Curve {
  double voc = 0.0;
  double pmpp = 0.0;
};

/// Table slot of grid coordinate x, clamped into the exported span
/// (nodes beyond the +-6 sigma export margin read the edge entries).
struct Slot {
  std::size_t k = 0;
  double f = 0.0;
  bool dark = true;
};

inline Slot slot_of(const DenseTables& tb, double x) {
  Slot s;
  if (x < kDarkX || tb.slots < 2) return s;
  s.dark = false;
  long j = static_cast<long>(std::floor(x));
  const long j_hi = tb.grid_lo + tb.slots - 2;
  if (j < tb.grid_lo) {
    j = tb.grid_lo;
    s.f = 0.0;
  } else if (j > j_hi) {
    j = j_hi;
    s.f = 1.0;
  } else {
    s.f = x - static_cast<double>(j);
  }
  s.k = static_cast<std::size_t>(j - tb.grid_lo);
  return s;
}

inline Curve curve_from(const DenseTables& tb, const Slot& s) {
  Curve c;
  if (s.dark) return c;
  const DenseTables::SlotF& e0 = tb.slot_f[s.k];
  const DenseTables::SlotF& e1 = tb.slot_f[s.k + 1];
  c.voc = e0.voc + s.f * (e1.voc - e0.voc);
  c.pmpp = e0.pmpp + s.f * (e1.pmpp - e0.pmpp);
  return c;
}

/// CurveCache::table_power on one exported row. `rel = v / Voc(row)` via
/// the precomputed reciprocal — the only difference from the cache's own
/// arithmetic is mul-by-reciprocal instead of divide, well inside the
/// engine's 0.1 % contract.
inline double row_power(const DenseTables& tb, std::size_t k, double v) {
  const double rel = v * tb.slot_f[k].inv_voc;
  if (rel >= 1.0) return 0.0;
  const int n = tb.points;
  const double pos = rel * static_cast<double>(n - 1);
  const int m = std::min(static_cast<int>(pos), n - 2);
  const double t = pos - static_cast<double>(m);
  const std::size_t idx = k * static_cast<std::size_t>(n) + static_cast<std::size_t>(m);
  const double p0 = tb.power[idx];
  const double p1 = tb.power[idx + 1];
  return p0 + t * (p1 - p0);
}

/// CurveCache::power_at(LuxKey, v) on an already-resolved slot (the engine
/// resolves each quadrature point's slot once and reuses it for the
/// Voc/Pmpp read and every P(V) lookup).
inline double power_at(const DenseTables& tb, const Slot& s, double v) {
  if (v <= 0.0 || s.dark) return 0.0;
  const double p0 = row_power(tb, s.k, v);
  const double p1 = row_power(tb, s.k + 1, v);
  return p0 + s.f * (p1 - p0);
}

/// Per-node control/storage state and accumulators. The scalar kernel
/// keeps one instance register-resident for a node's whole day; the
/// lane kernel scatters/gathers the same fields through its aligned
/// per-field arrays so init and finalize stay one shared code path.
/// `e` carries the supercapacitor ENERGY (the voltage is monotonic in
/// it, so the usable() gate compares energies and the voltage is only
/// materialised where a controller senses it).
struct NodeState {
  double scale = 0.0, xoff = 0.0, divider = 0.0, oh = 0.0, load_w = 0.0, e = 0.0;
  double prev_p = 0.0, prev_v = 0.0;
  double ideal = 0.0, harv = 0.0, deliv = 0.0, over = 0.0, served = 0.0, brown_t = 0.0;
  double cold_t = -1.0;
  std::uint32_t brown_steps = 0, flips = 0;
  std::uint32_t slow = 0;  ///< intervals replayed step-by-step (telemetry only)
};

/// Everything an axis-run kernel needs about its environment and the
/// shared storage model, resolved to plain pointers/doubles once per
/// run_env call so the kernels touch no plan objects on the hot path.
struct EnvContext {
  const DenseTables* tb = nullptr;
  const power::BuckBoostConverter* conv = nullptr;
  const double* t = nullptr;  ///< trace step boundaries
  const sched::BatchInterval* ivs = nullptr;
  const sched::BatchSegment* segments = nullptr;
  std::size_t n_segments = 0;
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

/// The store fields the slow advance mutates — plain references so the
/// scalar kernel passes NodeState members and the lane kernel passes
/// its array slots; either way the SAME function body runs, so a lane
/// that crosses usable() is bit-identical to its scalar twin.
struct SlowRefs {
  double& e;
  double& served;
  double& brown_t;
  std::uint32_t& brown_steps;
  std::uint32_t& flips;
  std::uint32_t& slow;
};

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
/// One body for both kernels: V is double (scalar kernel, result
/// converts to bool) or simd::DVec (lane kernel, result is the
/// per-lane mask); `guard` is kCrossingGuard in V.
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

/// What a kernel reports back to the dispatcher for telemetry.
struct KernelTotals {
  std::uint64_t flips = 0;
  std::uint64_t slow = 0;
};

/// Node-major scalar sweep over one axis run (members[0..count)):
/// the PR 7 reference path, handling every AxisEval. `proto` is the
/// run's cloned controller for kPrototype axes (unused otherwise).
KernelTotals run_axis_scalar(const EnvContext& cx, const AxisPlan& ax,
                             const sched::EdgeOverlay::Interval* ovs,
                             const std::vector<NodeDraw>& draws, const std::uint32_t* members,
                             std::size_t count, mppt::MpptController* proto,
                             std::vector<node::NodeReport>& reports);

/// Interval-major lane-batched sweep over one axis run, W lanes wide.
/// Only valid for closed-form axes (eval != kPrototype). Byte-identical
/// to run_axis_scalar by construction (see soa_lanes.cpp).
///
/// soa_lanes.cpp is one source compiled once per width, each object
/// defining its own specialisation: W = 4 everywhere (on x86-64 with a
/// TU-level -mavx2) and, on x86-64, W = 8 with -mavx512f -mavx512dq
/// -mavx512vl -mavx512bw (src/fleet/CMakeLists.txt). TU-level flags
/// make the simd.hpp intrinsics usable everywhere in the kernel,
/// including inside lambdas — a per-function target attribute cannot
/// reach those and blocks always_inline helpers. Two guards keep the
/// wide-ISA code from leaking into baseline TUs through COMDAT
/// selection: every simd.hpp helper is always_inline (no out-of-line
/// copies exist), and the lanes TU suppresses its AlignedBuffer
/// instantiations with extern template — the baseline definitions come
/// from soa_plan.cpp. simd.hpp's per-width inline namespace keeps the
/// two widths' DVec instantiations (closed_form_ok) apart. The entry
/// points exchange only scalar/pointer/reference arguments, so the
/// cross-TU call ABI is ISA-independent, and the dispatcher only calls
/// an instance lanes_runnable() admits.
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
