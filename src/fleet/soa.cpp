// SoA engine dispatch: group an env's members into per-axis runs, build
// the flat EnvContext the kernels read, and hand each run to the
// interval-major lane kernel (soa_lanes.cpp) or the node-major scalar
// kernel (soa_scalar.cpp). Both instantiate the one interval body of
// soa_internal.hpp, so the choice never changes a report byte
// (tests/fleet/soa_lanes_test.cpp) and rests only on what the run can
// observe: kPrototype axes (virtual step()) run scalar, and so does an
// environment whose table has fewer than two slots; every other axis
// runs the widest lane instance the host executes (8 lanes on AVX-512
// x86-64, 4 on AVX2), or scalar on pre-AVX2 x86-64 hosts.

#include "fleet/soa.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "common/require.hpp"
#include "fleet/soa_internal.hpp"
#include "obs/obs.hpp"

namespace focv::fleet::soa {

namespace internal {

// Lives in this baseline-compiled TU (not soa_lanes.cpp) so probing for
// the ISA never itself executes wide-ISA code. The probe holds for the
// vector-extension and the portable lowering alike: both objects are
// compiled with the ISA flags, so either may contain AVX2/AVX-512 code.
bool lanes_runnable(int width) {
  switch (width) {
    case 4:
#if defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return true;
#endif
    case 8:
#if FOCV_FLEET_LANES8
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 && __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
    default:
      return false;
  }
}

const char* lanes_requirement(int width) {
  switch (width) {
    case 4:
      return "AVX2 (x86-64)";
    case 8:
      return "AVX-512 F/DQ/VL/BW (x86-64 builds only)";
    default:
      return "a width soa_lanes.cpp is not built at";
  }
}

namespace {
/// -1: no pin, lanes_width() reports the probe.
std::atomic<int> pinned_width{-1};
}  // namespace

int lanes_width() {
  const int pinned = pinned_width.load(std::memory_order_relaxed);
  if (pinned >= 0) return pinned;
  static const int probed = [] {
    int widest = 0;
    for (const int w : kLaneWidths) {
      if (lanes_runnable(w)) widest = w;
    }
    return widest;
  }();
  return probed;
}

ScopedLanesWidth::ScopedLanesWidth(int width)
    : previous_(pinned_width.load(std::memory_order_relaxed)) {
  require(width == 0 || lanes_runnable(width),
          "ScopedLanesWidth: this host cannot run that lane width");
  pinned_width.store(width, std::memory_order_relaxed);
}

ScopedLanesWidth::~ScopedLanesWidth() { pinned_width.store(previous_, std::memory_order_relaxed); }

}  // namespace internal

namespace {

void run_env(const SoaPlan& plan, const EnvPlan& env, const FleetSpec& spec,
             const std::vector<NodeDraw>& draws, const std::vector<std::uint32_t>& mem,
             const std::vector<std::unique_ptr<mppt::MpptController>>& clones,
             std::vector<node::NodeReport>& reports) {
  const std::size_t m = mem.size();

  // Group same-axis nodes contiguously (stable within an axis): each
  // kernel then runs one specialised pass per axis run with the axis
  // constants hoisted. A counting sort keeps this O(members) — a
  // comparison sort here shows up at whole-fleet scale. Per-node
  // results are independent of iteration order, so the grouping cannot
  // change a single report byte.
  const std::size_t n_axes = plan.axes.size();
  std::vector<std::size_t> axis_count(n_axes, 0);
  for (const std::uint32_t node : mem) {
    ++axis_count[static_cast<std::size_t>(draws[node].policy_index)];
  }
  struct AxisRun {
    std::size_t lo = 0, hi = 0;
    std::uint32_t axis = 0;
  };
  std::vector<AxisRun> runs;
  std::vector<std::size_t> cursor(n_axes, 0);
  std::size_t offset = 0;
  for (std::size_t a = 0; a < n_axes; ++a) {
    cursor[a] = offset;
    if (axis_count[a] > 0) {
      runs.push_back({offset, offset + axis_count[a], static_cast<std::uint32_t>(a)});
    }
    offset += axis_count[a];
  }
  std::vector<std::uint32_t> members(m);
  for (const std::uint32_t node : mem) {
    members[cursor[static_cast<std::size_t>(draws[node].policy_index)]++] = node;
  }
  // Within an axis, order nodes by illuminance scale: a node's day
  // touches the table rows around its own log-lux offset, so adjacent
  // scales revisit the same rows while they are still L1-resident
  // instead of spraying lookups across the whole exported span — and
  // the lane kernel's width-W blocks then gather from near-identical
  // slots. (Deterministic key with an index tie-break; reports are
  // written by member index, so evaluation order is invisible in the
  // output.)
  for (const AxisRun& run : runs) {
    std::sort(members.begin() + static_cast<std::ptrdiff_t>(run.lo),
              members.begin() + static_cast<std::ptrdiff_t>(run.hi),
              [&](std::uint32_t a, std::uint32_t b) {
                const double ka = draws[a].attenuation * draws[a].cell_factor;
                const double kb = draws[b].attenuation * draws[b].cell_factor;
                if (ka != kb) return ka < kb;
                return a < b;
              });
  }

  internal::EnvContext cx;
  cx.tb = &env.tables;
  cx.conv = &spec.base.converter;
  cx.t = env.time->data();
  cx.ivs = env.schedule.intervals.data();
  cx.n_intervals = env.schedule.intervals.size();
  cx.width = env.width.data();
  cx.span = env.span.data();
  cx.mean_u = env.mean_u.data();
  cx.t_start = env.t_start.data();
  cx.x_lo = env.x_lo.data();
  cx.x_hi = env.x_hi.data();
  cx.decay = env.decay.data();
  cx.nsteps = env.nsteps.data();
  cx.dark = env.schedule.interval_dark.data();
  cx.inv_cap2 = 2.0 / plan.capacitance;
  cx.tau = plan.tau;
  cx.e_max = plan.max_energy;
  cx.e_use = plan.min_useful_energy;
  cx.e_init = 0.5 * plan.capacitance * plan.initial_voltage * plan.initial_voltage;
  cx.lux_scale = spec.base.lux_scale;
  const power::WsnLoad::Params& lp = spec.base.load;
  cx.burst_j = lp.sense_power * lp.sense_duration + lp.tx_power * lp.tx_duration;
  cx.sleep_power = lp.sleep_power;
  cx.duration = env.duration;
  cx.events_base = static_cast<std::uint64_t>(env.schedule.segments.size()) +
                   static_cast<std::uint64_t>(env.schedule.intervals.size());

  // tables.slots >= 2 guards the degenerate always-dark env, where the
  // lane kernel's in-bounds gather invariant has no table to stand on
  // (the scalar kernel reads every point dark). 0 = scalar.
  const int lanes = env.tables.slots >= 2 ? internal::lanes_width() : 0;

  for (const AxisRun& run : runs) {
    const AxisPlan& ax = plan.axes[run.axis];
    const bool obs_on = obs::enabled();
    std::optional<obs::Tracer::Span> axis_span;
    if (obs_on) axis_span.emplace(obs::tracer(), "soa_axis_run", "fleet");

    const sched::EdgeOverlay::Interval* ovs =
        ax.eval == AxisEval::kSampleHold
            ? env.overlays[static_cast<std::size_t>(ax.focv_overlay)].intervals.data()
            : nullptr;
    const std::uint32_t* run_members = members.data() + run.lo;
    const std::size_t count = run.hi - run.lo;
    const int width = ax.eval != AxisEval::kPrototype ? lanes : 0;
    internal::KernelTotals totals;
    switch (width) {
#if FOCV_FLEET_LANES8
      case 8:
        totals = internal::run_axis_lanes<8>(cx, ax, ovs, draws, run_members, count, reports);
        break;
#endif
      case 4:
        totals = internal::run_axis_lanes<4>(cx, ax, ovs, draws, run_members, count, reports);
        break;
      default:
        totals = internal::run_axis_scalar(cx, ax, ovs, draws, run_members, count,
                                           clones[run.axis].get(), reports);
    }

    if (obs_on) {
      static const obs::CounterId nodes_id = obs::metrics().counter("fleet.soa.nodes_swept");
      static const obs::CounterId ivs_id = obs::metrics().counter("fleet.soa.intervals_swept");
      static const obs::CounterId slow_id = obs::metrics().counter("fleet.soa.slow_advances");
      static const obs::CounterId flips_id = obs::metrics().counter("fleet.soa.store_flips");
      const double nodes = static_cast<double>(count);
      const double intervals = static_cast<double>(env.schedule.intervals.size());
      obs::metrics().add(nodes_id, nodes);
      obs::metrics().add(ivs_id, nodes * intervals);
      obs::metrics().add(slow_id, static_cast<double>(totals.slow));
      obs::metrics().add(flips_id, static_cast<double>(totals.flips));
      axis_span->arg("axis", static_cast<double>(run.axis));
      axis_span->arg("law", ax.law == mppt::MacroLaw::kSampleHold ? "sample_hold" : "memoryless");
      axis_span->arg("kernel", width != 0 ? "lanes" : "scalar");
      axis_span->arg("lanes", static_cast<double>(width != 0 ? width : 1));
      axis_span->arg("nodes", nodes);
      axis_span->arg("intervals", intervals);
      axis_span->arg("slow_advances", static_cast<double>(totals.slow));
      axis_span->arg("store_flips", static_cast<double>(totals.flips));
    }
  }
}

}  // namespace

void run_batch(const SoaPlan& plan, const FleetSpec& spec, const std::vector<NodeDraw>& draws,
               const std::vector<std::uint32_t>& members,
               std::vector<node::NodeReport>& reports) {
  if (members.empty()) return;
  // One clone per generic-memoryless axis per call: kMemoryless step()
  // is pure, so a single reset instance serves every node
  // deterministically. Closed-form axes (sample/hold, affine) never
  // touch a controller object.
  std::vector<std::unique_ptr<mppt::MpptController>> clones(plan.axes.size());
  for (std::size_t a = 0; a < plan.axes.size(); ++a) {
    if (plan.axes[a].batch && plan.axes[a].eval == AxisEval::kPrototype &&
        plan.axes[a].proto != nullptr) {
      clones[a] = plan.axes[a].proto->clone();
      clones[a]->reset();
    }
  }
  std::vector<std::vector<std::uint32_t>> by_env(plan.envs.size());
  for (const std::uint32_t k : members) {
    require(draws[k].env_index < plan.envs.size(), "soa::run_batch: draw/plan env mismatch");
    require(plan.axes[draws[k].policy_index].batch,
            "soa::run_batch: member's axis is not batchable");
    by_env[draws[k].env_index].push_back(k);
  }
  for (std::size_t e = 0; e < plan.envs.size(); ++e) {
    if (by_env[e].empty()) continue;
    run_env(plan, plan.envs[e], spec, draws, by_env[e], clones, reports);
  }
}

}  // namespace focv::fleet::soa
