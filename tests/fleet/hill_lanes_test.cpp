// Byte-identity contract of the hill-climber lockstep lanes
// (fleet/hill.hpp, fleet/hill_lanes.cpp): a `graddesc` or `pando` node
// that rides a lane must end with exactly the NodeReport the per-node
// path computes, field for field in hexfloat, at every lane width this
// host runs, every group size and every lane position; and a fleet run
// with the lanes must export the bytes of one with the lanes pinned off.
// The lanes' certified curve keys are checked on their own against
// CurveCache::step_key over whole days, and a roster whose lanes take
// the certificate's fallback is held to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "env/profiles.hpp"
#include "fleet/detail.hpp"
#include "fleet/fleet.hpp"
#include "fleet/hill.hpp"
#include "fleet/hill_internal.hpp"
#include "fleet/soa.hpp"
#include "fleet/soa_internal.hpp"
#include "node/curve_cache.hpp"
#include "node/harvester_node.hpp"
#include "pv/cell_library.hpp"
#include "sched/prepared_trace.hpp"

namespace focv::fleet {
namespace {

using TracePtr = std::shared_ptr<const env::LightTrace>;

struct Days {
  TracePtr office, corridor, outdoor, sunday;
};

const Days& days() {
  static const Days d = [] {
    Days out;
    out.office = std::make_shared<const env::LightTrace>(env::office_desk_mixed());
    out.corridor = std::make_shared<const env::LightTrace>(out.office->scaled(0.65, 0.1));
    out.outdoor = std::make_shared<const env::LightTrace>(env::outdoor_day({}));
    out.sunday = std::make_shared<const env::LightTrace>(env::desk_sunday_blinds_closed(7));
    return out;
  }();
  return d;
}

std::string hex(const node::NodeReport& r) {
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "dur=%a harv=%a deliv=%a over=%a served=%a ideal=%a cold=%a bsteps=%d "
                "btime=%a vfin=%a steps=%llu evals=%llu entries=%llu events=%llu",
                r.duration, r.harvested_energy, r.delivered_energy, r.overhead_energy,
                r.load_energy_served, r.ideal_mpp_energy, r.coldstart_time, r.brownout_steps,
                r.brownout_time, r.final_store_voltage,
                static_cast<unsigned long long>(r.steps),
                static_cast<unsigned long long>(r.model_evals),
                static_cast<unsigned long long>(r.curve_entries),
                static_cast<unsigned long long>(r.events));
  return buf;
}

/// run_fleet's set-up for a kSoa spec: prepared traces, the warm cache
/// and the SoA plan, built in run_fleet's order.
struct FleetSetup {
  std::vector<PolicyAxis> policies;
  std::vector<std::optional<sched::PreparedTrace>> prepared;
  std::optional<node::CurveCache> warm;
  std::unique_ptr<const soa::SoaPlan> plan;
};

void build_setup(const FleetSpec& spec, FleetSetup& s) {
  s.policies = effective_policies(spec);
  env::SegmentationOptions seg;
  seg.ratio_band = spec.base.events.lux_ratio_band;
  seg.floor = node::CurveCache::kDarkLux;
  s.prepared.assign(spec.environments.size(), std::nullopt);
  for (std::size_t e = 0; e < spec.environments.size(); ++e) {
    s.prepared[e].emplace(*spec.environments[e].trace, *spec.cell, seg);
  }
  const HeterogeneitySpec& h = spec.heterogeneity;
  const double scale_lo =
      spec.base.lux_scale * h.attenuation_min * std::exp(-3.0 * h.cell_tolerance_sigma);
  const double scale_hi =
      spec.base.lux_scale * h.attenuation_max * std::exp(3.0 * h.cell_tolerance_sigma);
  s.warm.emplace(*spec.cell, spec.base.temperature_k,
                 node::CurveCache::Options{spec.base.power_model, spec.base.surrogate_points});
  for (const auto& p : s.prepared) {
    double lo = 0.0;
    double hi = 0.0;
    for (const double v : p->eq_lux()) {
      if (v < node::CurveCache::kDarkLux) continue;
      if (hi == 0.0) lo = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi > 0.0) s.warm->warm_range(lo * scale_lo, hi * scale_hi);
  }
  s.plan = soa::build_plan(spec, s.policies, s.prepared, *s.warm);
}

/// One environment and one lane law (plus a `focv` axis too light to be
/// drawn, which gives the spec its SoA plan): every node lands in one
/// group, at lux scales spread over [0.35, 1.4].
FleetSpec group_spec(const TracePtr& day, const std::string& law, double store_v,
                     std::size_t nodes, std::uint64_t seed) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = seed;
  spec.engine = FleetEngine::kSoa;
  spec.use_cell(pv::sanyo_am1815());
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.storage.initial_voltage = store_v;
  spec.base.load.report_period = 120.0;
  spec.heterogeneity.attenuation_min = 0.35;
  spec.heterogeneity.attenuation_max = 1.4;
  spec.heterogeneity.cell_tolerance_sigma = 0.0;
  spec.add_environment("day", day, 1.0);
  spec.add_policy(law, 1.0);
  spec.add_policy("focv", 1e-12);
  return spec;
}

/// What compare_lanes saw of one spec.
struct LaneRun {
  std::size_t lane_nodes = 0;    ///< node-width pairs that rode a lane
  std::size_t widths_run = 0;
  std::vector<double> scale;     ///< lux_scale per node
  std::vector<bool> in_lanes;    ///< node rode a lane at some width
};

/// Runs every node of a one-environment `spec` on the per-node path and
/// in the lanes at each width this host runs, and expects bit-identical
/// NodeReports for every node that rode a lane.
LaneRun compare_lanes(const FleetSpec& spec, const std::string& what) {
  LaneRun run;
  FleetSetup setup;
  build_setup(spec, setup);
  EXPECT_NE(setup.plan, nullptr) << what;
  if (setup.plan == nullptr) return run;
  const std::size_t nodes = spec.node_count;

  // The per-node reference, through a cache seeded as a chunk's is.
  std::vector<std::string> want(nodes);
  run.scale.resize(nodes);
  run.in_lanes.assign(nodes, false);
  {
    node::CurveCache cache(*spec.cell, spec.base.temperature_k,
                           node::CurveCache::Options{spec.base.power_model,
                                                     spec.base.surrogate_points});
    cache.seed_entries(*setup.warm);
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeDraw d = detail::draw_node_prevalidated(spec, setup.policies, i);
      const node::NodeConfig config = materialize_node(spec, d);
      run.scale[i] = config.lux_scale;
      want[i] = hex(node::simulate_node(*spec.environments[0].trace, config, &cache,
                                        &*setup.prepared[0]));
    }
  }
  for (const int w : soa::internal::kLaneWidths) {
    if (!soa::internal::lanes_runnable(w)) continue;
    const soa::internal::ScopedLanesWidth pin(w);
    hill::Lanes lanes(spec, setup.policies, setup.prepared, *setup.plan, *setup.warm);
    // A lone node runs per-node (hill::kMinBatch).
    EXPECT_EQ(lanes.empty(), nodes < hill::kMinBatch) << what;
    const std::size_t tasks = lanes.task_count(1);
    for (std::size_t t = 0; t < tasks; ++t) lanes.run_task(t, tasks);
    for (std::size_t i = 0; i < nodes; ++i) {
      hill::Outcome* out = lanes.outcome(i);
      if (out == nullptr) continue;  // outside the dense table: per-node path
      ++run.lane_nodes;
      run.in_lanes[i] = true;
      EXPECT_FALSE(out->failed) << out->error;
      EXPECT_EQ(want[i], hex(out->report))
          << what << " node " << i << "/" << nodes << " scale " << run.scale[i] << " W=" << w;
    }
    ++run.widths_run;
  }
  return run;
}

TEST(FleetHillLanes, LaneNodesMatchPerNodeReportsBitForBit) {
  const std::vector<std::string> laws = {"graddesc", "graddesc[lr=0.2]", "pando",
                                         "pando[step=0.02]"};
  const std::vector<std::pair<const char*, TracePtr>> envs = {{"office", days().office},
                                                              {"corridor", days().corridor},
                                                              {"outdoor", days().outdoor},
                                                              {"desk_sunday", days().sunday}};
  const double stores[] = {3.0, 2.5, 0.0};
  std::size_t combo = 0;
  std::size_t lane_nodes = 0;
  std::size_t dark_tickers = 0;
  std::size_t widths_run = 0;
  for (const std::string& law : laws) {
    for (const auto& [day_name, day] : envs) {
      for (const double store_v : stores) {
        // Group sizes 1..17 over the combinations: a lone node, a partial
        // lane block, one full block and a tail, at either width.
        const std::size_t nodes = 1 + combo % 17;
        const FleetSpec spec = group_spec(day, law, store_v, nodes, 100 + combo);
        ++combo;
        const LaneRun run = compare_lanes(
            spec, law + " " + day_name + " store " + std::to_string(store_v) + "V");
        lane_nodes += run.lane_nodes;
        widths_run += run.widths_run;
        for (std::size_t i = 0; i < nodes; ++i) {
          if (run.in_lanes[i] && run.scale[i] > 1.02) ++dark_tickers;
        }
      }
    }
  }
  if (widths_run == 0) GTEST_SKIP() << "this host runs no lane width";
  EXPECT_GT(lane_nodes, combo * 4);
  EXPECT_GT(dark_tickers, 0u);
}

/// Lit steps of `eq` at lux scale `scale`, at or above `floor_lux`, whose
/// certified key (CurveCache::certified_key) fails: the lanes take the
/// scalar log there.
std::size_t fallback_steps(const std::vector<double>& eq, double scale, double floor_lux) {
  const double xoff = node::CurveCache::key_term(scale);
  std::size_t n = 0;
  for (const double e : eq) {
    const double lux = scale * e;
    if (lux >= node::CurveCache::kDarkLux && lux >= floor_lux &&
        !node::CurveCache::certified_key<laws::Scalar>(xoff, node::CurveCache::key_term(e))
             .sure) {
      ++n;
    }
  }
  return n;
}

TEST(FleetHillLanes, CertifiedCurveKeysMatchStepKey) {
  FleetSpec spec;
  spec.use_cell(pv::sanyo_am1815());
  const node::NodeConfig& base = spec.base;
  const std::vector<std::pair<const char*, env::LightTrace>> traces = {
      {"office", env::office_desk_mixed()},
      {"outdoor", env::outdoor_day({})},
      {"semi_mobile", env::semi_mobile_day({})},
      {"desk_sunday", env::desk_sunday_blinds_closed()}};
  // 64 lux scales over [0.35, 1.4], each at the two extremes of the
  // default heterogeneity (attenuation bounds, cell factor at 3 sigma),
  // in materialize_node's association.
  const HeterogeneitySpec h;
  const double extremes[][2] = {
      {h.attenuation_min, std::exp(-3.0 * h.cell_tolerance_sigma)},
      {h.attenuation_max, std::exp(3.0 * h.cell_tolerance_sigma)}};
  std::vector<double> scales;
  for (int k = 0; k < 64; ++k) {
    const double lux_scale = 0.35 + (1.4 - 0.35) * k / 63.0;
    for (const auto& [attenuation, cell_factor] : extremes) {
      scales.push_back(lux_scale * attenuation * cell_factor);
    }
  }
  std::size_t keys = 0;
  std::size_t fallbacks = 0;
  for (const auto& [name, trace] : traces) {
    const sched::PreparedTrace prepared(trace, *spec.cell, env::SegmentationOptions{});
    const std::vector<double>& eq = prepared.eq_lux();
    std::vector<double> xeq(eq.size());
    for (std::size_t i = 0; i < eq.size(); ++i) xeq[i] = node::CurveCache::key_term(eq[i]);
    node::CurveCache cache(*spec.cell, base.temperature_k,
                           node::CurveCache::Options{base.power_model, base.surrogate_points});
    for (const double scale : scales) {
      const double xoff = node::CurveCache::key_term(scale);
      for (std::size_t i = 0; i < eq.size(); ++i) {
        const double lux = scale * eq[i];
        if (!(lux >= node::CurveCache::kDarkLux)) continue;
        ++keys;
        // The lanes' certificate, on doubles.
        const auto key = node::CurveCache::certified_key<laws::Scalar>(xoff, xeq[i]);
        if (!key.sure) {
          ++fallbacks;
          continue;
        }
        const node::CurveCache::StepKey want = cache.step_key(lux);
        const auto j = static_cast<long>(key.j);
        ASSERT_EQ(static_cast<long>(want.slot), j - node::CurveCache::kGridLo)
            << name << " step " << i << " scale " << scale;
        ASSERT_EQ(static_cast<double>(want.frac), key.frac)
            << name << " step " << i << " scale " << scale;
      }
    }
  }
  const double rate = static_cast<double>(fallbacks) / static_cast<double>(keys);
  std::printf("certified curve keys: %zu lit keys, %zu fallbacks (%.3g%%)\n", keys, fallbacks,
              100.0 * rate);
  EXPECT_GT(keys, 10'000'000u);
  // Expected ~2.4e-4 (a float rounding tie within 2^-40 of x - j); a
  // rate near 1 would still be exact but would lose the lanes' gain.
  EXPECT_LT(rate, 1e-3);
}

TEST(FleetHillLanes, KeyFallbackRosterMatchesPerNodeBitForBit) {
  // Lanes whose certificate fails at some ticked step (a lit step at or
  // above the law's supply floor) take the scalar log on that step; the
  // reports must not move.
  std::size_t fallback_lane_steps = 0;
  std::size_t widths_run = 0;
  const std::vector<std::pair<const char*, TracePtr>> envs = {{"office", days().office},
                                                              {"outdoor", days().outdoor}};
  for (const auto& [day_name, day] : envs) {
    for (const char* law : {"graddesc", "pando"}) {
      const FleetSpec spec = group_spec(day, law, 2.5, 12, 300);
      const LaneRun run = compare_lanes(spec, std::string(law) + " " + day_name);
      widths_run += run.widths_run;
      const std::vector<PolicyAxis> policies = effective_policies(spec);
      const double floor_lux = policies[0].prototype->minimum_operating_lux();
      const sched::PreparedTrace prepared(*day, *spec.cell, env::SegmentationOptions{});
      for (std::size_t i = 0; i < spec.node_count; ++i) {
        if (run.in_lanes[i]) {
          fallback_lane_steps += fallback_steps(prepared.eq_lux(), run.scale[i], floor_lux);
        }
      }
    }
  }
  std::printf("certificate fallbacks on ticked lane steps: %zu\n", fallback_lane_steps);
  if (widths_run == 0) GTEST_SKIP() << "this host runs no lane width";
  EXPECT_GT(fallback_lane_steps, 0u);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// The report JSON followed by the JSONL export, with the lanes at the
/// host's width or pinned off (0).
std::string run_export(const FleetSpec& spec, int lanes, int jobs) {
  const soa::internal::ScopedLanesWidth pin(lanes);
  FleetOptions opt;
  opt.jobs = jobs;
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  opt.jsonl_path = ::testing::TempDir() + "/hill_lanes_" + info->name() + "_w" +
                   std::to_string(lanes) + "_j" + std::to_string(jobs) + ".jsonl";
  const std::string json = run_fleet(spec, opt).to_json();
  return json + slurp(opt.jsonl_path);
}

/// The fleet_mixed workload's spec: three environments, a third of the
/// nodes on laws the SoA sweep cannot batch.
FleetSpec mixed_spec(std::size_t nodes) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 29;
  spec.use_cell(pv::sanyo_am1815());
  spec.add_environment("office_desk", days().office, 0.55);
  spec.add_environment("corridor", days().corridor, 0.25);
  spec.add_environment("outdoor", days().outdoor, 0.20);
  spec.add_policy("focv", 0.50);
  spec.add_policy("fixed", 0.17);
  spec.add_policy("pando", 0.11);
  spec.add_policy("graddesc", 0.11);
  spec.add_policy("direct", 0.11);
  spec.base.storage.initial_voltage = 2.5;
  spec.base.load.report_period = 120.0;
  spec.base.stepper = node::Stepper::kEvent;
  spec.engine = FleetEngine::kSoa;
  return spec;
}

TEST(FleetHillLanes, MixedFleetExportsMatchLanesPinnedOff) {
  const int w = soa::internal::lanes_width();
  if (w == 0) GTEST_SKIP() << "this host runs no lane width";
  const FleetSpec spec = mixed_spec(1200);
  for (const int jobs : {1, 3}) {
    EXPECT_EQ(run_export(spec, 0, jobs), run_export(spec, w, jobs)) << "jobs=" << jobs;
  }
}

TEST(FleetHillLanes, LaneNodeThatThrowsIsReportedFailed) {
  const int w = soa::internal::lanes_width();
  if (w == 0) GTEST_SKIP() << "this host runs no lane width";
  // Every node's store rejects its parameters when its run is set up:
  // the lane nodes throw inside the lane tasks, the per-node ones in
  // their chunks, and both must be recorded alike.
  FleetSpec spec = mixed_spec(96);
  spec.chunk_size = 16;
  spec.base.storage.max_voltage = 1.5;  // below min_useful_voltage
  const std::string off = run_export(spec, 0, 1);
  EXPECT_EQ(off, run_export(spec, w, 1));
  EXPECT_EQ(off, run_export(spec, w, 3));
  EXPECT_NE(off.find("Supercapacitor: max_voltage must exceed min_useful_voltage"),
            std::string::npos);
  const FleetReport report = run_fleet(spec, FleetOptions{});
  std::size_t lane_axes = 0;
  for (const PolicyAggregate& p : report.policies) {
    if (p.policy == "pando" || p.policy == "graddesc") lane_axes += p.failed;
  }
  EXPECT_GT(lane_axes, 0u);
}

}  // namespace
}  // namespace focv::fleet
