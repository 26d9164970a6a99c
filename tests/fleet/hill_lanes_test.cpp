// Byte-identity contract of the hill-climber lockstep lanes
// (fleet/hill.hpp, fleet/hill_lanes.cpp): a `graddesc` or `pando` node
// that rides a lane must end with exactly the NodeReport the per-node
// path computes, field for field in hexfloat, at every lane width this
// host runs, every group size and every lane position; and a fleet run
// with the lanes must export the bytes of one with the lanes pinned off.
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
        // Group sizes 1..17 over the combinations: a partial lane block,
        // one full block and a tail, at either width.
        const std::size_t nodes = 1 + combo % 17;
        const FleetSpec spec = group_spec(day, law, store_v, nodes, 100 + combo);
        ++combo;
        FleetSetup setup;
        build_setup(spec, setup);
        ASSERT_NE(setup.plan, nullptr);

        // The per-node reference, through a cache seeded as a chunk's is.
        std::vector<std::string> want(nodes);
        std::vector<double> scale(nodes);
        {
          node::CurveCache cache(*spec.cell, spec.base.temperature_k,
                                 node::CurveCache::Options{spec.base.power_model,
                                                           spec.base.surrogate_points});
          cache.seed_entries(*setup.warm);
          for (std::size_t i = 0; i < nodes; ++i) {
            const NodeDraw d = detail::draw_node_prevalidated(spec, setup.policies, i);
            const node::NodeConfig config = materialize_node(spec, d);
            scale[i] = config.lux_scale;
            want[i] = hex(node::simulate_node(*spec.environments[0].trace, config, &cache,
                                              &*setup.prepared[0]));
          }
        }
        for (const int w : soa::internal::kLaneWidths) {
          if (!soa::internal::lanes_runnable(w)) continue;
          const soa::internal::ScopedLanesWidth pin(w);
          hill::Lanes lanes(spec, setup.policies, setup.prepared, *setup.plan, *setup.warm);
          ASSERT_FALSE(lanes.empty()) << law << " " << day_name;
          const std::size_t tasks = lanes.task_count(1);
          for (std::size_t t = 0; t < tasks; ++t) lanes.run_task(t, tasks);
          for (std::size_t i = 0; i < nodes; ++i) {
            hill::Outcome* out = lanes.outcome(i);
            if (out == nullptr) continue;  // outside the dense table: per-node path
            ++lane_nodes;
            if (scale[i] > 1.02) ++dark_tickers;
            ASSERT_FALSE(out->failed) << out->error;
            EXPECT_EQ(want[i], hex(out->report))
                << law << " " << day_name << " store " << store_v << "V node " << i << "/"
                << nodes << " scale " << scale[i] << " W=" << w;
          }
          ++widths_run;
        }
      }
    }
  }
  if (widths_run == 0) GTEST_SKIP() << "this host runs no lane width";
  EXPECT_GT(lane_nodes, combo * 4);
  EXPECT_GT(dark_tickers, 0u);
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
