// Byte-identity contract between the SoA engine's two kernels: the
// interval-major lane sweep (fleet/soa_lanes.cpp) and the node-major
// scalar sweep (soa_scalar.cpp) instantiate one interval body and must
// produce EXACTLY the same bytes, at any worker count and at every
// lane-tail / fallback edge the blocking can hit. soa_lanes.cpp is built
// once per lane width; every instance this host can run is pinned in
// turn (soa_internal.hpp) and held to the scalar bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet/soa_internal.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"

namespace focv::fleet {
namespace {

/// All-batchable roster over the paper's two measured day shapes: the
/// closed forms the lane kernel runs (focv sample/hold, pilot and fixed
/// affine laws) beside a `photo` axis, which runs on the scalar kernel
/// (virtual step()) in every comparison.
FleetSpec lanes_spec(std::size_t nodes) {
  FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 2026;
  spec.chunk_size = 64;
  spec.engine = FleetEngine::kSoa;
  spec.use_cell(pv::sanyo_am1815());
  spec.base.stepper = node::Stepper::kEvent;
  spec.base.storage.initial_voltage = 2.4;
  spec.base.load.report_period = 120.0;
  env::OfficeDayParams office;
  office.duration = 6.0 * 3600.0;
  spec.add_environment("office", env::office_desk_mixed(office), 0.6);
  spec.add_environment("sunday", env::desk_sunday_blinds_closed(7), 0.4);
  spec.add_policy("focv", 0.5);
  spec.add_policy("pilot", 0.2);
  spec.add_policy("fixed", 0.15);
  spec.add_policy("photo", 0.15);
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// The fleet report JSON followed by the per-node JSONL export.
/// `lanes` is the pinned lane width (0 = the scalar kernel).
std::string run_kernel(const FleetSpec& spec, int lanes, int jobs) {
  const soa::internal::ScopedLanesWidth pin(lanes);
  FleetOptions opt;
  opt.jobs = jobs;
  // One file per test, kernel and jobs count: `ctest -j` runs each test
  // in its own process, and a shared path lets them overwrite each other.
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  opt.jsonl_path = ::testing::TempDir() + "/soa_lanes_" + name + "_w" + std::to_string(lanes) +
                   "_j" + std::to_string(jobs) + ".jsonl";
  const std::string json = run_fleet(spec, opt).to_json();
  const std::string jsonl = slurp(opt.jsonl_path);
  EXPECT_EQ(static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n')),
            spec.node_count);
  return json + jsonl;
}

/// The whole contract in one assertion: scalar jobs=1 is the reference;
/// scalar jobs=4 and every lane instance the host runs, at jobs=1 and
/// jobs=4, must all match it. (FleetSoaLaneWidths.InstanceRunsOnHost
/// reports a width this host cannot run as skipped.)
void expect_kernels_identical(const FleetSpec& spec, const std::string& label) {
  const std::string ref = run_kernel(spec, 0, 1);
  EXPECT_EQ(ref, run_kernel(spec, 0, 4)) << label << " scalar jobs=4";
  for (const int w : soa::internal::kLaneWidths) {
    if (!soa::internal::lanes_runnable(w)) continue;
    EXPECT_EQ(ref, run_kernel(spec, w, 1)) << label << " W=" << w << " jobs=1";
    EXPECT_EQ(ref, run_kernel(spec, w, 4)) << label << " W=" << w << " jobs=4";
  }
}

TEST(FleetSoaLanes, ByteIdenticalToScalar) {
  expect_kernels_identical(lanes_spec(1000), "nodes=1000");
}

TEST(FleetSoaLanes, LaneTailSizesByteIdentical) {
  // Chunk sizes and node counts chosen so axis runs end at every
  // residue mod the lane width: single-node runs, W-1 / W+1 tails, and
  // runs that fill whole blocks exactly. Tail blocks pad with replicas
  // of the last real node; any padding leak would corrupt these bytes.
  for (const std::size_t nodes : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 130u}) {
    FleetSpec spec = lanes_spec(nodes);
    spec.chunk_size = 32;
    expect_kernels_identical(spec, "nodes=" + std::to_string(nodes));
  }
}

TEST(FleetSoaLanes, SlowPathCrossingsinsideLanesByteIdentical) {
  // Start every store exactly at the usable() gate: the first advance of
  // every lane takes the step-split slow path (e == e_use), and the
  // brownout/recovery churn afterwards keeps mixing slow and fast lanes
  // within single blocks. This pins the spill -> shared advance_slow ->
  // reload path, where a lane kernel would most plausibly diverge.
  FleetSpec spec = lanes_spec(200);
  spec.base.storage.initial_voltage = spec.base.storage.min_useful_voltage;
  spec.base.load.report_period = 30.0;  // heavier load: more crossings
  expect_kernels_identical(spec, "slow-path crossings");
}

TEST(FleetSoaLanes, ZeroHeterogeneityEveryBlockUniform) {
  // Every node of an environment has the same illuminance scale, so
  // every lane of every block resolves the same table slot: the
  // broadcast branch of the slot reads runs everywhere.
  FleetSpec spec = lanes_spec(150);
  spec.heterogeneity.attenuation_min = 0.7;
  spec.heterogeneity.attenuation_max = 0.7;
  spec.heterogeneity.cell_tolerance_sigma = 0.0;
  spec.heterogeneity.divider_spread_sigma = 0.0;
  expect_kernels_identical(spec, "zero heterogeneity");
}

TEST(FleetSoaLanes, SortedNeighboursStraddlingGridNodesByteIdentical) {
  // Long axis runs over a narrow scale span (~3 grid nodes of 1/32
  // ln-lux each): most blocks share one slot, and at every grid node
  // the sorted scales cross, one block straddles two. Both the
  // broadcast and the gather branch of the slot reads run within the
  // same axis run, and a block flips between them as the interval's
  // illuminance moves its lanes across a node.
  FleetSpec spec = lanes_spec(1500);
  spec.chunk_size = 1500;
  spec.heterogeneity.attenuation_min = 0.9;
  spec.heterogeneity.attenuation_max = 1.0;
  spec.heterogeneity.cell_tolerance_sigma = 0.0;
  expect_kernels_identical(spec, "straddling neighbours");
}

/// One case per lane width soa_lanes.cpp is built at: a width this host
/// cannot run is skipped with the ISA it lacks named, so a run that
/// never exercised an instance says so instead of passing silently.
class FleetSoaLaneWidths : public ::testing::TestWithParam<int> {};

TEST_P(FleetSoaLaneWidths, InstanceRunsOnHost) {
  const int w = GetParam();
  if (!soa::internal::lanes_runnable(w)) {
    GTEST_SKIP() << "the " << w << "-lane instance needs " << soa::internal::lanes_requirement(w)
                 << ", which this host or build lacks; FleetSoaLanes.* compared the others";
  }
  // Unpinned, the dispatcher runs the widest instance the host has.
  EXPECT_GE(soa::internal::lanes_width(), w);
  // Pinned, each soa_axis_run span names the kernel and the lane width
  // that ran it (1 for the scalar kernel, which takes the always-dark
  // sunday env: its table has no slots to gather from), and the bytes
  // still match the scalar kernel.
  const FleetSpec spec = lanes_spec(40);
  obs::reset_all();
  std::string traced;
  {
    obs::ScopedEnable scoped;
    traced = run_kernel(spec, w, 1);
  }
  std::size_t lane_spans = 0;
  for (const obs::TraceEvent& e : obs::tracer().events()) {
    if (e.name != "soa_axis_run") continue;
    std::string kernel;
    double lanes = 0.0;
    for (const obs::TraceArg& a : e.args) {
      if (a.name == "kernel") kernel = a.text;
      if (a.name == "lanes") lanes = a.number;
    }
    ASSERT_TRUE(kernel == "lanes" || kernel == "scalar") << kernel;
    EXPECT_EQ(lanes, kernel == "lanes" ? static_cast<double>(w) : 1.0) << kernel;
    lane_spans += kernel == "lanes" ? 1 : 0;
  }
  obs::reset_all();
  EXPECT_GT(lane_spans, 0u);
  EXPECT_EQ(run_kernel(spec, 0, 1), traced);
}

INSTANTIATE_TEST_SUITE_P(Widths, FleetSoaLaneWidths,
                         ::testing::ValuesIn(soa::internal::kLaneWidths),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "w";
                           return name.append(std::to_string(info.param));
                         });

}  // namespace
}  // namespace focv::fleet
