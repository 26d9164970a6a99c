// The microbenchmark harness is release tooling: CI gates on its smoke
// mode, and the committed BENCH_micro.json is parsed by people and
// scripts. These tests drive the full CLI in-process.
#include "harness.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace focv::microbench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(MicroBenchStats, MedianAndMad) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  // MAD ignores a single outlier entirely.
  EXPECT_DOUBLE_EQ(median_abs_deviation({1.0, 1.0, 1.0, 100.0}, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(median_abs_deviation({1.0, 2.0, 3.0}, 2.0), 1.0);
}

TEST(MicroBenchHarness, SmokeRunCompletesAndWritesSchemaValidJson) {
  const std::string path = ::testing::TempDir() + "/bench_micro_smoke.json";
  ASSERT_EQ(main_with_args({"--smoke", "--output=" + path}), 0);
  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(json, doc, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"schema\": \"focv-bench-micro/v2\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": true"), std::string::npos);
  // The standard suite and its derived ratios are all present.
  for (const char* name :
       {"simulate_node_24h_indoor_surrogate", "simulate_node_24h_indoor_exact",
        "simulate_node_24h_outdoor_surrogate", "simulate_node_24h_outdoor_exact",
        "simulate_node_24h_indoor_event", "simulate_node_24h_outdoor_event",
        "simulate_node_24h_indoor_pando_event", "simulate_node_24h_outdoor_graddesc_event",
        "sweep_jobs1", "sweep_jobsN", "circuit_transient_window",
        "cell_model_solves", "fleet_step", "fleet_step_event",
        "fleet_soa_ref_event", "fleet_soa_float",
        "obs_overhead_disabled", "obs_overhead_enabled", "sizing_outdoor_pando",
        "speedup_simulate_node_24h_indoor",
        "speedup_simulate_node_24h_outdoor", "overhead_obs_overhead",
        "speedup_fleet_soa",
        "speedup_event_stepper_simulate_node_24h_indoor",
        "speedup_event_stepper_simulate_node_24h_outdoor",
        "speedup_event_stepper_fleet_step"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  std::remove(path.c_str());
}

TEST(MicroBenchHarness, FilterSelectsASubset) {
  if (registry().empty()) register_default_cases();
  RunOptions opt;
  opt.smoke = true;
  opt.repetitions = 1;
  opt.warmup = 0;
  opt.filter = "cell_model";
  const std::vector<CaseResult> results = run_cases(opt);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "cell_model_solves");
  EXPECT_EQ(results[0].seconds.size(), 1u);
  EXPECT_GT(results[0].median_s, 0.0);
  // Counters made it through (3 solves per ladder level).
  bool found = false;
  for (const auto& [key, value] : results[0].counters) {
    if (key == "solves") {
      found = true;
      EXPECT_GT(value, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MicroBenchHarness, SmokeDefaultsTrimRepetitions) {
  RunOptions smoke;
  smoke.smoke = true;
  EXPECT_EQ(smoke.effective_repetitions(), 2);
  EXPECT_EQ(smoke.effective_warmup(), 0);
  RunOptions full;
  EXPECT_EQ(full.effective_repetitions(), 7);
  EXPECT_EQ(full.effective_warmup(), 1);
  smoke.repetitions = 5;
  EXPECT_EQ(smoke.effective_repetitions(), 5);
}

TEST(MicroBenchHarness, UnknownFlagIsAnError) {
  EXPECT_EQ(main_with_args({"--no-such-flag"}), 2);
}

}  // namespace
}  // namespace focv::microbench
