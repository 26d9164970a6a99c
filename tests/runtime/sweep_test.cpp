#include "runtime/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "mppt/baselines.hpp"
#include "pv/cell_library.hpp"

namespace focv::runtime {
namespace {

SweepSpec small_matrix() {
  SweepSpec spec;
  spec.add_cell("AM-1815", pv::sanyo_am1815());
  spec.add_controller("proposed", core::make_paper_controller());
  spec.add_controller("fixed", mppt::FixedVoltageController{});
  spec.add_scenario("office 30 min", env::constant_light(500.0, 0.0, 1800.0));
  spec.add_scenario("bright 30 min", env::constant_light(0.0, 20000.0, 1800.0));
  spec.base.storage.initial_voltage = 3.0;
  spec.base.load.report_period = 300.0;
  return spec;
}

TEST(Sweep, ResultIsByteIdenticalAcrossThreadCounts) {
  // The headline determinism contract: the exported table of a threaded
  // run equals the serial reference byte for byte. Per-job RNG streams
  // plus index-addressed result slots make the schedule irrelevant.
  const SweepSpec spec = small_matrix();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions threaded;
  threaded.jobs = 8;
  const SweepResult a = run_sweep(spec, serial);
  const SweepResult b = run_sweep(spec, threaded);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Sweep, MonteCarloGridIsScheduleIndependent) {
  // Grid points that draw from the per-job RNG (the tolerance MC shape)
  // must also reproduce across thread counts: the stream belongs to the
  // job index, not to the worker.
  SweepSpec spec = small_matrix();
  for (int i = 0; i < 6; ++i) {
    spec.add_grid_point("unit " + std::to_string(i),
                        [](node::NodeConfig& cfg, Rng& rng) {
                          cfg.storage.initial_voltage = rng.uniform(2.5, 3.0);
                        });
  }
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions threaded;
  threaded.jobs = 8;
  EXPECT_EQ(run_sweep(spec, serial).to_csv(), run_sweep(spec, threaded).to_csv());
}

TEST(Sweep, AtAddressesTheMatrixInDeclarationOrder) {
  const SweepResult r = run_sweep(small_matrix());
  EXPECT_EQ(r.records().size(), 4u);
  EXPECT_EQ(r.at(0, 0, 1).controller, "proposed");
  EXPECT_EQ(r.at(0, 0, 1).scenario, "bright 30 min");
  EXPECT_EQ(r.at(0, 1, 0).controller, "fixed");
  EXPECT_EQ(r.at(0, 1, 0).scenario, "office 30 min");
  EXPECT_THROW((void)r.at(0, 2, 0), PreconditionError);
}

TEST(Sweep, MatchesADirectSimulateNodeCall) {
  // The engine adds orchestration, not physics: a matrix cell's report
  // equals the same run made by hand.
  const SweepSpec spec = small_matrix();
  const SweepResult swept = run_sweep(spec);
  node::NodeConfig cfg = spec.base;
  cfg.use_cell(pv::sanyo_am1815());
  cfg.use_controller(core::make_paper_controller());
  const node::NodeReport direct =
      node::simulate_node(env::constant_light(500.0, 0.0, 1800.0), cfg);
  const node::NodeReport& from_sweep = swept.at(0, 0, 0).report;
  EXPECT_DOUBLE_EQ(from_sweep.harvested_energy, direct.harvested_energy);
  EXPECT_DOUBLE_EQ(from_sweep.final_store_voltage, direct.final_store_voltage);
}

TEST(Sweep, CloneIndependenceAcrossJobs) {
  // One shared controller prototype serves every matrix cell; each job
  // clones it, so runs cannot contaminate each other. Two scenarios that
  // would perturb a stateful controller differently must still give the
  // same result for a repeated scenario.
  SweepSpec spec;
  spec.add_cell("AM-1815", pv::sanyo_am1815());
  spec.add_controller("proposed", core::make_paper_controller());
  spec.add_scenario("dark first", env::constant_light(0.0, 0.0, 900.0));
  spec.add_scenario("office", env::constant_light(500.0, 0.0, 1800.0));
  spec.add_scenario("office again", env::constant_light(500.0, 0.0, 1800.0));
  spec.base.storage.initial_voltage = 3.0;
  const SweepResult r = run_sweep(spec);
  // Whatever the dark run did to "its" controller is invisible here.
  EXPECT_DOUBLE_EQ(r.at(0, 0, 1).report.harvested_energy,
                   r.at(0, 0, 2).report.harvested_energy);
  EXPECT_DOUBLE_EQ(r.at(0, 0, 1).report.final_store_voltage,
                   r.at(0, 0, 2).report.final_store_voltage);
}

TEST(Sweep, AFailingJobIsIsolatedToItsCell) {
  SweepSpec spec = small_matrix();
  spec.add_grid_point("nominal", nullptr);
  spec.add_grid_point("poisoned", [](node::NodeConfig&, Rng&) {
    throw std::runtime_error("injected fault");
  });
  const SweepResult r = run_sweep(spec);
  EXPECT_EQ(r.records().size(), 8u);
  EXPECT_EQ(r.failed_count(), 4u);  // one poisoned point per ctl x scenario
  for (const SweepRecord& rec : r.records()) {
    if (rec.grid == "poisoned") {
      EXPECT_TRUE(rec.failed);
      EXPECT_NE(rec.error.find("injected fault"), std::string::npos);
    } else {
      EXPECT_FALSE(rec.failed) << rec.grid;
      EXPECT_GT(rec.report.harvested_energy, 0.0);
    }
  }
}

TEST(Sweep, SummaryAggregatesPerController) {
  const SweepResult r = run_sweep(small_matrix());
  const std::vector<SweepSummary> summary = r.summary();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].controller, "proposed");
  EXPECT_EQ(summary[0].runs, 2u);
  EXPECT_EQ(summary[0].failures, 0u);
  EXPECT_GT(summary[0].harvested_energy.mean, 0.0);
  EXPECT_GE(summary[0].harvested_energy.max, summary[0].harvested_energy.min);
}

TEST(Sweep, ProgressCallbackSeesEveryJob) {
  SweepOptions options;
  options.jobs = 4;
  std::size_t calls = 0;
  std::size_t last_completed = 0;
  options.on_progress = [&](const SweepProgress& p) {
    ++calls;
    last_completed = p.completed;
    EXPECT_EQ(p.total, 4u);
    ASSERT_NE(p.last, nullptr);
  };
  const SweepResult r = run_sweep(small_matrix(), options);
  EXPECT_EQ(calls, r.records().size());
  EXPECT_EQ(last_completed, r.records().size());
}

TEST(Sweep, RejectsEmptyAndNullAxes) {
  SweepSpec empty;
  EXPECT_THROW((void)run_sweep(empty), PreconditionError);
  SweepSpec null_ctl = small_matrix();
  null_ctl.controllers[0].prototype = nullptr;
  EXPECT_THROW((void)run_sweep(null_ctl), PreconditionError);
}

TEST(Sweep, CsvHasOneRowPerJobAndStableHeader) {
  const SweepResult r = run_sweep(small_matrix());
  const std::string csv = r.to_csv();
  std::size_t rows = 0;
  for (const char c : csv) rows += (c == '\n') ? 1 : 0;
  EXPECT_EQ(rows, 1u + r.records().size());  // header + jobs
  EXPECT_EQ(csv.find("wall_s"), std::string::npos);  // timing opt-in only
  const std::string timed = r.to_csv(/*include_timing=*/true);
  EXPECT_NE(timed.find("wall_s"), std::string::npos);
  EXPECT_NE(timed.find("model_evals"), std::string::npos);
  EXPECT_NE(timed.find("curve_entries"), std::string::npos);
}

TEST(Sweep, CountersAreConsistentAcrossThreadCounts) {
  // The observability counters are physics facts, not scheduling facts:
  // totals and per-record values must agree between --jobs 1 and 8 even
  // though the per-job wall clocks differ run to run.
  const SweepSpec spec = small_matrix();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions threaded;
  threaded.jobs = 8;
  const SweepResult a = run_sweep(spec, serial);
  const SweepResult b = run_sweep(spec, threaded);
  ASSERT_EQ(a.records().size(), b.records().size());
  EXPECT_GT(a.total_steps(), 0u);
  EXPECT_GT(a.total_model_evals(), 0u);
  EXPECT_EQ(a.total_steps(), b.total_steps());
  EXPECT_EQ(a.total_model_evals(), b.total_model_evals());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const SweepRecord& ra = a.records()[i];
    const SweepRecord& rb = b.records()[i];
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.model_evals, rb.model_evals);
    EXPECT_EQ(ra.curve_entries, rb.curve_entries);
    // Each job did real, accounted work.
    EXPECT_EQ(ra.steps, ra.report.steps);
    EXPECT_GE(ra.wall_seconds, 0.0);
    EXPECT_GT(ra.steps, 0u);
    EXPECT_LE(ra.curve_entries, ra.model_evals);
  }
}

TEST(Sweep, ExactModeIsByteIdenticalAcrossThreadCountsToo) {
  // The exact power model keeps the historical trajectory; its exports
  // must hold the same determinism contract as the surrogate default.
  SweepSpec spec = small_matrix();
  spec.base.power_model = node::PowerModel::kExact;
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions threaded;
  threaded.jobs = 8;
  const SweepResult a = run_sweep(spec, serial);
  const SweepResult b = run_sweep(spec, threaded);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  // Exact mode solves P(V) per lit step, so it works strictly harder
  // than the surrogate on the same matrix.
  const SweepResult s = run_sweep(small_matrix(), serial);
  EXPECT_GT(a.total_model_evals(), s.total_model_evals());
}

}  // namespace
}  // namespace focv::runtime
