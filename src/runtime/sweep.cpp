#include "runtime/sweep.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <optional>

#include "common/json.hpp"
#include "common/require.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace focv::runtime {

namespace {

/// Flatten a free-text field (scenario names, exception messages) into
/// one CSV cell: the separators become ';'.
std::string csv_safe(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return s;
}

SweepStats stats_over(const std::vector<double>& values) {
  SweepStats s;
  if (values.empty()) return s;
  s.min = 1e300;
  s.max = -1e300;
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  const double n = static_cast<double>(values.size());
  s.mean = sum / n;
  s.stddev = std::sqrt(std::max(0.0, sum_sq / n - s.mean * s.mean));
  return s;
}

}  // namespace

void SweepSpec::add_cell(std::string name, const pv::SingleDiodeModel& cell) {
  CellAxis axis;
  axis.name = std::move(name);
  axis.model = std::shared_ptr<const pv::SingleDiodeModel>(
      std::shared_ptr<const pv::SingleDiodeModel>(), &cell);
  cells.push_back(std::move(axis));
}

void SweepSpec::add_controller(std::string name, const mppt::MpptController& prototype) {
  add_controller(std::move(name), prototype.clone());
}

void SweepSpec::add_controller(std::string name,
                               std::unique_ptr<mppt::MpptController> prototype) {
  ControllerAxis axis;
  axis.name = std::move(name);
  axis.prototype = std::move(prototype);
  controllers.push_back(std::move(axis));
}

void SweepSpec::add_controller(const std::string& spec) {
  const mppt::ResolvedSpec resolved = mppt::Registry::instance().resolve(spec);
  add_controller(resolved.spec(), mppt::Registry::instance().make(resolved));
}

void SweepSpec::add_scenario(std::string name, env::LightTrace trace) {
  ScenarioAxis axis;
  axis.name = std::move(name);
  axis.trace = std::make_shared<const env::LightTrace>(std::move(trace));
  scenarios.push_back(std::move(axis));
}

void SweepSpec::add_grid_point(std::string name,
                               std::function<void(node::NodeConfig&, Rng&)> apply) {
  GridAxis axis;
  axis.name = std::move(name);
  axis.apply = std::move(apply);
  grid.push_back(std::move(axis));
}

std::size_t SweepSpec::job_count() const {
  return cells.size() * controllers.size() * scenarios.size() *
         std::max<std::size_t>(1, grid.size());
}

const SweepRecord& SweepResult::at(std::size_t cell_i, std::size_t controller_i,
                                   std::size_t scenario_i, std::size_t grid_i) const {
  const std::size_t index =
      ((cell_i * controllers_ + controller_i) * scenarios_ + scenario_i) * grids_ + grid_i;
  require(controller_i < controllers_ && scenario_i < scenarios_ && grid_i < grids_ &&
              index < records_.size(),
          "SweepResult::at: coordinates outside the sweep matrix");
  return records_[index];
}

std::uint64_t SweepResult::total_steps() const {
  std::uint64_t n = 0;
  for (const SweepRecord& r : records_) n += r.steps;
  return n;
}

std::uint64_t SweepResult::total_model_evals() const {
  std::uint64_t n = 0;
  for (const SweepRecord& r : records_) n += r.model_evals;
  return n;
}

std::size_t SweepResult::failed_count() const {
  std::size_t n = 0;
  for (const SweepRecord& r : records_) n += r.failed ? 1 : 0;
  return n;
}

std::vector<SweepSummary> SweepResult::summary() const {
  std::vector<SweepSummary> out;
  for (std::size_t c = 0; c < controllers_; ++c) {
    SweepSummary row;
    std::vector<double> net, eff, harvested;
    for (const SweepRecord& r : records_) {
      if (r.controller_index != c) continue;
      if (row.controller.empty()) row.controller = r.controller;
      if (r.failed) {
        ++row.failures;
        continue;
      }
      ++row.runs;
      net.push_back(r.report.net_energy());
      eff.push_back(r.report.tracking_efficiency());
      harvested.push_back(r.report.harvested_energy);
    }
    row.net_energy = stats_over(net);
    row.tracking_efficiency = stats_over(eff);
    row.harvested_energy = stats_over(harvested);
    out.push_back(std::move(row));
  }
  return out;
}

std::string SweepResult::to_csv(bool include_timing) const {
  std::string out =
      "job,cell,controller,scenario,grid,duration_s,harvested_j,delivered_j,"
      "overhead_j,load_served_j,ideal_mpp_j,net_j,tracking_eff,coldstart_s,"
      "brownout_steps,final_store_v,failed,error";
  if (include_timing) out += ",wall_s,steps,model_evals,curve_entries";
  out += "\n";
  for (const SweepRecord& r : records_) {
    const node::NodeReport& rep = r.report;
    out += std::to_string(r.job) + ',' + csv_safe(r.cell) + ',' + csv_safe(r.controller) +
           ',' + csv_safe(r.scenario) + ',' + csv_safe(r.grid) + ',' +
           format_number(rep.duration) + ',' + format_number(rep.harvested_energy) + ',' +
           format_number(rep.delivered_energy) + ',' + format_number(rep.overhead_energy) + ',' +
           format_number(rep.load_energy_served) + ',' + format_number(rep.ideal_mpp_energy) +
           ',' + format_number(rep.net_energy()) + ',' +
           format_number(rep.tracking_efficiency()) + ',' +
           format_number(rep.coldstart_time) + ',' + std::to_string(rep.brownout_steps) + ',' +
           format_number(rep.final_store_voltage) + ',' + (r.failed ? '1' : '0') + ',' +
           csv_safe(r.error);
    if (include_timing) {
      out += ',' + format_number(r.wall_seconds) + ',' + std::to_string(r.steps) + ',' +
             std::to_string(r.model_evals) + ',' + std::to_string(r.curve_entries);
    }
    out += '\n';
  }
  return out;
}

std::string SweepResult::to_json(bool include_timing) const {
  std::string out = "{\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SweepRecord& r = records_[i];
    const node::NodeReport& rep = r.report;
    out += "    {\"job\": " + std::to_string(r.job) +
           ", \"cell\": \"" + json_escape(r.cell) +
           "\", \"controller\": \"" + json_escape(r.controller) +
           "\", \"scenario\": \"" + json_escape(r.scenario) +
           "\", \"grid\": \"" + json_escape(r.grid) +
           "\", \"duration_s\": " + format_number(rep.duration) +
           ", \"harvested_j\": " + format_number(rep.harvested_energy) +
           ", \"delivered_j\": " + format_number(rep.delivered_energy) +
           ", \"overhead_j\": " + format_number(rep.overhead_energy) +
           ", \"load_served_j\": " + format_number(rep.load_energy_served) +
           ", \"ideal_mpp_j\": " + format_number(rep.ideal_mpp_energy) +
           ", \"net_j\": " + format_number(rep.net_energy()) +
           ", \"tracking_eff\": " + format_number(rep.tracking_efficiency()) +
           ", \"coldstart_s\": " + format_number(rep.coldstart_time) +
           ", \"brownout_steps\": " + std::to_string(rep.brownout_steps) +
           ", \"final_store_v\": " + format_number(rep.final_store_voltage) +
           ", \"failed\": " + (r.failed ? "true" : "false") +
           ", \"error\": \"" + json_escape(r.error) + "\"";
    if (include_timing) {
      out += ", \"wall_s\": " + format_number(r.wall_seconds) +
             ", \"steps\": " + std::to_string(r.steps) +
             ", \"model_evals\": " + std::to_string(r.model_evals) +
             ", \"curve_entries\": " + std::to_string(r.curve_entries);
    }
    out += "}";
    if (i + 1 < records_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

namespace {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "sweep export: cannot open " + path);
  f << text;
  require(f.good(), "sweep export: write failed for " + path);
}

}  // namespace

void SweepResult::write_csv(const std::string& path, bool include_timing) const {
  write_text_file(path, to_csv(include_timing));
}

void SweepResult::write_json(const std::string& path, bool include_timing) const {
  write_text_file(path, to_json(include_timing));
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  require(!spec.cells.empty(), "run_sweep: at least one cell is required");
  require(!spec.controllers.empty(), "run_sweep: at least one controller is required");
  require(!spec.scenarios.empty(), "run_sweep: at least one scenario is required");
  for (const CellAxis& c : spec.cells) {
    require(c.model != nullptr, "run_sweep: null cell model on axis '" + c.name + "'");
  }
  for (const ControllerAxis& c : spec.controllers) {
    require(c.prototype != nullptr,
            "run_sweep: null controller prototype on axis '" + c.name + "'");
  }
  for (const ScenarioAxis& s : spec.scenarios) {
    require(s.trace != nullptr, "run_sweep: null scenario trace on axis '" + s.name + "'");
  }

  // An empty grid degenerates to the single nominal point.
  static const GridAxis kNominal{};
  const std::size_t n_grid = std::max<std::size_t>(1, spec.grid.size());

  SweepResult result;
  result.controllers_ = spec.controllers.size();
  result.scenarios_ = spec.scenarios.size();
  result.grids_ = n_grid;
  result.records_.resize(spec.job_count());

  std::mutex progress_mutex;
  SweepProgress progress;
  progress.total = result.records_.size();

  // Telemetry: decided once per sweep; per-job spans carry queue wait
  // (time between fan-out and the job actually starting) and the job's
  // own counters. submit_us is the fan-out timestamp all jobs share —
  // parallel_for enqueues every job up front.
  const bool obs_on = obs::enabled();
  const double submit_us = obs_on ? obs::tracer().now_us() : 0.0;

  const auto run_job = [&](std::size_t job) {
    // Decode the flat index into matrix coordinates.
    const std::size_t grid_i = job % n_grid;
    const std::size_t scenario_i = (job / n_grid) % spec.scenarios.size();
    const std::size_t controller_i =
        (job / (n_grid * spec.scenarios.size())) % spec.controllers.size();
    const std::size_t cell_i = job / (n_grid * spec.scenarios.size() * spec.controllers.size());
    const GridAxis& grid =
        spec.grid.empty() ? kNominal : spec.grid[grid_i];

    SweepRecord record;
    record.job = job;
    record.cell_index = cell_i;
    record.controller_index = controller_i;
    record.scenario_index = scenario_i;
    record.grid_index = grid_i;
    record.cell = spec.cells[cell_i].name;
    record.controller = spec.controllers[controller_i].name;
    record.scenario = spec.scenarios[scenario_i].name;
    record.grid = grid.name;

    std::optional<obs::Tracer::Span> span;
    if (obs_on) {
      span.emplace(obs::tracer().span("sweep_job", "sweep"));
      span->arg("job", static_cast<double>(job));
      span->arg("cell", record.cell);
      span->arg("controller", record.controller);
      span->arg("scenario", record.scenario);
      span->arg("grid", record.grid);
      span->arg("queue_wait_us", obs::tracer().now_us() - submit_us);
    }

    // Per-job observability counters route through a scoped
    // MetricsRegistry: the job is the only writer, and the record's
    // fields are read back from the registry's merged view.
    obs::MetricsRegistry job_metrics;
    const obs::CounterId steps_id = job_metrics.counter("job.steps");
    const obs::CounterId evals_id = job_metrics.counter("job.model_evals");
    const obs::CounterId entries_id = job_metrics.counter("job.curve_entries");

    const auto start = std::chrono::steady_clock::now();
    try {
      node::NodeConfig config = spec.base;
      config.cell_model = spec.cells[cell_i].model;
      config.controller_prototype = spec.controllers[controller_i].prototype;
      Rng rng = make_stream_rng(spec.root_seed, job);
      if (grid.apply) grid.apply(config, rng);
      const env::LightTrace& trace = *spec.scenarios[scenario_i].trace;
      record.report = node::simulate_node(trace, config);
      job_metrics.add(steps_id, static_cast<double>(record.report.steps));
      job_metrics.add(evals_id, static_cast<double>(record.report.model_evals));
      job_metrics.add(entries_id, static_cast<double>(record.report.curve_entries));
      record.steps = static_cast<std::uint64_t>(job_metrics.counter_value("job.steps"));
      record.model_evals =
          static_cast<std::uint64_t>(job_metrics.counter_value("job.model_evals"));
      record.curve_entries =
          static_cast<std::uint64_t>(job_metrics.counter_value("job.curve_entries"));
    } catch (const std::exception& e) {
      record.failed = true;
      record.error = e.what();
    } catch (...) {
      record.failed = true;
      record.error = "unknown exception";
    }
    record.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    if (span) {
      span->arg("failed", record.failed ? 1.0 : 0.0);
      span->arg("steps", static_cast<double>(record.steps));
      span->arg("model_evals", static_cast<double>(record.model_evals));
      span->finish();
      static const obs::HistogramId job_wall_id =
          obs::metrics().histogram("sweep.job.wall_us", {1.0, 1e9, 56});
      static const obs::CounterId jobs_id = obs::metrics().counter("sweep.jobs");
      static const obs::CounterId failed_id = obs::metrics().counter("sweep.jobs_failed");
      obs::metrics().observe(job_wall_id, record.wall_seconds * 1e6);
      obs::metrics().add(jobs_id);
      if (record.failed) obs::metrics().add(failed_id);
    }

    result.records_[job] = std::move(record);
    if (options.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      ++progress.completed;
      if (result.records_[job].failed) ++progress.failed;
      progress.last = &result.records_[job];
      options.on_progress(progress);
    } else {
      std::lock_guard<std::mutex> lock(progress_mutex);
      ++progress.completed;
      if (result.records_[job].failed) ++progress.failed;
    }
  };

  std::optional<obs::Tracer::Span> sweep_span;
  if (obs_on) {
    sweep_span.emplace(obs::tracer().span("sweep", "sweep"));
    sweep_span->arg("jobs_total", static_cast<double>(result.records_.size()));
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  ThreadPool::WorkerStats pool_stats;
  if (options.jobs == 1) {
    // Inline serial path: the reference execution the determinism test
    // compares the threaded runs against.
    result.jobs_used_ = 1;
    for (std::size_t job = 0; job < result.records_.size(); ++job) run_job(job);
  } else {
    ThreadPool pool(options.jobs);
    result.jobs_used_ = pool.thread_count();
    pool.parallel_for(result.records_.size(), run_job);
    pool_stats = pool.total_stats();
  }
  result.wall_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start).count();

  if (obs_on) {
    static const obs::CounterId steals_id = obs::metrics().counter("sweep.pool.steals");
    static const obs::CounterId executed_id = obs::metrics().counter("sweep.pool.executed");
    obs::metrics().add(steals_id, static_cast<double>(pool_stats.stolen));
    obs::metrics().add(executed_id, static_cast<double>(pool_stats.executed));
    sweep_span->arg("jobs_used", static_cast<double>(result.jobs_used_));
    sweep_span->arg("pool_steals", static_cast<double>(pool_stats.stolen));
    sweep_span->arg("failed", static_cast<double>(result.failed_count()));
    obs::events().emit("sweep_complete", 0.0,
                       {{"jobs", static_cast<double>(result.records_.size())},
                        {"jobs_used", result.jobs_used_},
                        {"failed", static_cast<double>(result.failed_count())},
                        {"pool_steals", static_cast<double>(pool_stats.stolen)},
                        {"wall_s", result.wall_seconds_}});
  }
  return result;
}

}  // namespace focv::runtime
