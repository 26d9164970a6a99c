// Parameterized MPPT tournament: every registered controller spec
// cross-producted with the deployment scenario classes, scored on
// tracking efficiency, harvested/net energy AND a complexity-aware
// compute-cost axis (registry ops-per-decision at ~1 nJ/op on a
// low-power MCU — the performance/complexity trade of arXiv
// 2511.20895). The grid runs through the focv_runtime sweep engine, so
// the leaderboard is bit-identical for any --jobs count; the
// "focv-tournament/v1" JSON export is the CI artifact.
//
//   tournament --list                 print the controller catalog
//   tournament --smoke                short traces (CI gate)
//   tournament --controller SPEC      override the roster (repeatable)
//   tournament --json PATH            write the leaderboard JSON
//   tournament --jobs N               sweep worker threads
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "common/table.hpp"
#include "core/focv_system.hpp"
#include "env/profiles.hpp"
#include "mppt/registry.hpp"
#include "node/harvester_node.hpp"
#include "obs/cli.hpp"
#include "power/coldstart.hpp"
#include "pv/cell_library.hpp"
#include "runtime/sweep.hpp"

namespace {

using namespace focv;

/// MCU energy per controller arithmetic/ADC operation (complexity axis).
constexpr double kJoulePerOp = 1e-9;

/// One scenario class of the grid: a trace plus the node configuration
/// that makes the class what it is (store state, cold-start circuit).
struct ScenarioClass {
  std::string name;
  env::LightTrace trace;
  std::function<void(node::NodeConfig&)> configure;
};

std::vector<ScenarioClass> make_scenarios(bool smoke) {
  const auto store_at = [](double volts) {
    return [volts](node::NodeConfig& c) { c.storage.initial_voltage = volts; };
  };
  const auto cold = [](node::NodeConfig& c) {
    c.storage.initial_voltage = 0.5;
    c.coldstart = power::ColdStartCircuit::Params{};
  };

  std::vector<ScenarioClass> out;
  if (smoke) {
    // Same class names and store states, 30-minute constant/step traces.
    out.push_back({"indoor_office", env::constant_light(500.0, 0.0, 1800.0),
                   store_at(2.5)});
    out.push_back({"outdoor", env::constant_light(0.0, 20e3, 1800.0), store_at(3.0)});
    out.push_back({"wearable_mixed", env::step_light(500.0, 20e3, 900.0, 1800.0),
                   store_at(3.0)});
    out.push_back({"coldstart", env::constant_light(500.0, 0.0, 1800.0), cold});
    return out;
  }
  out.push_back({"indoor_office", env::office_desk_mixed(), store_at(2.5)});
  out.push_back({"outdoor", env::outdoor_day(), store_at(3.0)});
  out.push_back({"wearable_mixed", env::semi_mobile_day(), store_at(3.0)});
  out.push_back({"coldstart", env::office_desk_mixed(), cold});
  return out;
}

/// Default roster: every builtin entry, the paper's system first.
std::vector<std::string> default_roster() {
  return {"focv",  "pando", "inccond", "graddesc", "pilot",
          "photo", "periodic", "fixed", "direct"};
}

struct ScenarioOutcome {
  std::string scenario;
  double duration_s = 0.0;
  bool failed = false;
  std::string error;
  double tracking_efficiency = 0.0;
  double harvested_j = 0.0;
  double net_j = 0.0;
  double normalized_net = 0.0;  ///< net vs the scenario's best positive net
  double coldstart_s = -1.0;
  double downtime_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t model_evals = 0;
  double compute_j = 0.0;  ///< decision compute over the scenario horizon
};

struct ControllerResult {
  std::string spec;          ///< canonical registry spec (leaderboard key)
  std::string display_name;  ///< MpptController::name()
  double overhead_w = 0.0;
  double ops_per_decision = 0.0;
  double decision_period_s = 0.0;  ///< 0 = continuous/analog law
  double compute_w = 0.0;          ///< ops * 1 nJ / period
  std::vector<ScenarioOutcome> outcomes;
  double score = 0.0;  ///< mean normalized net energy across scenarios
};

std::vector<ControllerResult> run_tournament(const std::vector<std::string>& roster,
                                             const std::vector<ScenarioClass>& scenarios,
                                             int jobs) {
  const mppt::Registry& registry = mppt::Registry::instance();

  std::vector<ControllerResult> results;
  for (const std::string& spec : roster) {
    const mppt::ResolvedSpec resolved = registry.resolve(spec);
    const mppt::Registry::Entry& entry = registry.entry(resolved.name);
    ControllerResult r;
    r.spec = resolved.spec();
    r.display_name = registry.make(resolved)->name();
    r.overhead_w = registry.make(resolved)->overhead_power();
    r.ops_per_decision = entry.ops_per_decision;
    if (!entry.period_key.empty()) {
      r.decision_period_s = resolved.value(entry.period_key);
      if (r.decision_period_s > 0.0) {
        r.compute_w = entry.ops_per_decision * kJoulePerOp / r.decision_period_s;
      }
    }
    results.push_back(std::move(r));
  }

  // One sweep per scenario class (each class owns its NodeConfig base);
  // the controller axis fans out on the pool within each sweep.
  for (const ScenarioClass& sc : scenarios) {
    runtime::SweepSpec sweep;
    sweep.add_cell("AM-1815", pv::sanyo_am1815());
    for (const ControllerResult& r : results) sweep.add_controller(r.spec);
    sweep.add_scenario(sc.name, sc.trace);
    sweep.base.load.report_period = 300.0;
    if (sc.configure) sc.configure(sweep.base);

    runtime::SweepOptions options;
    options.jobs = jobs;
    const runtime::SweepResult result = runtime::run_sweep(sweep, options);

    for (std::size_t i = 0; i < results.size(); ++i) {
      const runtime::SweepRecord& rec = result.at(0, i, 0);
      ScenarioOutcome o;
      o.scenario = sc.name;
      o.duration_s = sc.trace.duration();
      o.failed = rec.failed;
      o.error = rec.error;
      if (!rec.failed) {
        o.tracking_efficiency = rec.report.tracking_efficiency();
        o.harvested_j = rec.report.harvested_energy;
        o.net_j = rec.report.net_energy();
        o.coldstart_s = rec.report.coldstart_time;
        o.downtime_s = rec.report.brownout_time;
        o.steps = rec.report.steps;
        o.model_evals = rec.report.model_evals;
        o.compute_j = results[i].compute_w * o.duration_s;
      }
      results[i].outcomes.push_back(std::move(o));
    }
  }

  // Score: per scenario, net energy normalized by the best positive net
  // in that scenario (0 when nothing nets positive — e.g. every tracker
  // below its supply floor); the leaderboard score is the mean across
  // scenarios, so one great outdoor run cannot buy back an indoor loss.
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    double best = 0.0;
    for (const ControllerResult& r : results) {
      if (!r.outcomes[s].failed) best = std::max(best, r.outcomes[s].net_j);
    }
    for (ControllerResult& r : results) {
      ScenarioOutcome& o = r.outcomes[s];
      o.normalized_net =
          (!o.failed && best > 0.0) ? std::max(0.0, o.net_j) / best : 0.0;
    }
  }
  for (ControllerResult& r : results) {
    double sum = 0.0;
    for (const ScenarioOutcome& o : r.outcomes) sum += o.normalized_net;
    r.score = r.outcomes.empty() ? 0.0 : sum / static_cast<double>(r.outcomes.size());
  }

  // Leaderboard order: score descending, canonical spec as tie-break —
  // deterministic no matter the roster order on the command line.
  std::stable_sort(results.begin(), results.end(),
                   [](const ControllerResult& a, const ControllerResult& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.spec < b.spec;
                   });
  return results;
}

std::string leaderboard_json(const std::vector<ControllerResult>& results,
                             const std::vector<ScenarioClass>& scenarios, bool smoke) {
  std::string out = "{\n";
  out += "  \"schema\": \"focv-tournament/v1\",\n";
  out += "  \"cell\": \"AM-1815\",\n";
  out += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  out += "  \"joule_per_op\": " + format_number(kJoulePerOp) + ",\n";
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    out += "    {\"name\": \"" + json_escape(scenarios[i].name) +
           "\", \"duration_s\": " + format_number(scenarios[i].trace.duration()) + "}";
    out += i + 1 < scenarios.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"leaderboard\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ControllerResult& r = results[i];
    out += "    {\"rank\": " + std::to_string(i + 1);
    out += ", \"spec\": \"" + json_escape(r.spec) + "\"";
    out += ", \"controller\": \"" + json_escape(r.display_name) + "\"";
    out += ", \"score\": " + format_number(r.score);
    out += ", \"overhead_w\": " + format_number(r.overhead_w);
    out += ", \"compute\": {\"ops_per_decision\": " + format_number(r.ops_per_decision) +
           ", \"decision_period_s\": " + format_number(r.decision_period_s) +
           ", \"power_w\": " + format_number(r.compute_w) + "}";
    out += ",\n     \"scenarios\": [\n";
    for (std::size_t s = 0; s < r.outcomes.size(); ++s) {
      const ScenarioOutcome& o = r.outcomes[s];
      out += "       {\"scenario\": \"" + json_escape(o.scenario) + "\"";
      if (o.failed) {
        out += ", \"failed\": true, \"error\": \"" + json_escape(o.error) + "\"";
      } else {
        out += ", \"tracking_efficiency\": " + format_number(o.tracking_efficiency);
        out += ", \"harvested_j\": " + format_number(o.harvested_j);
        out += ", \"net_j\": " + format_number(o.net_j);
        out += ", \"normalized_net\": " + format_number(o.normalized_net);
        out += ", \"coldstart_s\": " + format_number(o.coldstart_s);
        out += ", \"downtime_s\": " + format_number(o.downtime_s);
        out += ", \"steps\": " + std::to_string(o.steps);
        out += ", \"model_evals\": " + std::to_string(o.model_evals);
        out += ", \"compute_j\": " + format_number(o.compute_j);
      }
      out += "}";
      out += s + 1 < r.outcomes.size() ? ",\n" : "\n";
    }
    out += "     ]}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void print_leaderboard(const std::vector<ControllerResult>& results) {
  ConsoleTable table({"rank", "spec", "score", "mean eff", "total net [J]",
                      "overhead", "compute"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ControllerResult& r = results[i];
    double eff_sum = 0.0;
    double net_sum = 0.0;
    std::size_t ok = 0;
    for (const ScenarioOutcome& o : r.outcomes) {
      if (o.failed) continue;
      eff_sum += o.tracking_efficiency;
      net_sum += o.net_j;
      ++ok;
    }
    char overhead[32];
    std::snprintf(overhead, sizeof overhead, "%.1f uW", r.overhead_w * 1e6);
    char compute[48];
    if (r.decision_period_s > 0.0) {
      std::snprintf(compute, sizeof compute, "%.0f ops / %.3gs", r.ops_per_decision,
                    r.decision_period_s);
    } else {
      std::snprintf(compute, sizeof compute, "analog");
    }
    table.add_row({std::to_string(i + 1), r.spec, ConsoleTable::num(r.score, 3),
                   ConsoleTable::num(ok > 0 ? eff_sum / static_cast<double>(ok) : 0.0, 3),
                   ConsoleTable::num(net_sum, 3), overhead, compute});
  }
  table.print(std::cout);
}

void print_usage() {
  std::printf(
      "usage: tournament [--smoke] [--list] [--jobs N] [--json PATH]\n"
      "                  [--controller SPEC]...\n"
      "                  %s\n\n",
      obs::CliTelemetry::usage());
  std::printf(
      "Controller specs follow the registry grammar `name[key=value,...]`\n"
      "with unit-suffixed values (10mV, 69s, 1mW, 500lux); see --list for\n"
      "the catalog. Repeat --controller to pick the roster (default: every\n"
      "registered controller at default parameters).\n");
}

}  // namespace

int main(int argc, char** argv) {
  core::register_paper_controller();
  int jobs = bench::parse_jobs_flag(argc, argv);

  bool smoke = false;
  std::string json_path;
  std::vector<std::string> roster;
  obs::CliTelemetry telemetry;
  for (int i = 1; i < argc; ++i) {
    if (telemetry.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("registered controllers:\n%s",
                  mppt::Registry::instance().catalog().c_str());
      return 0;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--controller") == 0 && i + 1 < argc) {
      roster.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "tournament: unknown argument '%s'\n\n", argv[i]);
      print_usage();
      return 2;
    }
  }
  if (roster.empty()) roster = default_roster();
  telemetry.begin();

  // Fail fast on a bad spec, before any simulation runs.
  try {
    for (const std::string& spec : roster) {
      (void)mppt::Registry::instance().resolve(spec);
    }
  } catch (const mppt::SpecError& e) {
    std::fprintf(stderr, "tournament: %s\n", e.what());
    return 2;
  }

  bench::print_header(
      "MPPT tournament -- registered controllers x deployment scenario classes",
      "only the S&H FOCV affords MPPT across the whole indoor..outdoor range; "
      "digital trackers buy efficiency with decision compute");

  const std::vector<ScenarioClass> scenarios = make_scenarios(smoke);
  const std::vector<ControllerResult> results = run_tournament(roster, scenarios, jobs);
  print_leaderboard(results);
  std::printf("\ngrid: %zu controllers x %zu scenarios%s\n", results.size(),
              scenarios.size(), smoke ? " (smoke traces)" : "");

  if (!json_path.empty()) {
    const std::string json = leaderboard_json(results, scenarios, smoke);
    std::ofstream f(json_path, std::ios::binary);
    require(f.good(), "tournament: cannot open " + json_path);
    f << json;
    require(f.good(), "tournament: write failed for " + json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  telemetry.finish();
  return 0;
}
