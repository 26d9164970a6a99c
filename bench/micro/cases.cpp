// The standard microbenchmark suite: hot paths of the behavioural tier.
//
// Full-size workloads mirror the repo's real evaluation shapes (24 h
// scenario days, the Table-I sweep matrix, a Fig.-4 transient window);
// --smoke shrinks every case to a seconds-scale CI gate with identical
// code paths.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/transient.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "core/focv_system.hpp"
#include "core/netlists.hpp"
#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet/soa_internal.hpp"
#include "harness.hpp"
#include "mppt/baselines.hpp"
#include "node/curve_cache.hpp"
#include "node/harvester_node.hpp"
#include "node/sizing.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/prepared_trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace focv::microbench {
namespace {

node::NodeConfig node_config(node::PowerModel model) {
  node::NodeConfig cfg;
  cfg.use_cell(pv::sanyo_am1815());
  cfg.use_controller(core::make_paper_controller());
  cfg.storage.initial_voltage = 3.0;
  cfg.power_model = model;
  return cfg;
}

Counters report_counters(const node::NodeReport& r) {
  return {{"steps", static_cast<double>(r.steps)},
          {"model_evals", static_cast<double>(r.model_evals)},
          {"curve_entries", static_cast<double>(r.curve_entries)},
          {"tracking_efficiency", r.tracking_efficiency()}};
}

CaseSpec simulate_node_case(std::string name, std::string description, bool indoor,
                            node::PowerModel model) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [indoor, model](bool smoke) {
    // The trace is workload input, not the code under test: build once.
    env::LightTrace trace =
        smoke ? env::constant_light(indoor ? 500.0 : 20000.0, 0.0, 600.0)
              : (indoor ? env::office_desk_mixed(env::OfficeDayParams{})
                        : env::outdoor_day({}));
    node::NodeConfig cfg = node_config(model);
    return [trace = std::move(trace), cfg = std::move(cfg)]() -> Counters {
      const node::NodeReport report = node::simulate_node(trace, cfg);
      return report_counters(report);
    };
  };
  return spec;
}

CaseSpec simulate_node_event_case(std::string name, std::string description, bool indoor,
                                  std::string controller) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [indoor, controller = std::move(controller)](bool smoke) {
    // shared_ptr (not a by-value capture): the PreparedTrace holds the
    // trace by reference, so its address must survive the closure copy.
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(indoor ? 500.0 : 20000.0, 0.0, 600.0)
              : (indoor ? env::office_desk_mixed(env::OfficeDayParams{})
                        : env::outdoor_day({})));
    node::NodeConfig cfg = node_config(node::PowerModel::kSurrogate);
    cfg.use_controller(controller);
    cfg.stepper = node::Stepper::kEvent;
    // The event stepper's deployment mode (fleet chunks, sweeps) shares
    // one PreparedTrace per environment and a warm CurveCache across
    // runs, so the per-run cost is O(events). Build both here and run
    // once so the timed closure measures that steady state rather than
    // the one-time O(trace) preprocessing the sharing amortises away.
    auto prep = std::make_shared<sched::PreparedTrace>(*trace, *cfg.cell_model,
                                                       sched::segmentation_for(cfg.events));
    auto cache = std::make_shared<node::CurveCache>(
        *cfg.cell_model, cfg.temperature_k,
        node::CurveCache::Options{cfg.power_model, cfg.surrogate_points});
    (void)node::simulate_node(*trace, cfg, cache.get(), prep.get());
    return [trace = std::move(trace), cfg = std::move(cfg), prep = std::move(prep),
            cache = std::move(cache)]() -> Counters {
      const node::NodeReport report =
          node::simulate_node(*trace, cfg, cache.get(), prep.get());
      Counters c = report_counters(report);
      c.emplace_back("events", static_cast<double>(report.events));
      return c;
    };
  };
  return spec;
}

runtime::SweepSpec sweep_spec(bool smoke) {
  runtime::SweepSpec spec;
  spec.add_cell("AM-1815", pv::sanyo_am1815());
  spec.add_cell("Schott", pv::schott_asi_1116929());
  spec.add_controller("proposed", core::make_paper_controller());
  spec.add_controller("fixed", mppt::FixedVoltageController{});
  spec.add_controller("pilot", mppt::PilotCellFocvController{});
  const double duration = smoke ? 300.0 : 4.0 * 3600.0;
  spec.add_scenario("lux200", env::constant_light(200.0, 0.0, duration));
  spec.add_scenario("lux1000", env::constant_light(1000.0, 0.0, duration));
  spec.add_scenario("lux5000", env::constant_light(5000.0, 0.0, duration));
  spec.base.storage.initial_voltage = 3.0;
  spec.base.load.report_period = 120.0;
  return spec;
}

CaseSpec sweep_case(std::string name, std::string description, int jobs) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [jobs](bool smoke) {
    // `jobs == 0` used to be forwarded verbatim, so the jobs_requested
    // counter recorded 0 and nothing checked that the pool actually
    // fanned out. Resolve it to the hardware thread count here — floored
    // at 2, because on a single-core container default_thread_count()
    // is 1 and the "N-job" case would silently measure the serial path —
    // and assert the sweep genuinely ran > 1 worker.
    const int resolved =
        jobs > 0 ? jobs : std::max(2, runtime::ThreadPool::default_thread_count());
    return [spec = sweep_spec(smoke), resolved]() -> Counters {
      runtime::SweepOptions opt;
      opt.jobs = resolved;
      const runtime::SweepResult r = runtime::run_sweep(spec, opt);
      require(r.jobs_used() == resolved,
              "sweep bench: pool did not use the requested worker count");
      if (resolved > 1) {
        require(r.jobs_used() > 1, "sweep bench: multi-job case ran single-threaded");
      }
      return {{"jobs_requested", static_cast<double>(resolved)},
              {"jobs_used", static_cast<double>(r.jobs_used())},
              {"records", static_cast<double>(r.records().size())},
              {"total_steps", static_cast<double>(r.total_steps())},
              {"total_model_evals", static_cast<double>(r.total_model_evals())}};
    };
  };
  return spec;
}

CaseSpec circuit_transient_case() {
  CaseSpec spec;
  spec.name = "circuit_transient_window";
  spec.description =
      "Fig.-3 system netlist, adaptive transient across the first sampling "
      "operation (120 ms full, 20 ms smoke)";
  spec.make = [](bool smoke) {
    const double t_stop = smoke ? 0.02 : 0.12;
    return [t_stop]() -> Counters {
      circuit::Circuit ckt;
      pv::Conditions c;
      c.illuminance_lux = 1000.0;
      core::build_fig3_system(ckt, pv::sanyo_am1815(), c, core::SystemSpec{});
      circuit::TransientOptions opt;
      opt.t_stop = t_stop;
      opt.start_from_dc = false;
      opt.dt_initial = 1e-6;
      opt.dt_max = 0.25;
      opt.dv_step_max = 0.4;
      const circuit::Trace tr = circuit::transient_analyze(ckt, opt);
      return {{"trace_points", static_cast<double>(tr.time().size())}};
    };
  };
  return spec;
}

CaseSpec cell_solves_case() {
  CaseSpec spec;
  spec.name = "cell_model_solves";
  spec.description =
      "raw implicit-junction solves: Voc root + MPP search + P(V) terminal "
      "solve across a log-illuminance ladder";
  spec.make = [](bool smoke) {
    const int levels = smoke ? 16 : 256;
    return [levels]() -> Counters {
      const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
      pv::Conditions c;
      double checksum = 0.0;
      for (int i = 0; i < levels; ++i) {
        c.illuminance_lux = 50.0 * std::exp(7.0 * i / levels);  // 50 .. ~55k lux
        const double voc = cell.open_circuit_voltage(c);
        const pv::MppResult mpp = cell.maximum_power_point(c, voc);
        checksum += mpp.power + cell.power_at(0.75 * voc, c);
      }
      return {{"levels", static_cast<double>(levels)},
              {"solves", static_cast<double>(3 * levels)},
              {"checksum", checksum}};
    };
  };
  return spec;
}

CaseSpec fleet_step_case() {
  CaseSpec spec;
  spec.name = "fleet_step";
  spec.description =
      "64-node mixed-policy fleet over the office day through run_fleet's "
      "chunked stepper (16 nodes on a 10 min trace in smoke)";
  spec.make = [](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(500.0, 0.0, 600.0)
              : env::office_desk_mixed(env::OfficeDayParams{}));
    const std::size_t nodes = smoke ? 16 : 64;
    return [trace = std::move(trace), nodes]() -> Counters {
      fleet::FleetSpec fs;
      fs.node_count = nodes;
      fs.use_cell(pv::sanyo_am1815());
      fs.add_environment("bench", trace);
      fs.add_policy("focv", 0.7);
      fs.add_policy("direct", 0.3);
      fs.base.storage.initial_voltage = 3.0;
      fs.base.load.report_period = 120.0;
      fleet::FleetOptions opt;
      opt.jobs = 1;  // measures the stepper, not the pool
      const fleet::FleetReport r = fleet::run_fleet(fs, opt);
      return {{"nodes_ok", static_cast<double>(r.nodes_ok)},
              {"total_steps", static_cast<double>(r.steps)},
              {"model_evals", static_cast<double>(r.model_evals)},
              {"energy_neutral_nodes", static_cast<double>(r.energy_neutral_nodes)},
              {"mean_tracking_efficiency", r.mean_tracking_efficiency()}};
    };
  };
  return spec;
}

CaseSpec fleet_step_event_case() {
  CaseSpec spec;
  spec.name = "fleet_step_event";
  spec.description =
      "the same 64-node mixed-policy fleet on the event-driven "
      "macro-stepper (base.stepper = kEvent); run_fleet shares one "
      "PreparedTrace per environment and warm chunk caches do the rest";
  spec.make = [](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(500.0, 0.0, 600.0)
              : env::office_desk_mixed(env::OfficeDayParams{}));
    const std::size_t nodes = smoke ? 16 : 64;
    return [trace = std::move(trace), nodes]() -> Counters {
      fleet::FleetSpec fs;
      fs.node_count = nodes;
      fs.use_cell(pv::sanyo_am1815());
      fs.add_environment("bench", trace);
      fs.add_policy("focv", 0.7);
      fs.add_policy("direct", 0.3);
      fs.base.storage.initial_voltage = 3.0;
      fs.base.load.report_period = 120.0;
      fs.base.stepper = node::Stepper::kEvent;
      fleet::FleetOptions opt;
      opt.jobs = 1;  // measures the stepper, not the pool
      const fleet::FleetReport r = fleet::run_fleet(fs, opt);
      return {{"nodes_ok", static_cast<double>(r.nodes_ok)},
              {"total_steps", static_cast<double>(r.steps)},
              {"events", static_cast<double>(r.events)},
              {"model_evals", static_cast<double>(r.model_evals)},
              {"energy_neutral_nodes", static_cast<double>(r.energy_neutral_nodes)},
              {"mean_tracking_efficiency", r.mean_tracking_efficiency()}};
    };
  };
  return spec;
}

/// `lanes`: run the SoA engine's lane kernel at the host's widest width,
/// else pin the scalar kernel.
CaseSpec fleet_soa_case(std::string name, std::string description,
                        fleet::FleetEngine engine, bool lanes = false) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [engine, lanes](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(500.0, 0.0, 600.0)
              : env::office_desk_mixed(env::OfficeDayParams{}));
    const std::size_t nodes = smoke ? 64 : 10000;
    return [trace = std::move(trace), nodes, engine, lanes]() -> Counters {
      std::optional<fleet::soa::internal::ScopedLanesWidth> pin;
      if (!lanes) pin.emplace(0);
      fleet::FleetSpec fs;
      fs.node_count = nodes;
      fs.use_cell(pv::sanyo_am1815());
      fs.add_environment("bench", trace);
      // All three axes batch (focv closed form, fixed/pilot memoryless),
      // so the SoA cases time the struct-of-arrays sweep itself; the
      // _ref_event twin runs the identical roster per node.
      fs.add_policy("focv", 0.7);
      fs.add_policy("fixed", 0.15);
      fs.add_policy("pilot", 0.15);
      fs.base.storage.initial_voltage = 3.0;
      fs.base.load.report_period = 120.0;
      fs.base.stepper = node::Stepper::kEvent;
      fs.engine = engine;
      // One SoA sweep per chunk: the default 64-node chunks would call
      // the batch engine ~150x per run and time its setup, not its loop.
      fs.chunk_size = 4096;
      fleet::FleetOptions opt;
      opt.jobs = 1;               // measures the engine, not the pool
      opt.analyze_load = false;   // load concurrency is O(nodes log nodes)
                                  // bookkeeping shared by both engines
      const fleet::FleetReport r = fleet::run_fleet(fs, opt);
      require(r.nodes_failed == 0, "fleet_soa bench: node failures");
      return {{"nodes_ok", static_cast<double>(r.nodes_ok)},
              {"total_steps", static_cast<double>(r.steps)},
              {"events", static_cast<double>(r.events)},
              {"model_evals", static_cast<double>(r.model_evals)},
              {"energy_neutral_nodes", static_cast<double>(r.energy_neutral_nodes)},
              {"mean_tracking_efficiency", r.mean_tracking_efficiency()}};
    };
  };
  return spec;
}

/// A graddesc + pando group on the SoA engine: with `lanes` its lit spans
/// tick in lockstep lanes (fleet/hill.hpp); with the lane width pinned
/// to 0 every node stays on the per-node path. A `focv` axis too light
/// to be drawn gives the spec its SoA plan. speedup_fleet_hill_lanes in
/// `derived` is the lane gain (byte-identical reports).
CaseSpec fleet_hill_case(std::string name, std::string description, bool lanes) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [lanes](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(2000.0, 0.0, 600.0) : env::outdoor_day({}));
    const std::size_t nodes = smoke ? 16 : 64;
    return [trace = std::move(trace), nodes, lanes]() -> Counters {
      std::optional<fleet::soa::internal::ScopedLanesWidth> pin;
      if (!lanes) pin.emplace(0);
      fleet::FleetSpec fs;
      fs.node_count = nodes;
      fs.use_cell(pv::sanyo_am1815());
      fs.add_environment("bench", trace);
      fs.add_policy("graddesc", 0.5);
      fs.add_policy("pando", 0.5);
      fs.add_policy("focv", 1e-12);
      fs.base.storage.initial_voltage = 2.5;
      fs.base.load.report_period = 120.0;
      fs.base.stepper = node::Stepper::kEvent;
      fs.engine = fleet::FleetEngine::kSoa;
      fleet::FleetOptions opt;
      opt.jobs = 1;
      opt.analyze_load = false;
      const fleet::FleetReport r = fleet::run_fleet(fs, opt);
      require(r.nodes_failed == 0, "fleet_hill bench: node failures");
      return {{"nodes_ok", static_cast<double>(r.nodes_ok)},
              {"total_steps", static_cast<double>(r.steps)},
              {"harvested_j", r.harvested_j},
              {"mean_tracking_efficiency", r.mean_tracking_efficiency()}};
    };
  };
  return spec;
}

CaseSpec obs_overhead_soa_case(std::string name, std::string description, bool telemetry) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [telemetry](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(500.0, 0.0, 600.0)
              : env::office_desk_mixed(env::OfficeDayParams{}));
    const std::size_t nodes = smoke ? 64 : 10000;
    return [trace = std::move(trace), nodes, telemetry]() -> Counters {
      // Same roster as fleet_soa_float; the toggle sits inside the timed
      // closure (see obs_overhead_case) so the enabled twin pays exactly
      // what a `--metrics` fleet run pays, aggregate flushes included.
      fleet::FleetSpec fs;
      fs.node_count = nodes;
      fs.use_cell(pv::sanyo_am1815());
      fs.add_environment("bench", trace);
      fs.add_policy("focv", 0.7);
      fs.add_policy("fixed", 0.15);
      fs.add_policy("pilot", 0.15);
      fs.base.storage.initial_voltage = 3.0;
      fs.base.load.report_period = 120.0;
      fs.base.stepper = node::Stepper::kEvent;
      fs.engine = fleet::FleetEngine::kSoa;
      fs.chunk_size = 4096;
      fleet::FleetOptions opt;
      opt.jobs = 1;
      opt.analyze_load = false;
      if (telemetry) obs::set_enabled(true);
      const fleet::FleetReport r = fleet::run_fleet(fs, opt);
      if (telemetry) {
        obs::set_enabled(false);
        obs::reset_all();
      }
      require(r.nodes_failed == 0, "obs_overhead_soa bench: node failures");
      return {{"nodes_ok", static_cast<double>(r.nodes_ok)},
              {"total_steps", static_cast<double>(r.steps)},
              {"events", static_cast<double>(r.events)},
              {"energy_neutral_nodes", static_cast<double>(r.energy_neutral_nodes)},
              {"mean_tracking_efficiency", r.mean_tracking_efficiency()}};
    };
  };
  return spec;
}

CaseSpec obs_overhead_case(std::string name, std::string description, bool telemetry) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [telemetry](bool smoke) {
    env::LightTrace trace = smoke ? env::constant_light(500.0, 0.0, 600.0)
                                  : env::office_desk_mixed(env::OfficeDayParams{});
    node::NodeConfig cfg = node_config(node::PowerModel::kSurrogate);
    return [trace = std::move(trace), cfg = std::move(cfg), telemetry]() -> Counters {
      // The toggle sits inside the timed closure on purpose: the enabled
      // case pays exactly what a `--trace` run pays, including the
      // event/metric recording; reset_all() keeps the trace buffer from
      // growing across repetitions (its cost is O(events), not timed
      // against the disabled baseline unfairly since clearing a handful
      // of vectors is microseconds against a multi-ms run).
      if (telemetry) obs::set_enabled(true);
      const node::NodeReport report = node::simulate_node(trace, cfg);
      if (telemetry) {
        obs::set_enabled(false);
        obs::reset_all();
      }
      return report_counters(report);
    };
  };
  return spec;
}

// ---------------------------------------------------------------------------
// focv::serve latency cases. An in-process Server (ephemeral loopback
// port) is started once per case and reused across repetitions; each
// timed repetition drives a pipelined burst of identical warm sizing
// requests from several client threads and reports a latency statistic
// via the "__seconds" self-timed convention — serve_sizing_p50/p99 gate
// the warm-path round-trip, serve_sizing_qps gates seconds-per-query
// (1/qps, so the 2x regression rule reads it like any other case).
// serve_sizing_oneshot times what the same query costs without the
// server resident (trace build + sizing solve, the sizing_tool path):
// the ratio against serve_sizing_p50 is the ">=10x warmer" claim.

struct ServeBurstStats {
  double p50_s = 0.0;
  double p99_s = 0.0;
  double qps = 0.0;
  double responses = 0.0;
};

ServeBurstStats serve_warm_burst(std::uint16_t port, int connections, int inflight,
                                 int total_requests) {
  using BurstClock = std::chrono::steady_clock;
  const int per_connection = total_requests / connections;
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  const BurstClock::time_point start = BurstClock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      std::string error;
      if (!client.connect(port, error)) {
        failures.fetch_add(1);
        return;
      }
      const std::uint64_t window = static_cast<std::uint64_t>(inflight) * 2;
      std::vector<BurstClock::time_point> sent_at(window);
      std::vector<double>& out = latencies[static_cast<std::size_t>(c)];
      out.reserve(static_cast<std::size_t>(per_connection));
      std::uint64_t next_id = 0;
      std::uint64_t outstanding = 0;
      const auto fire = [&] {
        const std::uint64_t id = next_id++;
        sent_at[id % window] = BurstClock::now();
        return client.send(R"({"op":"sizing","env":"office","id":)" +
                           std::to_string(id) + "}");
      };
      std::string payload;
      Json response;
      while (static_cast<int>(next_id) < per_connection || outstanding > 0) {
        while (static_cast<int>(next_id) < per_connection &&
               outstanding < static_cast<std::uint64_t>(inflight)) {
          if (!fire()) {
            failures.fetch_add(1);
            return;
          }
          ++outstanding;
        }
        if (!client.recv(payload)) {
          failures.fetch_add(1);
          return;
        }
        --outstanding;
        const BurstClock::time_point now = BurstClock::now();
        if (!Json::parse(payload, response) ||
            !response.bool_or("ok", false)) {
          failures.fetch_add(1);
          return;
        }
        const Json* id = response.find("id");
        if (id != nullptr && id->is_number()) {
          const std::uint64_t got = static_cast<std::uint64_t>(id->as_number());
          out.push_back(
              std::chrono::duration<double>(now - sent_at[got % window]).count());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(BurstClock::now() - start).count();
  require(failures.load() == 0, "serve bench: burst request failed");

  std::vector<double> all;
  for (std::vector<double>& part : latencies) {
    all.insert(all.end(), part.begin(), part.end());
  }
  require(!all.empty(), "serve bench: no latencies recorded");
  std::sort(all.begin(), all.end());
  ServeBurstStats stats;
  stats.responses = static_cast<double>(all.size());
  stats.p50_s = all[all.size() / 2];
  stats.p99_s = all[static_cast<std::size_t>(0.99 * static_cast<double>(all.size() - 1))];
  stats.qps = elapsed_s > 0.0 ? static_cast<double>(all.size()) / elapsed_s : 0.0;
  return stats;
}

enum class ServeStat { kP50, kP99, kSecondsPerQuery };

CaseSpec serve_case(std::string name, std::string description, ServeStat stat) {
  CaseSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.make = [stat](bool smoke) {
    auto server = std::make_shared<serve::Server>(serve::ServerOptions{});
    std::string error;
    require(server->start(error), "serve bench: server start failed");
    {
      // First touch builds the office environment and fills the response
      // cache — setup, not the serving path under measurement.
      serve::Client client;
      require(client.connect(server->port(), error), "serve bench: connect failed");
      std::string response;
      require(client.request(R"({"op":"sizing","env":"office","id":0})", response),
              "serve bench: warm-up failed");
    }
    const int connections = smoke ? 4 : 8;
    const int inflight = smoke ? 32 : 128;
    const int total = smoke ? 2000 : 20000;
    return [server, stat, connections, inflight, total]() -> Counters {
      const ServeBurstStats s =
          serve_warm_burst(server->port(), connections, inflight, total);
      double seconds = 0.0;
      switch (stat) {
        case ServeStat::kP50: seconds = s.p50_s; break;
        case ServeStat::kP99: seconds = s.p99_s; break;
        case ServeStat::kSecondsPerQuery: seconds = s.qps > 0.0 ? 1.0 / s.qps : 0.0; break;
      }
      return {{"__seconds", seconds},
              {"responses", s.responses},
              {"concurrent_inflight", static_cast<double>(connections * inflight)},
              {"p50_ms", s.p50_s * 1e3},
              {"p99_ms", s.p99_s * 1e3},
              {"qps", s.qps}};
    };
  };
  return spec;
}

CaseSpec serve_oneshot_case() {
  CaseSpec spec;
  spec.name = "serve_sizing_oneshot";
  spec.description =
      "the same office sizing query answered cold, no resident server: "
      "trace build + energy-neutrality solve (the one-shot sizing_tool "
      "path); compare against serve_sizing_p50 for the warm-serving gain";
  spec.make = [](bool smoke) {
    return [smoke]() -> Counters {
      env::LightTrace trace = smoke ? env::constant_light(500.0, 0.0, 600.0)
                                    : env::office_desk_mixed(env::OfficeDayParams{});
      node::SizingQuery query;
      query.use_cell(pv::sanyo_am1815());
      query.use_scenario(std::move(trace));
      query.use_controller(core::make_paper_controller());
      const node::SizingResult result = node::size_for_energy_neutrality(query);
      return {{"area_factor", result.area_factor},
              {"storage_j", result.storage_j},
              {"feasible", result.feasible ? 1.0 : 0.0}};
    };
  };
  return spec;
}

// The serve sizing path past the response cache: each repetition asks the
// resident server for one office sizing at a report period no earlier
// repetition used, so the response cache misses while the context's
// recorded tape hits, and the round-trip is the probe replays alone.
CaseSpec serve_warm_tape_case() {
  CaseSpec spec;
  spec.name = "serve_sizing_warm_tape";
  spec.description =
      "one office sizing round-trip against a resident focv-serve at a fresh "
      "report period: response-cache miss, resident tape hit (probe replays only)";
  spec.make = [](bool) {
    auto server = std::make_shared<serve::Server>(serve::ServerOptions{});
    std::string error;
    require(server->start(error), "serve bench: server start failed");
    auto client = std::make_shared<serve::Client>();
    require(client->connect(server->port(), error), "serve bench: connect failed");
    auto next = std::make_shared<int>(0);
    const auto ask = [server, client, next]() -> Counters {
      // Periods 60.001 s, 60.002 s, ...: all distinct cache keys.
      const double period = 60.0 + 1e-3 * ++*next;
      Json response;
      std::string error;
      require(client->call(R"({"op":"sizing","env":"office","report_period_s":)" +
                               format_number(period) + "}",
                           response, error),
              "serve bench: sizing failed");
      return {{"report_period_s", period}};
    };
    // First touch warms the office environment and records its tape:
    // setup, not the path under measurement.
    ask();
    return ask;
  };
  return spec;
}

// The per-probe sizing loop: P&O reads the power it harvested, so every
// area probe re-steps it on the scaled cell. Context-free, like the
// sizing_tool path; the trace is workload input and built once.
CaseSpec sizing_outdoor_pando_case() {
  CaseSpec spec;
  spec.name = "sizing_outdoor_pando";
  spec.description =
      "energy-neutral sizing of a P&O node over the outdoor day, no "
      "SizingContext: the per-probe loop that laws reading their own "
      "harvest keep";
  spec.make = [](bool smoke) {
    auto trace = std::make_shared<const env::LightTrace>(
        smoke ? env::constant_light(20000.0, 0.0, 600.0) : env::outdoor_day({}));
    return [trace]() -> Counters {
      node::SizingQuery query;
      query.use_cell(pv::sanyo_am1815());
      query.use_scenario(*trace);
      query.use_controller(std::string("pando"));
      const node::SizingResult result = node::size_for_energy_neutrality(query);
      return {{"area_factor", result.area_factor},
              {"storage_j", result.storage_j},
              {"feasible", result.feasible ? 1.0 : 0.0}};
    };
  };
  return spec;
}

}  // namespace

void register_default_cases() {
  std::vector<CaseSpec>& r = registry();
  r.push_back(simulate_node_case(
      "simulate_node_24h_indoor_surrogate",
      "office-day 24 h behavioural run, surrogate power model (default)",
      /*indoor=*/true, node::PowerModel::kSurrogate));
  r.push_back(simulate_node_case(
      "simulate_node_24h_indoor_exact",
      "office-day 24 h behavioural run, exact per-step solves",
      /*indoor=*/true, node::PowerModel::kExact));
  r.push_back(simulate_node_case(
      "simulate_node_24h_outdoor_surrogate",
      "outdoor 24 h behavioural run, surrogate power model (default)",
      /*indoor=*/false, node::PowerModel::kSurrogate));
  r.push_back(simulate_node_case(
      "simulate_node_24h_outdoor_exact",
      "outdoor 24 h behavioural run, exact per-step solves",
      /*indoor=*/false, node::PowerModel::kExact));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_indoor_event",
      "office-day 24 h run on the event-driven macro-stepper, shared "
      "PreparedTrace + warm CurveCache (the fleet/sweep deployment mode)",
      /*indoor=*/true, "focv"));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_outdoor_event",
      "outdoor 24 h run on the event-driven macro-stepper, shared "
      "PreparedTrace + warm CurveCache",
      /*indoor=*/false, "focv"));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_indoor_pando_event",
      "office-day 24 h P&O run on the event-driven macro-stepper: the "
      "1500 lux supply floor gates the whole day, so it is all store "
      "intervals",
      /*indoor=*/true, "pando"));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_indoor_pilot_event",
      "office-day 24 h pilot-cell run on the event-driven macro-stepper: "
      "the day crosses the 500 lux supply floor inside ratio-band "
      "segments, which split into floor runs",
      /*indoor=*/true, "pilot"));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_outdoor_graddesc_event",
      "outdoor 24 h gradient-descent run on the event-driven "
      "macro-stepper: night gated in closed form, daylight ticked per step",
      /*indoor=*/false, "graddesc"));
  r.push_back(simulate_node_event_case(
      "simulate_node_24h_outdoor_direct_event",
      "outdoor 24 h direct-connection run on the event-driven "
      "macro-stepper: the store starts at 3.0 V and sits full from "
      "about 08:00, where the store-drift guard is floored at 60 s",
      /*indoor=*/false, "direct"));
  r.push_back(sweep_case("sweep_jobs1",
                         "2 cells x 3 controllers x 3 scenarios, single-threaded",
                         /*jobs=*/1));
  r.push_back(sweep_case("sweep_jobsN",
                         "2 cells x 3 controllers x 3 scenarios, one worker per "
                         "hardware thread",
                         /*jobs=*/0));
  r.push_back(circuit_transient_case());
  r.push_back(cell_solves_case());
  r.push_back(fleet_step_case());
  r.push_back(fleet_step_event_case());
  r.push_back(fleet_soa_case(
      "fleet_soa_ref_event",
      "10k-node all-batchable roster on the per-node event stepper — the "
      "reference workload for the SoA speedup ratio",
      fleet::FleetEngine::kPerNode));
  r.push_back(fleet_soa_case(
      "fleet_soa_float",
      "identical roster on the struct-of-arrays engine's node-major "
      "scalar kernel, float dense tables; speedup_fleet_soa in `derived` "
      "is the per-node gain",
      fleet::FleetEngine::kSoa));
  r.push_back(fleet_soa_case(
      "fleet_soa_simd_float",
      "identical roster on the interval-major lane-batched kernel, float "
      "tables; speedup_fleet_simd in `derived` is the lanes-over-scalar "
      "gain (byte-identical reports)",
      fleet::FleetEngine::kSoa, /*lanes=*/true));
  r.push_back(fleet_hill_case(
      "fleet_hill_pernode",
      "64 outdoor graddesc + pando nodes on the SoA engine with the lane width pinned to 0: "
      "every lit step ticks on the per-node path",
      /*lanes=*/false));
  r.push_back(fleet_hill_case(
      "fleet_hill_lanes",
      "identical group at the host's lane width: lit spans tick in lockstep lanes; "
      "speedup_fleet_hill_lanes in `derived` is the lane gain (byte-identical reports)",
      /*lanes=*/true));
  r.push_back(obs_overhead_case(
      "obs_overhead_disabled",
      "office-day 24 h behavioural run with focv::obs telemetry off (the "
      "branch-on-atomic no-op path)",
      /*telemetry=*/false));
  r.push_back(obs_overhead_case(
      "obs_overhead_enabled",
      "identical workload with focv::obs recording events, spans and "
      "histograms; overhead_obs_overhead in `derived` is the tax",
      /*telemetry=*/true));
  r.push_back(obs_overhead_soa_case(
      "obs_overhead_soa_disabled",
      "10k-node SoA fleet sweep with focv::obs telemetry off — the "
      "fleet-scale twin of obs_overhead_disabled",
      /*telemetry=*/false));
  r.push_back(obs_overhead_soa_case(
      "obs_overhead_soa_enabled",
      "identical SoA sweep with telemetry recording axis-run spans and "
      "fleet.soa.* counters; overhead_obs_overhead_soa is the tax",
      /*telemetry=*/true));
  r.push_back(serve_case(
      "serve_sizing_p50",
      "median round-trip of a warm sizing query against an in-process "
      "focv-serve (pipelined multi-connection burst, response-cache path)",
      ServeStat::kP50));
  r.push_back(serve_case(
      "serve_sizing_p99",
      "99th-percentile round-trip of the same warm sizing burst — the "
      "tail the CI regression gate watches",
      ServeStat::kP99));
  r.push_back(serve_case(
      "serve_sizing_qps",
      "seconds-per-query (1/qps) of the warm sizing burst, so lower is "
      "better under the standard regression rule",
      ServeStat::kSecondsPerQuery));
  r.push_back(serve_oneshot_case());
  r.push_back(serve_warm_tape_case());
  r.push_back(sizing_outdoor_pando_case());
}

}  // namespace focv::microbench
