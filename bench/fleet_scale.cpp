// Fleet-size scaling bench: the struct-of-arrays engine from 10 to
// 1,000,000 nodes on a 24 h horizon.
//
// Each ladder rung runs the SoA engine, byte-compares the focv-fleet/v1
// JSON of a --jobs 1 run against a --jobs N run (the determinism
// contract), and up to 10k nodes also times the per-node MacroStepper
// on the identical roster — the "x per node" column is the SoA speedup
// the fleet_soa_* micro cases pin at 10k. Peak RSS is sampled per rung: the
// schedules and curve tables are shared per environment and per-node
// state is transient, so memory must stay far below the 2 GiB budget
// all the way to a million nodes.
//
// Each rung also times the node-major scalar SoA kernel on the same
// roster and byte-compares it against the lane kernel — the "x kern"
// column is the interval-major lane speedup, and "kern ==" is the
// kernel byte-identity contract checked at every scale.
//
//   ./build/bench/fleet_scale             # full ladder, 10 -> 1M nodes
//   ./build/bench/fleet_scale --smoke     # CI-sized ladder, 10 -> 200
//   ./build/bench/fleet_scale --gate100k  # CI gate: 100k nodes
//                                         # byte-identical across jobs,
//                                         # RSS < 2048 MiB
//   ./build/bench/fleet_scale --jobs N    # threaded-leg worker count
//                                         # (0 = hardware concurrency;
//                                         # default max(8, hardware))
//   ./build/bench/fleet_scale --help      # usage; any unknown argument
//                                         # prints it and exits 2
//
// The shared telemetry flags (--trace/--metrics/--snapshot/--flight)
// record the ladder under focv::obs: fleet_chunk/soa_axis_run spans,
// fleet.soa.* batch counters and the per-node histograms. The
// byte-compare legs are unaffected — telemetry never touches exports.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "env/profiles.hpp"
#include "fleet/fleet.hpp"
#include "fleet/soa.hpp"
#include "fleet/soa_internal.hpp"
#include "node/curve_cache.hpp"
#include "obs/cli.hpp"
#include "pv/cell_library.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/prepared_trace.hpp"

namespace {

/// Peak resident set size so far [MiB] (Linux VmHWM; 0 elsewhere).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      long kib = 0;
      std::sscanf(line.c_str() + 6, "%ld", &kib);
      return static_cast<double>(kib) / 1024.0;
    }
  }
  return 0.0;
}

struct Environs {
  std::shared_ptr<const focv::env::LightTrace> office, corridor, outdoor;
};

focv::fleet::FleetSpec make_spec(std::size_t nodes, const Environs& env,
                                 focv::fleet::FleetEngine engine) {
  using namespace focv;
  fleet::FleetSpec spec;
  spec.node_count = nodes;
  spec.root_seed = 2024;
  spec.use_cell(pv::sanyo_am1815());
  spec.add_environment("office_desk", env.office, 0.55);
  spec.add_environment("corridor", env.corridor, 0.25);
  spec.add_environment("outdoor", env.outdoor, 0.20);
  // All three axes batch (focv closed form; fixed/pilot memoryless), so
  // the ladder exercises the SoA sweep itself, not the fallback path.
  spec.add_policy("focv", 0.70);
  spec.add_policy("fixed", 0.15);
  spec.add_policy("pilot", 0.15);
  spec.base.storage.initial_voltage = 2.5;
  spec.base.load.report_period = 120.0;
  spec.base.stepper = node::Stepper::kEvent;
  spec.chunk_size = 4096;  // one SoA sweep per chunk, still >200 parallel grains at 1M
  spec.engine = engine;
  return spec;
}

struct PairResult {
  focv::fleet::FleetReport serial;  ///< the jobs=1 reference run
  bool identical = false;           ///< jobs=N JSON byte-equal to jobs=1
};

PairResult run_pair(const focv::fleet::FleetSpec& spec, int jobs, bool analyze_load) {
  focv::fleet::FleetOptions serial;
  serial.jobs = 1;
  serial.analyze_load = analyze_load;
  PairResult out;
  out.serial = focv::fleet::run_fleet(spec, serial);
  focv::fleet::FleetOptions threaded;
  threaded.jobs = jobs;
  threaded.analyze_load = analyze_load;
  const focv::fleet::FleetReport par = focv::fleet::run_fleet(spec, threaded);
  out.identical = par.to_json() == out.serial.to_json();
  // The report must acknowledge the worker count it actually ran with —
  // a silent fallback to one worker would fake the determinism compare.
  if (out.serial.jobs_used != 1 || par.jobs_used != jobs) {
    std::fprintf(stderr, "FAIL: jobs_used %d/%d, expected 1/%d\n", out.serial.jobs_used,
                 par.jobs_used, jobs);
    out.identical = false;
  }
  return out;
}

/// Shared-table footprint of the SoA plan for this spec [bytes].
std::size_t plan_table_bytes(const focv::fleet::FleetSpec& spec) {
  using namespace focv;
  const env::SegmentationOptions seg = sched::segmentation_for(spec.base.events);
  std::vector<std::optional<sched::PreparedTrace>> prepared;
  for (const fleet::EnvironmentAxis& e : spec.environments) {
    prepared.emplace_back(std::in_place, *e.trace, *spec.cell, seg);
  }
  node::CurveCache cache(*spec.cell, spec.base.temperature_k,
                         node::CurveCache::Options{spec.base.power_model,
                                                  spec.base.surrogate_points});
  const auto plan =
      fleet::soa::build_plan(spec, fleet::effective_policies(spec), prepared, cache);
  if (!plan) return 0;
  std::size_t bytes = 0;
  for (const fleet::soa::EnvPlan& e : plan->envs) bytes += e.tables.bytes();
  return bytes;
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [--smoke | --gate100k] [--jobs N] %s\n", argv0,
               focv::obs::CliTelemetry::usage());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace focv;

  bool smoke = false;
  bool gate100k = false;
  int jobs_arg = -1;  // -1: flag absent
  obs::CliTelemetry telemetry;
  for (int i = 1; i < argc; ++i) {
    if (telemetry.consume(argc, argv, i)) continue;
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--gate100k") == 0) {
      gate100k = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_arg = std::atoi(argv[++i]);
      if (jobs_arg < 0) {
        std::fprintf(stderr, "FAIL: --jobs must be >= 0 (0 = hardware concurrency)\n");
        return 2;
      }
    } else {
      // An unknown flag must not fall through to the full 10 -> 1M
      // ladder on every core.
      std::fprintf(stderr, "fleet_scale: unknown argument '%s'\n", argv[i]);
      print_usage(stderr, argv[0]);
      return 2;
    }
  }
  telemetry.begin();

  std::printf("building the shared 24 h environments...\n");
  Environs environs;
  environs.office = std::make_shared<const env::LightTrace>(env::office_desk_mixed());
  environs.corridor =
      std::make_shared<const env::LightTrace>(environs.office->scaled(0.65, 0.1));
  environs.outdoor = std::make_shared<const env::LightTrace>(env::outdoor_day({}));

  const std::vector<std::size_t> sizes =
      gate100k ? std::vector<std::size_t>{100000}
      : smoke  ? std::vector<std::size_t>{10, 50, 200}
               : std::vector<std::size_t>{10, 100, 1000, 10000, 100000, 1000000};
  // Default: at least 8 workers even on small machines — the point of
  // the threaded leg is contended scheduling against the serial
  // reference. --jobs overrides; --jobs 0 resolves to the hardware
  // concurrency exactly as FleetOptions{jobs=0} would.
  const int jobs = jobs_arg < 0 ? std::max(8, runtime::ThreadPool::default_thread_count())
                   : jobs_arg == 0
                       ? runtime::ThreadPool::default_thread_count()
                       : jobs_arg;
  // Per-node reference column: the identical roster on the per-node
  // MacroStepper, only up to 10k nodes (it is the ~50x slower path the
  // SoA engine replaces; a 1M per-node run would take hours).
  const std::size_t per_node_cap = 10000;

  ConsoleTable table({"nodes", "lanes s", "nodes/s", "scalar s", "x kern", "per-node s",
                      "x per node", "RSS MiB", "neutral %", "jobs ==", "kern =="});
  bool all_identical = true;
  for (const std::size_t n : sizes) {
    // Load-concurrency analysis sorts O(nodes * bursts) edges — useful
    // reporting at desk scale, pure accounting noise at fleet scale.
    const bool analyze_load = n < 100000;

    const PairResult flt =
        run_pair(make_spec(n, environs, fleet::FleetEngine::kSoa), jobs, analyze_load);
    all_identical = all_identical && flt.identical;

    // The node-major scalar kernel on the identical roster: the "x kern"
    // lane speedup, and the byte-identity contract between the two
    // kernels checked at every scale.
    fleet::FleetOptions scalar_opt;
    scalar_opt.jobs = 1;
    scalar_opt.analyze_load = analyze_load;
    const fleet::FleetReport scalar = [&] {
      const fleet::soa::internal::ScopedLanesWidth pin(0);
      return fleet::run_fleet(make_spec(n, environs, fleet::FleetEngine::kSoa), scalar_opt);
    }();
    const bool kern_identical = scalar.to_json() == flt.serial.to_json();
    all_identical = all_identical && kern_identical;

    double per_node_wall = 0.0;
    if (n <= per_node_cap) {
      const fleet::FleetSpec ref_spec = make_spec(n, environs, fleet::FleetEngine::kPerNode);
      fleet::FleetOptions ref_opt;
      ref_opt.jobs = 1;
      ref_opt.analyze_load = analyze_load;
      per_node_wall = fleet::run_fleet(ref_spec, ref_opt).wall_seconds;
    }

    const double wall = flt.serial.wall_seconds;
    const double scalar_wall = scalar.wall_seconds;
    table.add_row({ConsoleTable::num(static_cast<double>(n), 0),
                   ConsoleTable::num(wall, 3),
                   ConsoleTable::num(static_cast<double>(n) / wall, 0),
                   ConsoleTable::num(scalar_wall, 3),
                   ConsoleTable::num(scalar_wall / wall, 2),
                   per_node_wall > 0.0 ? ConsoleTable::num(per_node_wall, 3) : "-",
                   per_node_wall > 0.0 ? ConsoleTable::num(per_node_wall / wall, 1) : "-",
                   ConsoleTable::num(peak_rss_mib(), 1),
                   ConsoleTable::num(flt.serial.energy_neutral_fraction() * 100.0, 1),
                   flt.identical ? "yes" : "NO", kern_identical ? "yes" : "NO"});
    std::printf("  %zu nodes done (%.3f s lanes, %.3f s scalar, jobs=%d)\n", n,
                flt.serial.wall_seconds, scalar_wall, jobs);
  }
  table.print(std::cout);

  // Memory model: the dense curve tables are the only per-environment
  // state the sweep touches per node-interval; per-node state is a
  // transient ~200 B scalar struct, so RSS is dominated by the shared
  // traces plus draws/reports of the chunks in flight.
  const std::size_t biggest = sizes.back();
  const std::size_t tb =
      plan_table_bytes(make_spec(biggest, environs, fleet::FleetEngine::kSoa));
  const double rss = peak_rss_mib();
  std::printf("shared curve tables: %.1f KiB (all envs)\n", static_cast<double>(tb) / 1024.0);
  std::printf("peak RSS %.1f MiB at %zu nodes (%.1f bytes/node amortised)\n", rss,
              biggest, rss * 1024.0 * 1024.0 / static_cast<double>(biggest));

  if (gate100k && rss >= 2048.0) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MiB >= 2048 MiB budget at 100k nodes\n", rss);
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a threaded run or the scalar kernel diverged from the\n"
                         "      serial lane reference\n");
    return 1;
  }
  std::printf("all fleet sizes byte-identical between --jobs 1 and --jobs %d, and\n"
              "between the lane and scalar kernels\n", jobs);
  telemetry.finish();
  return 0;
}
