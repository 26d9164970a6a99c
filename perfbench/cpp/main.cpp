// focv_perfbench — the repository benchmark binary.
//
//   focv_perfbench --workload fleet_soa|fleet_mixed|serve_open --seed N
//                  --seconds S --trace 0|1
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer breakdown. Either way the last stdout
// line is one JSON object {correct, attempted, failed, metrics}, and
// the exit code is non-zero when any output check failed. A traced run
// prints only the layers its workload exercises; perfbench/run.py builds
// this binary and fills in the rest of BENCHMARK.json's list as 0.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "focv_perfbench: %s\nusage: focv_perfbench --workload "
               "fleet_soa|fleet_mixed|serve_open --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload != "fleet_soa" && a.workload != "fleet_mixed" && a.workload != "serve_open") {
    usage("unknown workload");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  Outcome outcome;
  try {
    outcome = args.workload == "serve_open" ? run_serve_workload(args) : run_fleet_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "focv_perfbench: %s\n", e.what());
    return 1;
  }
  print_outcome(outcome);
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
