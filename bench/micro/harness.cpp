#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace focv::microbench {

std::vector<CaseSpec>& registry() {
  static std::vector<CaseSpec> cases;
  return cases;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return (n % 2 == 1) ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double median_abs_deviation(const std::vector<double>& values, double med) {
  std::vector<double> dev;
  dev.reserve(values.size());
  for (const double v : values) dev.push_back(std::abs(v - med));
  return median(std::move(dev));
}

std::vector<CaseResult> run_cases(const RunOptions& options) {
  const int reps = std::max(1, options.effective_repetitions());
  const int warmup = std::max(0, options.effective_warmup());

  std::vector<CaseResult> results;
  for (const CaseSpec& spec : registry()) {
    if (!options.filter.empty() &&
        spec.name.find(options.filter) == std::string::npos) {
      continue;
    }
    CaseResult r;
    r.name = spec.name;
    r.description = spec.description;

    auto body = spec.make(options.smoke);
    for (int i = 0; i < warmup; ++i) (void)body();
    for (int i = 0; i < reps; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      Counters counters = body();
      const auto t1 = std::chrono::steady_clock::now();
      // Self-timed convention: a counter named "__seconds" overrides the
      // measured repetition wall time and is stripped from the counters.
      // Cases whose statistic is not "how long did the closure run" —
      // a latency percentile, seconds-per-query of a concurrent burst —
      // report it this way and still flow through the same median/MAD
      // summary and regression gate as every other case.
      double elapsed = std::chrono::duration<double>(t1 - t0).count();
      const auto self_timed =
          std::find_if(counters.begin(), counters.end(),
                       [](const auto& c) { return c.first == "__seconds"; });
      if (self_timed != counters.end()) {
        elapsed = self_timed->second;
        counters.erase(self_timed);
      }
      r.seconds.push_back(elapsed);
      r.counters = std::move(counters);
    }
    r.median_s = median(r.seconds);
    r.mad_s = median_abs_deviation(r.seconds, r.median_s);
    r.min_s = *std::min_element(r.seconds.begin(), r.seconds.end());
    results.push_back(std::move(r));
  }
  return results;
}

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // JSON has no inf/nan literals; the suite never produces them, but a
  // schema-valid file beats a surprising parse error if a case ever does.
  if (!std::isfinite(v)) return "null";
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string to_json(const std::vector<CaseResult>& results, const RunOptions& options) {
  std::string out = "{\n";
  out += "  \"schema\": \"focv-bench-micro/v2\",\n";
  out += std::string("  \"smoke\": ") + (options.smoke ? "true" : "false") + ",\n";
  out += "  \"repetitions\": " + std::to_string(options.effective_repetitions()) + ",\n";
  out += "  \"warmup\": " + std::to_string(options.effective_warmup()) + ",\n";
  out += "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out += "    {\"name\": " + quoted(r.name) +
           ", \"description\": " + quoted(r.description) +
           ",\n     \"median_s\": " + num(r.median_s) +
           ", \"mad_s\": " + num(r.mad_s) + ", \"min_s\": " + num(r.min_s) +
           ",\n     \"reps_s\": [";
    for (std::size_t k = 0; k < r.seconds.size(); ++k) {
      if (k) out += ", ";
      out += num(r.seconds[k]);
    }
    out += "],\n     \"counters\": {";
    for (std::size_t k = 0; k < r.counters.size(); ++k) {
      if (k) out += ", ";
      out += quoted(r.counters[k].first) + ": " + num(r.counters[k].second);
    }
    out += "}}";
    out += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  // Derived ratios (schema v2): speedup_<stem> relates every
  // X_surrogate / X_exact pair (exact over surrogate median wall time);
  // overhead_<stem> relates every X_disabled / X_enabled pair (enabled
  // over disabled — the focv::obs telemetry tax, 1.0 = free).
  out += "  \"derived\": {";
  bool first = true;
  auto pair_ratio = [&](const char* base_suffix, const char* other_suffix,
                        const char* key_prefix, bool invert) {
    const std::string suffix = base_suffix;
    for (const CaseResult& base : results) {
      if (base.name.size() <= suffix.size() ||
          base.name.compare(base.name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      const std::string stem = base.name.substr(0, base.name.size() - suffix.size());
      for (const CaseResult& other : results) {
        if (other.name == stem + other_suffix && base.median_s > 0.0 &&
            other.median_s > 0.0) {
          if (!first) out += ", ";
          first = false;
          const double ratio = invert ? base.median_s / other.median_s
                                      : other.median_s / base.median_s;
          std::string stem_clean = stem;
          while (!stem_clean.empty() && stem_clean.back() == '_') stem_clean.pop_back();
          out += quoted(std::string(key_prefix) + stem_clean) + ": " + num(ratio);
        }
      }
    }
  };
  pair_ratio("_surrogate", "_exact", "speedup_", /*invert=*/false);
  pair_ratio("_disabled", "_enabled", "overhead_", /*invert=*/false);
  // speedup_fleet_soa: per-node event-stepper wall time over the SoA
  // engine on the identical roster (fleet_soa_ref_event / fleet_soa_float).
  pair_ratio("_ref_event", "_float", "speedup_", /*invert=*/true);
  // speedup_fleet_simd: the SoA scalar kernel's wall time over the
  // interval-major lane kernel on the identical roster
  // (fleet_soa_float / fleet_soa_simd_float). The CI smoke gate holds
  // this ratio.
  for (const CaseResult& base : results) {
    if (base.name != "fleet_soa_float") continue;
    for (const CaseResult& simd : results) {
      if (simd.name == "fleet_soa_simd_float" && base.median_s > 0.0 &&
          simd.median_s > 0.0) {
        if (!first) out += ", ";
        first = false;
        out += quoted("speedup_fleet_simd") + ": " + num(base.median_s / simd.median_s);
      }
    }
  }
  // speedup_fleet_hill_lanes: the per-node hill-climber group's wall
  // time over the lockstep lanes (fleet_hill_pernode / fleet_hill_lanes).
  for (const CaseResult& base : results) {
    if (base.name != "fleet_hill_pernode") continue;
    for (const CaseResult& lanes : results) {
      if (lanes.name == "fleet_hill_lanes" && base.median_s > 0.0 && lanes.median_s > 0.0) {
        if (!first) out += ", ";
        first = false;
        out += quoted("speedup_fleet_hill_lanes") + ": " + num(base.median_s / lanes.median_s);
      }
    }
  }
  // speedup_event_stepper_<stem>: fixed-stepper wall time over the
  // event-driven stepper for the same workload. The fixed counterpart
  // of X_event is X_surrogate when it exists (the simulate_node cases)
  // and plain X otherwise (fleet_step).
  for (const CaseResult& ev : results) {
    const std::string ev_suffix = "_event";
    if (ev.name.size() <= ev_suffix.size() ||
        ev.name.compare(ev.name.size() - ev_suffix.size(), ev_suffix.size(),
                        ev_suffix) != 0) {
      continue;
    }
    const std::string stem = ev.name.substr(0, ev.name.size() - ev_suffix.size());
    for (const CaseResult& base : results) {
      if ((base.name == stem + "_surrogate" || base.name == stem) &&
          base.median_s > 0.0 && ev.median_s > 0.0) {
        if (!first) out += ", ";
        first = false;
        out += quoted("speedup_event_stepper_" + stem) + ": " +
               num(base.median_s / ev.median_s);
      }
    }
  }
  out += "}\n}\n";
  return out;
}

int main_with_args(const std::vector<std::string>& args) {
  RunOptions opt;
  auto value_of = [](const std::string& arg, const char* flag,
                     std::string* out) {
    const std::string prefix = std::string(flag) + "=";
    if (arg.compare(0, prefix.size(), prefix) == 0) {
      *out = arg.substr(prefix.size());
      return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (value_of(a, "--repetitions", &v)) {
      opt.repetitions = std::stoi(v);
    } else if (value_of(a, "--warmup", &v)) {
      opt.warmup = std::stoi(v);
    } else if (value_of(a, "--filter", &v)) {
      opt.filter = v;
    } else if (value_of(a, "--output", &v)) {
      opt.output_path = v;
    } else if (a == "--help") {
      std::printf(
          "micro_bench [--smoke] [--repetitions=K] [--warmup=K]\n"
          "            [--filter=SUBSTR] [--output=PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "micro_bench: unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }

  if (registry().empty()) register_default_cases();
  const std::vector<CaseResult> results = run_cases(opt);

  std::printf("%-36s %12s %10s %10s\n", "case", "median [ms]", "mad [ms]", "min [ms]");
  for (const CaseResult& r : results) {
    std::printf("%-36s %12.3f %10.3f %10.3f\n", r.name.c_str(), r.median_s * 1e3,
                r.mad_s * 1e3, r.min_s * 1e3);
  }

  const std::string json = to_json(results, opt);
  if (!opt.output_path.empty()) {
    std::ofstream f(opt.output_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "micro_bench: cannot write '%s'\n", opt.output_path.c_str());
      return 1;
    }
    f << json;
    std::printf("wrote %s\n", opt.output_path.c_str());
  }
  return results.empty() ? 1 : 0;
}

}  // namespace focv::microbench
