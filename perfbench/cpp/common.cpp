#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

/// n steps of a dependent floating-point chain with an integer side chain.
double core_chain(std::uint64_t n, std::uint64_t x) {
  double y = 1.0001;
  for (std::uint64_t i = 0; i < n; ++i) {
    y = y * 1.0000001 + 1e-9;
    x += (x >> 3) ^ i;
  }
  return y + static_cast<double>(x);
}

}  // namespace

Ref machine_ref() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);  // 4 MiB
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const double t0 = wall_now();
  const double c0 = thread_cpu_now();
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  const double y = core_chain(std::uint64_t{1} << 21, x);
  const Ref ref{1e3 * (wall_now() - t0), 1e3 * (thread_cpu_now() - c0)};
  volatile double sink = y + static_cast<double>(table[x & (table.size() - 1)]);
  (void)sink;
  return ref;
}

Ref core_ref() {
  const double t0 = wall_now();
  const double c0 = thread_cpu_now();
  const double y = core_chain(std::uint64_t{1} << 22, 1);
  const Ref ref{1e3 * (wall_now() - t0), 1e3 * (thread_cpu_now() - c0)};
  volatile double sink = y;
  (void)sink;
  return ref;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void print_outcome(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    std::printf("metric %-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : o.info) {
    std::printf("info   %-34s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : o.errors) std::printf("FAIL   %s\n", e.c_str());
  std::string line = "{\"correct\": ";
  line += o.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(o.metrics[i].name) + ": {\"value\": " +
            json_number(o.metrics[i].value) + ", \"unit\": " + json_string(o.metrics[i].unit) +
            "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, int parent)
    : log_(log), index_(log.open(layer, parent)) {}

SpanLog::Scope::~Scope() { log_.close(index_); }

int SpanLog::open(const char* layer, int parent) {
  const std::size_t thread = this_thread_key();
  const double t = wall_now();
  std::lock_guard lock(mutex_);
  spans_.push_back({layer, thread, t, t, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int index) {
  const double t = wall_now();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].t1 = t;
}

void SpanLog::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t this_thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace perfbench
