// Shared plumbing of the repository benchmark: arguments, clocks,
// order statistics, the in-memory span recorder of traced runs, and the
// result line every workload ends with.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Repetitions of a workload's set-up phase before its first op; the
/// workloads repeat it later in the run too, and setup_s is the median.
constexpr int kSetupReps = 9;

/// Seconds on the monotonic clock.
[[nodiscard]] double wall_now();
/// Process CPU seconds (all threads).
[[nodiscard]] double cpu_now();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_now();
/// Peak resident set of the process so far [MiB].
[[nodiscard]] double peak_rss_mib();

/// One reference sample [ms]: a fixed kernel's wall time, and the
/// calling thread's CPU time over it. When the hypervisor runs another
/// guest on this CPU (steal), the wall time stretches and the CPU time
/// does not, just as for the wall and CPU times being scaled.
struct Ref {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Reference kernel that runs no repository code: xorshift updates
/// scattered over a 4 MiB table, then a dependent floating-point chain,
/// about 60/40 by time. On a shared host the machine's speed drifts by
/// tens of percent over minutes (other tenants load the caches and cores),
/// and the repository's timings drift with it; the scattered part follows
/// the cache-bound share of that drift, the chain the core-bound share.
/// About kRefNominalMs on a 4-vCPU Xeon VM.
[[nodiscard]] Ref machine_ref();
constexpr double kRefNominalMs = 16.0;

/// The core-bound chain alone, twice as long; about kCoreRefNominalMs on
/// the same VM. For work whose data fits in a core's own caches, which
/// the scattered part would over-correct.
[[nodiscard]] Ref core_ref();
constexpr double kCoreRefNominalMs = 12.0;

/// Factor that brings a time measured between two reference samples to
/// the nominal machine speed (reference = `nominal_ms`). The timed
/// end-to-end metrics are reported at nominal speed; their raw values are
/// printed beside them.
[[nodiscard]] inline double at_nominal(double ref_before_ms, double ref_after_ms,
                                       double nominal_ms = kRefNominalMs) {
  return 2.0 * nominal_ms / (ref_before_ms + ref_after_ms);
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports: counts, the metrics of the requested
/// kind (end-to-end untraced, per-layer traced) and informational lines.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;  ///< printed by name and unit, not in the JSON line
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// Print every metric and note as "name = value unit", the errors, and
/// the final one-line JSON result.
void print_outcome(const Outcome& outcome);

/// In-memory span recorder for traced runs. Spans are appended under a
/// mutex (a few hundred per op at most) and folded into per-layer self
/// times when the op ends.
class SpanLog {
 public:
  struct Span {
    const char* layer;   ///< static string, e.g. "fleet.sweep"
    std::size_t thread;  ///< hash of the recording thread's id
    double t0, t1;
    int parent;          ///< index into the op's spans, -1 for the op root
  };

  /// RAII span: records [construction, destruction) under `layer`.
  class Scope {
   public:
    Scope(SpanLog& log, const char* layer, int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const { return index_; }

   private:
    SpanLog& log_;
    int index_;
  };

  int open(const char* layer, int parent);
  void close(int index);
  void clear();
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Hash of the calling thread's id (the Span::thread key).
[[nodiscard]] std::size_t this_thread_key();

}  // namespace perfbench
