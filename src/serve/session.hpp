// focv::serve resident session state: everything a long-lived query
// server keeps hot so that answering a sizing / sim / sweep / fleet
// query costs compute, not setup.
//
// Per named environment (office, office_sunday, semi_mobile, outdoor)
// the session holds the shared LightTrace (built once at startup), and
// — built lazily, exactly once, on first use (single-flight; concurrent
// cold queries wait instead of duplicating the work) —
//   * a sched::PreparedTrace (the event engine's O(trace) preprocessing),
//   * a warm master node::CurveCache covering the trace's illuminance
//     range, from which per-worker caches are seeded (CurveCache is not
//     re-entrant, so concurrent runs lease a cache from a pool instead
//     of sharing one), and
//   * a node::SizingContext (the sizing tier's O(trace) spectral
//     conversion, plus the controller tapes it records on first use:
//     a `sizing` or `sweep` of a controller the environment has sized
//     before replays its area probes only).
//
// On top sits a bounded response cache keyed by the canonical request
// key: query ops are deterministic by contract, so identical requests
// can be answered from memory byte-for-byte. compute() never throws —
// every failure (malformed controller spec, bad parameters, internal
// errors) maps onto the structured error surface of protocol.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "env/light_trace.hpp"
#include "node/curve_cache.hpp"
#include "node/sizing.hpp"
#include "pv/diode_models.hpp"
#include "sched/prepared_trace.hpp"
#include "serve/protocol.hpp"

namespace focv::serve {

/// How a request participates in caching and batching. Produced by
/// SessionState::canonicalize without executing anything.
struct CanonicalRequest {
  /// Cache / coalescing identity: two requests with equal keys have
  /// byte-identical result payloads. Empty for uncacheable ops (stats,
  /// burn) — those always execute.
  std::string key;
  /// Admission-batch grouping: compatible queries (same op + env) the
  /// dispatcher may coalesce into one pool dispatch. Empty = ungrouped.
  std::string batch_group;
  [[nodiscard]] bool cacheable() const { return !key.empty(); }
};

/// Outcome of one computed request, before the response envelope. The
/// per-request envelope (which echoes the request id) is rendered by
/// the caller, so one computation can answer many coalesced requests.
struct ComputeResult {
  bool ok = false;
  std::string result_json;  ///< when ok: the `result` payload
  const char* code = errc::kInternal;  ///< when !ok
  std::string message;
  std::string token;
  std::string hint;

  /// Render the full response for one request id.
  [[nodiscard]] std::string render(const std::string& id_json) const;
};

class SessionState {
 public:
  struct Options {
    double temperature_k = 300.15;
    int surrogate_points = 128;
    /// Bounded response cache: inserts stop (misses keep computing)
    /// once this many distinct keys are resident.
    std::size_t response_cache_capacity = 1 << 16;
    /// Worker count handed to run_fleet for `fleet` ops (0 = hardware).
    int fleet_jobs = 1;
    /// Admission guard for `fleet` ops.
    std::size_t max_fleet_nodes = 100000;
    /// Enable the `burn` test op (deterministic busy-wait; load tests).
    bool enable_test_ops = false;
  };

  SessionState() : SessionState(Options{}) {}
  explicit SessionState(Options options);
  SessionState(const SessionState&) = delete;
  SessionState& operator=(const SessionState&) = delete;

  /// Known environment names, catalog order.
  [[nodiscard]] std::vector<std::string> environment_names() const;

  /// Validate `request` and derive its cache/batch identity. Returns
  /// false and fills `error` with a complete response payload when the
  /// request can never execute (unknown op/env, malformed spec, bad
  /// fields).
  bool canonicalize(const Request& request, CanonicalRequest& out, std::string& error) const;

  /// Execute one request. Never throws; every failure is a structured
  /// error ComputeResult.
  [[nodiscard]] ComputeResult compute(const Request& request);

  /// Response cache (thread-safe). Keys come from canonicalize().
  bool cache_lookup(const std::string& key, std::string& result_json);
  void cache_insert(const std::string& key, const std::string& result_json);
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_.load(); }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_.load(); }

  /// Environment warm-ups performed (one per env when single-flight
  /// holds — asserted by the concurrent warm-up stress test).
  [[nodiscard]] std::uint64_t warm_builds() const { return warm_builds_.load(); }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct EnvState {
    std::string name;
    std::shared_ptr<const env::LightTrace> trace;

    // Lazily built resident state, single-flight guarded.
    std::mutex mutex;
    std::condition_variable warmed;
    enum class Warm { kCold, kBuilding, kReady } state = Warm::kCold;
    std::unique_ptr<sched::PreparedTrace> prepared;
    std::unique_ptr<node::SizingContext> sizing;
    std::unique_ptr<node::CurveCache> master;  ///< warm; read-only after build

    // Leasable per-worker caches seeded from `master` (CurveCache is
    // not re-entrant; see node/curve_cache.hpp).
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<node::CurveCache>> cache_pool;
  };

  /// RAII lease of one per-worker CurveCache.
  class CacheLease {
   public:
    CacheLease(SessionState& session, EnvState& env);
    ~CacheLease();
    CacheLease(const CacheLease&) = delete;
    CacheLease& operator=(const CacheLease&) = delete;
    [[nodiscard]] node::CurveCache* get() const { return cache_.get(); }

   private:
    EnvState& env_;
    std::unique_ptr<node::CurveCache> cache_;
  };

  [[nodiscard]] EnvState* find_env(const std::string& name) const;
  /// Ensure the env's resident state is built (single-flight; blocks
  /// while another thread builds).
  void warm(EnvState& env);

  // Per-op parsed parameter bags (defined in session.cpp) and the parse
  // helpers shared by canonicalize() (key building) and compute()
  // (execution), so the two can never disagree on validation.
  struct SimParams;
  struct SizingParams;
  struct SweepParams;
  struct FleetParams;
  bool parse_sim(const Request& request, SimParams& out, ComputeResult& fail) const;
  bool parse_sizing(const Request& request, SizingParams& out, ComputeResult& fail) const;
  bool parse_sweep(const Request& request, SweepParams& out, ComputeResult& fail) const;
  bool parse_fleet(const Request& request, FleetParams& out, ComputeResult& fail) const;
  bool parse_burn(const Request& request, double& ms, ComputeResult& fail) const;

  ComputeResult compute_ping() const;
  ComputeResult compute_catalog() const;
  ComputeResult compute_sim(const Request& request);
  ComputeResult compute_sizing(const Request& request);
  ComputeResult compute_sweep(const Request& request);
  ComputeResult compute_fleet(const Request& request);
  ComputeResult compute_stats() const;
  ComputeResult compute_burn(const Request& request) const;

  Options options_;
  std::shared_ptr<const pv::SingleDiodeModel> cell_;
  std::vector<std::unique_ptr<EnvState>> environments_;

  std::atomic<std::uint64_t> warm_builds_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::string, std::string> response_cache_;
};

}  // namespace focv::serve
