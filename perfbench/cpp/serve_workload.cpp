// serve_open: an in-process focv::serve::Server on loopback, fed by an
// open-loop Poisson schedule over two connections. Every request is
// timed from its scheduled send time; a sampled subset of responses is
// byte-compared against a direct SessionState::compute.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "env/profiles.hpp"
#include "mppt/registry.hpp"
#include "node/curve_cache.hpp"
#include "obs/obs.hpp"
#include "pv/cell_library.hpp"
#include "sched/options.hpp"
#include "sched/prepared_trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace focv;

constexpr int kJobs = 2;
constexpr int kConnections = 2;
constexpr double kRateQps = 50.0;       ///< open-loop arrival rate
constexpr double kSloMs = 1000.0;       ///< ok-within-limit latency of slo_ok_ratio
/// p99 generator lateness of a valid run: one mean inter-arrival gap.
/// Steal on a shared host preempts the spinning generator too; 15 ms has
/// been seen at p99 with the reference kernel at twice its nominal time.
constexpr double kGenLateLimitMs = 1e3 / kRateQps;
constexpr double kBacklogLimit = 16;    ///< outstanding-request growth of a valid run
const char* const kEnvs[] = {"office", "outdoor", "semi_mobile"};

enum class Kind { kSimFocv, kSimOther, kRepeat, kSimSlow, kSizing };
const char* const kKindNames[] = {"sim_focv", "sim_other", "repeat", "sim_slow", "sizing"};

struct Planned {
  Kind kind;
  double at_s;          ///< scheduled send time from the window start
  std::string payload;  ///< request JSON (id = its index)
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// The request stream: Poisson arrivals at `rate`, about `seconds` long
/// but always whole blocks of 100 requests, kinds in exact proportions
/// per block, shuffled within the block:
///   50 sim, paper controller with a fresh k        (cache miss, ~1.5 ms)
///   20 sim, fixed or pilot with a fresh parameter  (cache miss, 1-3 ms)
///   20 repeats of one of the last 32 fresh sims    (cache hit or coalesced)
///    7 sim, pando or graddesc, fresh parameter     (~10 ms)
///    3 sizing of the paper controller, fresh report period (~150 ms)
/// Within each class, environments rotate over office/outdoor/semi_mobile
/// and controllers alternate in runs of three, so every seed asks for the
/// same work (sizing alone is three quarters of the server's CPU, and
/// costs 125 ms outdoors against 160 ms elsewhere). Fresh parameters are
/// drawn from narrow ranges, so every request misses the response cache
/// while each class's compute cost stays put: the median lands inside
/// the paper-controller class and p99 inside the sizing class, away from
/// a class boundary.
std::vector<Planned> plan_stream(std::uint64_t seed, double rate, double seconds) {
  Rng rng(splitmix64(seed ^ 0x5E12E0F7ull));
  std::vector<Planned> out;
  std::vector<Kind> block;
  std::vector<std::string> recent;  // bodies of recent fresh sims (no id)
  std::size_t per_kind[5] = {};
  const auto blocks = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds / 100)));
  double t = 0.0;
  for (std::size_t i = 0; i < 100 * blocks; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (block.empty()) {
      block.assign(50, Kind::kSimFocv);
      block.insert(block.end(), 20, Kind::kSimOther);
      block.insert(block.end(), 20, Kind::kRepeat);
      block.insert(block.end(), 7, Kind::kSimSlow);
      block.insert(block.end(), 3, Kind::kSizing);
      for (std::size_t k = block.size() - 1; k > 0; --k) {
        std::swap(block[k], block[rng.below(k + 1)]);
      }
    }
    Kind kind = block.back();
    block.pop_back();
    if (kind == Kind::kRepeat && recent.empty()) kind = Kind::kSimFocv;
    const std::size_t n = per_kind[static_cast<int>(kind)]++;
    const std::string env = kEnvs[n % 3];
    const auto sim = [&](const std::string& spec) {
      return "\"op\":\"sim\",\"env\":\"" + env + "\",\"spec\":\"" + spec + "\"";
    };
    std::string body;
    switch (kind) {
      case Kind::kSimFocv:
        body = sim("focv[k=" + fmt(rng.uniform(0.60, 0.62)) + "]");
        break;
      case Kind::kSimOther:
        body = (n / 3) % 2 == 0 ? sim("fixed[v=" + fmt(rng.uniform(3.00, 3.05)) + "]")
                                : sim("pilot[k=" + fmt(rng.uniform(0.60, 0.62)) + "]");
        break;
      case Kind::kRepeat:
        body = recent[rng.below(recent.size())];
        break;
      case Kind::kSimSlow:
        body = (n / 3) % 2 == 0 ? sim("pando[step=" + fmt(rng.uniform(0.050, 0.052)) + "]")
                                : sim("graddesc[lr=" + fmt(rng.uniform(0.050, 0.052)) + "]");
        break;
      case Kind::kSizing:
        body = "\"op\":\"sizing\",\"env\":\"" + env +
               "\",\"spec\":\"focv\",\"report_period_s\":" + fmt(rng.uniform(120.0, 121.0));
        break;
    }
    if (kind == Kind::kSimFocv || kind == Kind::kSimOther) {
      recent.push_back(body);
      if (recent.size() > 32) recent.erase(recent.begin());
    }
    out.push_back({kind, t, "{\"id\":" + std::to_string(i) + "," + body + "}"});
  }
  return out;
}

/// Parse the numeric id of a response envelope ({"schema":..,"id":N,..}).
long response_id(const std::string& response) {
  const std::size_t at = response.find("\"id\":");
  if (at == std::string::npos) return -1;
  return std::strtol(response.c_str() + at + 5, nullptr, 10);
}

/// Samples machine_ref() on its own thread every kPeriodS while an
/// open-loop window runs; requests overlap, so their times cannot be
/// bracketed one by one as fleet ops are. ref_at() interpolates between
/// samples; cpu_s() is the sampler's own CPU time, kept out of the
/// server's.
class RefSampler {
 public:
  static constexpr double kPeriodS = 0.25;

  RefSampler() {
    thread_ = std::thread([this] {
      for (;;) {
        const double t0 = wall_now();
        const double ms = machine_ref().wall_ms;
        {
          std::lock_guard lock(mutex_);
          samples_.push_back({t0 + ms / 2e3, ms});
          if (stop_) return;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(kPeriodS));
      }
    });
    pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }
  ~RefSampler() { stop(); }
  RefSampler(const RefSampler&) = delete;
  RefSampler& operator=(const RefSampler&) = delete;

  /// Takes one more sample, then joins the thread.
  void stop() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }
  /// Reference time at wall time t, linear between samples (after stop()).
  [[nodiscard]] double ref_at(double t) const {
    if (samples_.empty()) return kRefNominalMs;
    const auto hi = std::lower_bound(samples_.begin(), samples_.end(), t,
                                     [](const Sample& s, double v) { return s.t < v; });
    if (hi == samples_.begin()) return hi->ms;
    if (hi == samples_.end()) return samples_.back().ms;
    const Sample& lo = *(hi - 1);
    return lo.ms + (hi->ms - lo.ms) * (t - lo.t) / (hi->t - lo.t);
  }
  [[nodiscard]] double median_ms() const {
    std::vector<double> v;
    for (const Sample& s : samples_) v.push_back(s.ms);
    return median(v);
  }
  /// CPU seconds the sampler has used so far (before stop()).
  [[nodiscard]] double cpu_s() const {
    timespec ts{};
    clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

 private:
  struct Sample {
    double t, ms;
  };
  std::thread thread_;
  std::mutex mutex_;
  std::vector<Sample> samples_;
  clockid_t clock_{};
  bool stop_ = false;
};

struct Window {
  std::vector<double> sched_s;  ///< absolute scheduled send time
  std::vector<double> sent_s;   ///< absolute actual send time
  std::vector<double> recv_s;   ///< absolute receive time, < 0 when unanswered
  std::vector<std::string> response;
  std::vector<double> outstanding;  ///< sent - received at each send
  double start = 0.0;
  double cpu_s = 0.0;  ///< server CPU over the window
};

/// Run one open-loop window against `server`, then (optionally) read its
/// `stats` op and stop it — stopping shuts the connections down, which
/// is what ends the reader threads. A running `sampler`'s CPU is kept out
/// of the server's. Returns false on a transport failure.
bool run_window(serve::Server& server, const std::vector<Planned>& stream, Window& w,
                std::string& error, const RefSampler* sampler = nullptr,
                std::string* stats = nullptr) {
  const std::uint16_t port = server.port();
  const std::size_t n = stream.size();
  w.sched_s.assign(n, 0.0);
  w.sent_s.assign(n, 0.0);
  w.recv_s.assign(n, -1.0);
  w.response.assign(n, std::string());
  w.outstanding.assign(n, 0.0);
  std::vector<serve::Client> clients(kConnections);
  for (serve::Client& c : clients) {
    if (!c.connect(port, error)) return false;
  }
  std::atomic<std::size_t> received{0};
  std::mutex client_cpu_mutex;
  double client_cpu = 0.0;
  std::vector<std::thread> readers;
  for (serve::Client& c : clients) {
    readers.emplace_back([&, client = &c] {
      const double cpu_start = thread_cpu_now();
      std::string payload;
      while (client->recv(payload)) {
        const double t = wall_now();
        const long id = response_id(payload);
        if (id >= 0 && static_cast<std::size_t>(id) < n) {
          w.recv_s[static_cast<std::size_t>(id)] = t;
          w.response[static_cast<std::size_t>(id)] = std::move(payload);
          received.fetch_add(1, std::memory_order_release);
        }
      }
      const double used = thread_cpu_now() - cpu_start;
      std::lock_guard lock(client_cpu_mutex);
      client_cpu += used;
    });
  }
  const double cpu0 = cpu_now();
  const double gen_cpu0 = thread_cpu_now();
  const double sampler_cpu0 = sampler ? sampler->cpu_s() : 0.0;
  w.start = wall_now() + 0.01;
  bool sent_all = true;
  for (std::size_t i = 0; i < n; ++i) {
    // Spin to the scheduled time: a sleeping generator wakes late by
    // milliseconds on an idle virtual CPU, which would bias every
    // latency measured from the schedule.
    w.sched_s[i] = w.start + stream[i].at_s;
    while (wall_now() < w.sched_s[i]) {
    }
    w.sent_s[i] = wall_now();
    w.outstanding[i] =
        static_cast<double>(i) - static_cast<double>(received.load(std::memory_order_acquire));
    if (!clients[i % kConnections].send(stream[i].payload)) {
      sent_all = false;
      error = "send failed at request " + std::to_string(i);
      break;
    }
  }
  const double drain_deadline = wall_now() + 30.0;
  while (received.load(std::memory_order_acquire) < n && wall_now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double gen_cpu = thread_cpu_now() - gen_cpu0;
  const double sampler_cpu = sampler ? sampler->cpu_s() - sampler_cpu0 : 0.0;
  const double process_cpu = cpu_now() - cpu0;
  if (stats != nullptr) {
    serve::Client client;
    if (!client.connect(port, error) || !client.request("{\"id\":0,\"op\":\"stats\"}", *stats)) {
      sent_all = false;
      error = "stats op failed: " + error;
    }
  }
  server.stop();
  for (std::thread& t : readers) t.join();
  for (serve::Client& c : clients) c.close();
  // Server CPU: the process minus the load generator's own threads and
  // the reference sampler.
  w.cpu_s = process_cpu - gen_cpu - client_cpu - sampler_cpu;
  return sent_all;
}

/// Server start until every workload environment is warm.
std::unique_ptr<serve::Server> start_server(std::string& error) {
  serve::ServerOptions options;
  options.jobs = kJobs;
  auto server = std::make_unique<serve::Server>(options);
  if (!server->start(error)) return nullptr;
  serve::Client client;
  if (!client.connect(server->port(), error)) return nullptr;
  for (std::size_t e = 0; e < 3; ++e) {
    client.send("{\"id\":" + std::to_string(e) + ",\"op\":\"sim\",\"env\":\"" + kEnvs[e] +
                "\",\"spec\":\"focv\"}");
  }
  std::string payload;
  for (int e = 0; e < 3; ++e) {
    if (!client.recv(payload) || payload.find("\"ok\":true") == std::string::npos) {
      error = "warm-up request failed: " + payload;
      return nullptr;
    }
  }
  return server;
}

double ms(double s) { return 1e3 * s; }

/// Latency from the scheduled send time; unanswered or error responses
/// are +inf, so they miss every limit.
std::vector<double> latencies_ms(const Window& w) {
  std::vector<double> out(w.sched_s.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool ok = w.recv_s[i] >= 0 && w.response[i].find("\"ok\":true") != std::string::npos;
    out[i] = ok ? ms(w.recv_s[i] - w.sched_s[i]) : INFINITY;
  }
  return out;
}

struct WindowStats {
  std::size_t ok = 0;
  double p50_ms = 0, p99_ms = 0, gen_late_p99_ms = 0, backlog_growth = 0;
};

WindowStats window_stats(const Window& w) {
  WindowStats s;
  const std::vector<double> lat = latencies_ms(w);
  s.ok = static_cast<std::size_t>(std::count_if(lat.begin(), lat.end(),
                                                [](double v) { return std::isfinite(v); }));
  s.p50_ms = quantile(lat, 0.50);
  s.p99_ms = quantile(lat, 0.99);
  std::vector<double> late(w.sent_s.size());
  for (std::size_t i = 0; i < late.size(); ++i) late[i] = ms(w.sent_s[i] - w.sched_s[i]);
  s.gen_late_p99_ms = quantile(late, 0.99);
  // Backlog trend: mean outstanding over the last quarter of sends minus
  // the mean over the first quarter.
  const std::size_t q = w.outstanding.size() / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += w.outstanding[i];
    last += w.outstanding[w.outstanding.size() - 1 - i];
  }
  s.backlog_growth = q > 0 ? (last - first) / static_cast<double>(q) : 0.0;
  return s;
}

/// Open-loop validity: the generator kept its schedule and the backlog
/// did not grow. Violations make the run invalid, not just slow.
void check_validity(const WindowStats& s, Outcome& out) {
  if (s.gen_late_p99_ms > kGenLateLimitMs) {
    out.fail("generator lateness p99 " + std::to_string(s.gen_late_p99_ms) + " ms exceeds " +
             std::to_string(kGenLateLimitMs) + " ms: run invalid");
  }
  if (s.backlog_growth > kBacklogLimit) {
    out.fail("outstanding requests grew by " + std::to_string(s.backlog_growth) +
             " across the run (limit " + std::to_string(kBacklogLimit) + "): run invalid");
  }
}

/// Byte-compare every 8th response against SessionState::compute on a
/// separate session. Returns the number of mismatches.
std::size_t check_responses(const std::vector<Planned>& stream, const Window& w,
                            serve::SessionState& reference, Outcome& out) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < stream.size(); i += 8) {
    serve::Request request;
    std::string error;
    if (!serve::parse_request(stream[i].payload, request, error)) {
      ++bad;
      continue;
    }
    const std::string expected = reference.compute(request).render(request.id_json);
    if (w.response[i] != expected) {
      if (bad == 0) out.fail("response " + std::to_string(i) + " differs from direct compute");
      ++bad;
    }
  }
  return bad;
}

/// Untraced run. Set-up repetitions, kSetupReps before the window and
/// kSetupReps after it, are bracketed by reference samples as fleet ops
/// are. During the window a RefSampler tracks the machine,
/// and each request's latency is brought to nominal speed with the
/// reference interpolated at its midpoint. Server CPU is spent on one
/// node's sizing or simulation at a time, whose data fits in a core's
/// caches: it follows the host about a third as far as machine_ref()
/// does, so it is brought to nominal speed with core_ref() instead, the
/// CPU time of three quiet samples on the main thread before and three
/// after the window.
Outcome run_untraced(const Args& args) {
  Outcome out;
  std::string error;
  std::vector<double> setup_s, setup_raw_s, refs{machine_ref().wall_ms};
  const auto timed_start = [&] {
    const double t0 = wall_now();
    std::unique_ptr<serve::Server> fresh = start_server(error);
    const double raw = wall_now() - t0;
    refs.push_back(machine_ref().wall_ms);
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw * at_nominal(refs[refs.size() - 2], refs.back()));
    return fresh;
  };
  std::unique_ptr<serve::Server> server;
  for (int r = 0; r < kSetupReps && (r == 0 || server); ++r) {
    server.reset();
    server = timed_start();
  }
  if (!server) {
    out.fail("server start: " + error);
    return out;
  }
  const auto core_cpu_ms = [] {
    return median({core_ref().cpu_ms, core_ref().cpu_ms, core_ref().cpu_ms});
  };
  const double core_before = core_cpu_ms();

  const std::vector<Planned> stream = plan_stream(args.seed, kRateQps, args.seconds);
  Window w;
  RefSampler sampler;
  if (!run_window(*server, stream, w, error, &sampler)) out.fail(error);
  sampler.stop();
  const double core_after = core_cpu_ms();
  const double rss_mib = peak_rss_mib();  // before the checks below allocate

  // The set-up phase again after the window, so setup_s samples the host
  // at both ends of the run, not at one moment.
  server.reset();
  for (int r = 0; r < kSetupReps; ++r) {
    if (!timed_start()) out.fail("server start: " + error);
  }

  const WindowStats s = window_stats(w);
  out.attempted = stream.size();
  out.failed = stream.size() - s.ok;
  if (out.failed > 0) out.fail(std::to_string(out.failed) + " requests without an ok answer");
  check_validity(s, out);
  serve::SessionState reference;
  out.failed += check_responses(stream, w, reference, out);

  const std::vector<double> lat = latencies_ms(w);
  std::vector<double> lat_nominal(lat.size());
  for (std::size_t i = 0; i < lat.size(); ++i) {
    const double mid = 0.5 * (w.sched_s[i] + w.recv_s[i]);
    lat_nominal[i] = lat[i] * kRefNominalMs / sampler.ref_at(mid);
  }
  const double cpu_nominal_s = w.cpu_s * at_nominal(core_before, core_after, kCoreRefNominalMs);
  const double within = static_cast<double>(
      std::count_if(lat.begin(), lat.end(), [&](double v) { return v <= kSloMs; }));
  out.add("setup_s", median(setup_s), "s");
  out.add("ops_per_cpu_s", static_cast<double>(s.ok) / cpu_nominal_s, "1/s");
  out.add("latency_p50_ms", quantile(lat_nominal, 0.50), "ms");
  out.add("slo_ok_ratio", within / static_cast<double>(stream.size()), "ratio");
  out.add("peak_rss_mib", rss_mib, "MiB");
  out.note("latency_p99_ms", quantile(lat_nominal, 0.99), "ms");
  out.note("raw.setup_s", median(setup_raw_s), "s");
  out.note("raw.ops_per_cpu_s", static_cast<double>(s.ok) / w.cpu_s, "1/s");
  out.note("raw.latency_p50_ms", s.p50_ms, "ms");
  out.note("raw.latency_p99_ms", s.p99_ms, "ms");
  out.note("machine.ref_ms", sampler.median_ms(), "ms");
  out.note("machine.core_ref_cpu_ms", 0.5 * (core_before + core_after), "ms");
  // Where the percentiles sit: each class's median.
  for (int k = 0; k < 5; ++k) {
    std::vector<double> of_kind;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (static_cast<int>(stream[i].kind) == k) of_kind.push_back(lat_nominal[i]);
    }
    out.note(std::string("latency.") + kKindNames[k] + ".p50_ms", median(of_kind), "ms");
  }
  out.note("requests", static_cast<double>(stream.size()), "count");
  out.note("offered_qps", kRateQps, "1/s");
  out.note("serve.gen_late_p99_ms", s.gen_late_p99_ms, "ms");
  out.note("serve.backlog_growth", s.backlog_growth, "count");
  return out;
}

/// Per-stage times of one request replayed on a second session.
struct Replay {
  double frame_s = 0, parse_s = 0, canon_s = 0, lookup_s = 0, compute_s = 0, spec_s = 0;
  bool hit = false;
};

Outcome run_traced(const Args& args) {
  Outcome out;
  std::string error;
  // Half the window untraced, half traced on fresh servers, so the
  // tracing overhead compares like with like.
  const double half = std::max(2.0, args.seconds / 2);
  const std::vector<Planned> stream = plan_stream(args.seed, kRateQps, half);

  std::unique_ptr<serve::Server> server = start_server(error);
  Window plain;
  if (!server || !run_window(*server, stream, plain, error)) out.fail(error);
  server.reset();

  obs::reset_all();
  obs::set_enabled(true);
  server = start_server(error);
  Window w;
  std::string stats_json;
  if (!server || !run_window(*server, stream, w, error, nullptr, &stats_json)) out.fail(error);
  obs::set_enabled(false);
  if (!out.correct) return out;
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  const auto counter = [&](const char* name) {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0.0;
  };
  double batch_mean = 0.0;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "serve.batch_size") batch_mean = h.mean();
  }
  serve::Json stats;
  serve::Json::parse(stats_json, stats);
  const serve::Json* result = stats.find("result");
  const double hits = result ? result->number_or("cache_hits", 0) : 0;
  const double misses = result ? result->number_or("cache_misses", 0) : 0;

  // Validity is judged on untraced runs; here lateness and backlog are
  // reported, since tracing itself slows the server.
  const WindowStats s = window_stats(w);
  const WindowStats s_plain = window_stats(plain);
  out.attempted = stream.size();
  out.failed = stream.size() - s.ok;

  // Replay the sent stream through the session layers on a second
  // SessionState (warmed first, as the server's was).
  serve::SessionState replay;
  for (const char* env : kEnvs) {
    serve::Request warm;
    serve::parse_request(std::string("{\"op\":\"sim\",\"env\":\"") + env + "\",\"spec\":\"focv\"}",
                         warm, error);
    (void)replay.compute(warm);
  }
  std::vector<Replay> rep(stream.size());
  double sim_n = 0, sim_s = 0, size_n = 0, size_s = 0;
  std::vector<double> rtt_minus_compute;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Replay& r = rep[i];
    double t = wall_now();
    const std::string frame = serve::encode_frame(stream[i].payload);
    const std::uint32_t size =
        serve::decode_frame_header(reinterpret_cast<const unsigned char*>(frame.data()));
    r.frame_s = wall_now() - t;
    t = wall_now();
    serve::Request request;
    serve::parse_request(frame.substr(4, size), request, error);
    r.parse_s = wall_now() - t;
    t = wall_now();
    serve::CanonicalRequest canon;
    replay.canonicalize(request, canon, error);
    r.canon_s = wall_now() - t;
    t = wall_now();
    std::string cached;
    r.hit = canon.cacheable() && replay.cache_lookup(canon.key, cached);
    r.lookup_s = wall_now() - t;
    t = wall_now();
    (void)mppt::Registry::instance().canonical(request.body.string_or("spec", "focv"));
    r.spec_s = wall_now() - t;
    if (!r.hit) {
      t = wall_now();
      const serve::ComputeResult c = replay.compute(request);
      r.compute_s = wall_now() - t;
      if (c.ok && canon.cacheable()) replay.cache_insert(canon.key, c.result_json);
      (request.op == "sizing" ? size_s : sim_s) += r.compute_s;
      (request.op == "sizing" ? size_n : sim_n) += 1;
    }
    // Against the untraced half: I/O, admission and queueing as served.
    if (plain.recv_s[i] >= 0) {
      rtt_minus_compute.push_back(ms(plain.recv_s[i] - plain.sent_s[i] - r.compute_s));
    }
  }
  const auto mean = [&](double Replay::*field) {
    double total = 0;
    for (const Replay& r : rep) total += r.*field;
    return total / static_cast<double>(rep.size());
  };

  // Set-up layers probed on their own: trace build, PreparedTrace and
  // warm curve cache per environment, as SessionState's warm-up does.
  const pv::SingleDiodeModel& cell = pv::sanyo_am1815();
  double trace_s = 0, prep_s = 0, warm_s = 0;
  for (int e = 0; e < 3; ++e) {
    double t = wall_now();
    const env::LightTrace trace = e == 0   ? env::office_desk_mixed()
                                  : e == 1 ? env::outdoor_day({})
                                           : env::semi_mobile_day();
    trace_s += wall_now() - t;
    env::SegmentationOptions seg;
    seg.ratio_band = sched::EventOptions{}.lux_ratio_band;
    seg.floor = node::CurveCache::kDarkLux;
    t = wall_now();
    const sched::PreparedTrace prepared(trace, cell, seg);
    prep_s += wall_now() - t;
    t = wall_now();
    node::CurveCache master(cell, 300.15, node::CurveCache::Options{});
    double lo = 0, hi = 0;
    for (const double lux : prepared.eq_lux()) {
      if (lux < node::CurveCache::kDarkLux) continue;
      if (hi == 0.0) lo = hi = lux;
      lo = std::min(lo, lux);
      hi = std::max(hi, lux);
    }
    if (hi > 0.0) master.warm_range(lo, hi);
    warm_s += wall_now() - t;
  }

  const double n = static_cast<double>(stream.size());
  out.add("env.trace_build_s", trace_s, "s");
  out.add("sched.prepare_s", prep_s, "s");
  out.add("node.cache_warm_s", warm_s, "s");
  out.add("node.sim_s", sim_n > 0 ? sim_s / sim_n : 0.0, "s");
  out.add("node.sim_calls", sim_n, "count");
  out.add("node.sizing_s", size_n > 0 ? size_s / size_n : 0.0, "s");
  out.add("mppt.spec_parse_s", mean(&Replay::spec_s), "s");
  out.add("mppt.spec.parses", counter("mppt.spec.parses") / n, "count");
  out.add("serve.frame_s", mean(&Replay::frame_s) + mean(&Replay::parse_s), "s");
  out.add("serve.canonicalize_s", mean(&Replay::canon_s), "s");
  out.add("serve.cache_lookup_s", mean(&Replay::lookup_s), "s");
  out.add("serve.compute_s.sim", sim_n > 0 ? sim_s / sim_n : 0.0, "s");
  out.add("serve.compute_s.sizing", size_n > 0 ? size_s / size_n : 0.0, "s");
  out.add("serve.rtt_minus_compute_ms", median(rtt_minus_compute), "ms");
  out.add("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.add("serve.coalesced", counter("serve.coalesced"), "count");
  out.add("serve.batch_size_mean", batch_mean, "count");
  out.add("serve.overloaded", counter("serve.overloaded"), "count");
  out.add("serve.deadline_exceeded", counter("serve.deadline_exceeded"), "count");
  out.add("serve.gen_late_p99_ms", s.gen_late_p99_ms, "ms");
  out.add("serve.backlog_growth", s.backlog_growth, "count");
  out.add("obs.trace_overhead", s.p50_ms / s_plain.p50_ms, "ratio");
  out.note("traced_p50_ms", s.p50_ms, "ms");
  out.note("untraced_p50_ms", s_plain.p50_ms, "ms");
  obs::reset_all();
  return out;
}

}  // namespace

Outcome run_serve_workload(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
