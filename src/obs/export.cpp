#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/json_text.hpp"
#include "common/require.hpp"

namespace focv::obs {

namespace {

/// Shortest round-trip decimal (the byte-stable convention the fleet
/// and tournament exports use).
std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lg", &parsed);
  if (parsed == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char probe[40];
      std::snprintf(probe, sizeof probe, "%.*g", prec, v);
      std::sscanf(probe, "%lg", &parsed);
      if (parsed == v) return probe;
    }
  }
  return buf;
}

/// Prometheus sample value (exposition format allows +Inf/-Inf/NaN).
std::string prom_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return fmt_number(v);
}

/// `node.curve.hits` -> `focv_node_curve_hits` (v0.0.4 name charset).
std::string prom_name(const std::string& name) {
  std::string out = "focv_";
  out.reserve(name.size() + out.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void append_kv_object(std::string& out, const char* key,
                      const std::vector<std::pair<std::string, double>>& kvs) {
  out += '"';
  out += key;
  out += "\":{";
  for (std::size_t i = 0; i < kvs.size(); ++i) {
    if (i) out += ',';
    out += '"' + json_escape(kvs[i].first) + "\":" + fmt_number(kvs[i].second);
  }
  out += '}';
}

}  // namespace

MetricsDelta diff_snapshots(const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  MetricsDelta delta;
  std::map<std::string, double> prev_counters(prev.counters.begin(), prev.counters.end());
  for (const auto& [name, value] : cur.counters) {
    const auto it = prev_counters.find(name);
    const double before = it == prev_counters.end() ? 0.0 : it->second;
    if (value != before) delta.counters.emplace_back(name, value - before);
  }
  std::map<std::string, double> prev_gauges(prev.gauges.begin(), prev.gauges.end());
  for (const auto& [name, value] : cur.gauges) {
    const auto it = prev_gauges.find(name);
    if (it == prev_gauges.end() || it->second != value) {
      delta.gauges.emplace_back(name, value);
    }
  }
  std::map<std::string, std::uint64_t> prev_obs;
  for (const HistogramSnapshot& h : prev.histograms) prev_obs[h.name] = h.count;
  for (const HistogramSnapshot& h : cur.histograms) {
    const auto it = prev_obs.find(h.name);
    const std::uint64_t before = it == prev_obs.end() ? 0 : it->second;
    if (h.count > before) delta.observations += h.count - before;
  }
  return delta;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string p = prom_name(name) + "_total";
    out += "# HELP " + p + " focv counter " + name + "\n";
    out += "# TYPE " + p + " counter\n";
    out += p + " " + prom_number(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = prom_name(name);
    out += "# HELP " + p + " focv gauge " + name + "\n";
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + prom_number(value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    const std::string p = prom_name(h.name);
    out += "# HELP " + p + " focv histogram " + h.name + "\n";
    out += "# TYPE " + p + " histogram\n";
    // counts layout is [underflow, finite bins..., overflow]; the
    // cumulative le=edge series folds the underflow bucket into the
    // first edge (exact-edge observations land one bucket high, the
    // usual float-histogram approximation).
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += p + "_bucket{le=\"" + prom_number(h.edges[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += p + "_sum " + prom_number(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string to_snapshot_json(const MetricsSnapshot& snapshot, std::uint64_t sequence,
                             const MetricsDelta* delta) {
  std::string out = "{\"schema\":\"focv-obs-snapshot/v1\",\"sequence\":" +
                    std::to_string(sequence) + ",";
  append_kv_object(out, "counters", snapshot.counters);
  out += ',';
  append_kv_object(out, "gauges", snapshot.gauges);
  out += ",\"histograms\":[";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSnapshot& h = snapshot.histograms[i];
    if (i) out += ',';
    out += "{\"name\":\"" + json_escape(h.name) +
           "\",\"count\":" + std::to_string(h.count) + ",\"sum\":" + fmt_number(h.sum) +
           ",\"mean\":" + fmt_number(h.mean()) + ",\"edges\":[";
    for (std::size_t k = 0; k < h.edges.size(); ++k) {
      if (k) out += ',';
      out += fmt_number(h.edges[k]);
    }
    out += "],\"counts\":[";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(h.counts[k]);
    }
    out += "]}";
  }
  out += ']';
  if (delta != nullptr) {
    out += ",\"delta\":{";
    append_kv_object(out, "counters", delta->counters);
    out += ',';
    append_kv_object(out, "gauges", delta->gauges);
    out += ",\"observations\":" + std::to_string(delta->observations) + '}';
  }
  out += "}\n";
  return out;
}

SnapshotPublisher::SnapshotPublisher(MetricsRegistry& registry, Options options)
    : registry_(registry), options_(std::move(options)) {}

bool SnapshotPublisher::maybe_publish() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  if (sequence_ > 0 &&
      std::chrono::duration<double>(now - last_publish_).count() < options_.min_period_s) {
    return false;
  }
  const MetricsSnapshot cur = registry_.snapshot();
  if (sequence_ > 0 && diff_snapshots(last_, cur).empty()) return false;
  publish_locked();
  return true;
}

void SnapshotPublisher::publish() {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked();
}

void SnapshotPublisher::publish_locked() {
  const MetricsSnapshot cur = registry_.snapshot();
  const MetricsDelta delta = diff_snapshots(last_, cur);
  ++sequence_;
  if (!options_.json_path.empty()) {
    std::ofstream f(options_.json_path, std::ios::binary);
    require(f.good(), "SnapshotPublisher: cannot open " + options_.json_path);
    f << to_snapshot_json(cur, sequence_, &delta);
    require(f.good(), "SnapshotPublisher: write failed for " + options_.json_path);
  }
  if (!options_.prometheus_path.empty()) {
    std::ofstream f(options_.prometheus_path, std::ios::binary);
    require(f.good(), "SnapshotPublisher: cannot open " + options_.prometheus_path);
    f << to_prometheus(cur);
    require(f.good(), "SnapshotPublisher: write failed for " + options_.prometheus_path);
  }
  if (options_.on_publish) options_.on_publish(cur, delta, sequence_);
  last_ = cur;
  last_publish_ = std::chrono::steady_clock::now();
}

std::uint64_t SnapshotPublisher::sequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sequence_;
}

MetricsSnapshot SnapshotPublisher::last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

}  // namespace focv::obs
