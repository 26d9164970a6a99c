#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/json_text.hpp"
#include "common/require.hpp"

namespace focv::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void append_args(std::string& out, const std::vector<TraceArg>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ',';
    out += '"' + json_escape(args[i].name) + "\":";
    if (args[i].is_number) {
      out += json_number(args[i].number);
    } else {
      out += '"' + json_escape(args[i].text) + '"';
    }
  }
  out += '}';
}

}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : origin_ns_(steady_now_ns()),
      sink_(ring_capacity, [this](const StagedRecord& r) { consume(r); }) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_now_ns() -
                             origin_ns_.load(std::memory_order_relaxed)) *
         1e-3;
}

void Tracer::record(StagedRecord::Kind kind, std::string_view name,
                    std::string_view category, double ts_us, double dur_us, int pid,
                    const std::vector<TraceArg>& args) {
  require(args.size() <= kMaxStagedFields, "Tracer: too many args");
  RingSink::Slot slot = sink_.acquire();
  if (!slot) return;  // ring full under Overflow::kDrop — counted
  StagedRecord& r = *slot.record;
  r.kind = kind;
  r.name = name;
  r.category = category;
  r.ts_us = ts_us;
  r.dur_us = dur_us;
  r.pid = pid;
  for (const TraceArg& a : args) {
    StagedField& sf = r.fields[r.n_fields++];
    sf.name = a.name;
    sf.is_number = a.is_number;
    sf.number = a.number;
    sf.text = a.text;
  }
  sink_.publish(slot);
}

void Tracer::record_complete(std::string name, std::string category, double ts_us,
                             double dur_us, int pid, std::vector<TraceArg> args) {
  record(StagedRecord::Kind::kComplete, name, category, ts_us, dur_us, pid, args);
}

void Tracer::record_instant(std::string name, std::string category, double ts_us, int pid,
                            std::vector<TraceArg> args) {
  record(StagedRecord::Kind::kInstant, name, category, ts_us, 0.0, pid, args);
}

void Tracer::consume(const StagedRecord& r) {
  TraceEvent e;
  e.name = r.name;
  e.category = r.category;
  e.phase = r.kind == StagedRecord::Kind::kInstant ? 'i' : 'X';
  e.pid = r.pid;
  e.tid = r.tid;
  e.ts_us = r.ts_us;
  e.dur_us = r.dur_us;
  e.args.reserve(r.n_fields);
  for (std::uint32_t i = 0; i < r.n_fields; ++i) {
    const StagedField& f = r.fields[i];
    if (f.is_number) {
      e.args.emplace_back(f.name, f.number);
    } else {
      e.args.emplace_back(f.name, f.text);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

std::size_t Tracer::event_count() const {
  sink_.drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  sink_.drain();
  std::vector<TraceEvent> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = events_;
  }
  std::stable_sort(copy.begin(), copy.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.ts_us < b.ts_us;
  });
  return copy;
}

std::string Tracer::to_chrome_json() const {
  const std::vector<TraceEvent> sorted = events();
  std::string out = "{\"traceEvents\":[\n";
  // Metadata first: name the two timelines so Perfetto labels them.
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"focv wall clock\"}},\n";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"focv simulated time\"}}";
  for (const TraceEvent& e : sorted) {
    out += ",\n{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
           json_escape(e.category) + "\",\"ph\":\"" + e.phase + "\",\"pid\":" +
           std::to_string(e.pid) + ",\"tid\":" + std::to_string(e.tid) +
           ",\"ts\":" + json_number(e.ts_us);
    if (e.phase == 'X') out += ",\"dur\":" + json_number(e.dur_us);
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    out += ',';
    append_args(out, e.args);
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"focv-obs/v1\"}}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "Tracer: cannot open " + path);
  f << to_chrome_json();
  require(f.good(), "Tracer: write failed for " + path);
}

void Tracer::reset() {
  sink_.discard();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  origin_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

// ----------------------------------------------------------------- Span

Tracer::Span::Span(Tracer& tracer, std::string name, std::string category)
    : tracer_(&tracer),
      name_(std::move(name)),
      category_(std::move(category)),
      start_us_(tracer.now_us()) {}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      name_(std::move(other.name_)),
      category_(std::move(other.category_)),
      start_us_(other.start_us_),
      args_(std::move(other.args_)) {
  other.tracer_ = nullptr;
}

void Tracer::Span::arg(std::string name, double value) {
  args_.emplace_back(std::move(name), value);
}

void Tracer::Span::arg(std::string name, std::string value) {
  args_.emplace_back(std::move(name), std::move(value));
}

void Tracer::Span::finish() {
  if (tracer_ == nullptr) return;
  const double end_us = tracer_->now_us();
  tracer_->record(StagedRecord::Kind::kComplete, name_, category_, start_us_,
                  end_us - start_us_, kWallPid, args_);
  tracer_ = nullptr;
}

Tracer::Span::~Span() { finish(); }

}  // namespace focv::obs
