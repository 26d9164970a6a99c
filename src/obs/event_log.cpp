#include "obs/event_log.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/json.hpp"
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

}  // namespace

EventLog::EventLog(std::size_t ring_capacity)
    : origin_ns_(steady_now_ns()),
      sink_(ring_capacity, [this](const StagedRecord& r) { consume(r); }) {}

void EventLog::emit(std::string_view event, double sim_t,
                    std::initializer_list<EventField> fields) {
  require(fields.size() <= kMaxStagedFields, "EventLog: too many fields");
  const double wall_us =
      static_cast<double>(steady_now_ns() - origin_ns_.load(std::memory_order_relaxed)) *
      1e-3;
  RingSink::Slot slot = sink_.acquire();
  if (!slot) return;  // ring full under Overflow::kDrop — counted, not lost silently
  StagedRecord& r = *slot.record;
  r.kind = StagedRecord::Kind::kEvent;
  r.name = event;
  r.sim_t = sim_t;
  r.ts_us = wall_us;
  for (const EventField& f : fields) {
    StagedField& sf = r.fields[r.n_fields++];
    sf.name = f.name;
    sf.is_number = f.is_number;
    sf.number = f.number;
    sf.text = f.text;
  }
  sink_.publish(slot);
}

void EventLog::consume(const StagedRecord& r) {
  std::string line = "{\"schema\":\"focv-obs/v1\",\"kind\":\"event\",\"event\":\"" +
                     json_escape(r.name) + "\",\"sim_t\":" + json_number(r.sim_t) +
                     ",\"wall_us\":" + json_number(r.ts_us) + ",\"fields\":{";
  for (std::uint32_t i = 0; i < r.n_fields; ++i) {
    const StagedField& f = r.fields[i];
    if (i) line += ',';
    line += '"' + json_escape(f.name) + "\":";
    if (f.is_number) {
      line += json_number(f.number);
    } else {
      line += '"' + json_escape(f.text) + '"';
    }
  }
  line += "}}";
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(std::move(line));
  if (observer_) observer_(lines_.back());
}

std::size_t EventLog::size() const {
  sink_.drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

std::string EventLog::to_jsonl() const {
  sink_.drain();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::string> EventLog::lines() const {
  sink_.drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

void EventLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "EventLog: cannot open " + path);
  f << to_jsonl();
  require(f.good(), "EventLog: write failed for " + path);
}

void EventLog::reset() {
  sink_.discard();
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.clear();
  origin_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

void EventLog::set_line_observer(std::function<void(const std::string&)> observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  observer_ = std::move(observer);
}

}  // namespace focv::obs
