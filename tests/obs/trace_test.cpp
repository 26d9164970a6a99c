// Tracer: span nesting/ordering on the wall-clock timeline, explicit
// sim-time records on pid 2, and structural validity of the exported
// Chrome trace_event JSON (the artifact Perfetto loads).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace focv::obs {
namespace {

const TraceEvent* find_event(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Trace, NestedSpansRecordContainedIntervals) {
  Tracer tracer;
  {
    Tracer::Span outer = tracer.span("outer", "test");
    outer.arg("k", 1.0);
    {
      Tracer::Span inner = tracer.span("inner", "test");
      inner.arg("label", std::string("leaf"));
    }
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = find_event(events, "outer");
  const TraceEvent* inner = find_event(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(outer->pid, Tracer::kWallPid);
  EXPECT_EQ(outer->tid, inner->tid);  // same recording thread
  // The inner interval is contained in the outer one.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us + 1e-3);
  // events() sorts by (pid, tid, ts): parent first.
  EXPECT_EQ(events[0].name, "outer");
}

TEST(Trace, SpanIsMovableAndFinishIsIdempotent) {
  Tracer tracer;
  std::optional<Tracer::Span> span;
  span.emplace(tracer.span("moved", "test"));
  span->arg("n", 2.0);
  span->finish();
  span->finish();  // second finish records nothing
  span.reset();    // destruction after finish records nothing either
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Trace, SimTimelineEventsLandOnPidTwo) {
  Tracer tracer;
  tracer.record_complete("sample_window", "mppt", /*ts_us=*/69.0e6,
                         /*dur_us=*/39e3, Tracer::kSimPid,
                         {TraceArg("voc", 3.1)});
  tracer.record_instant("hold_decay", "mppt", /*ts_us=*/120.0e6, Tracer::kSimPid);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].pid, Tracer::kSimPid);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 69.0e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 39e3);
  EXPECT_EQ(events[1].phase, 'i');
}

TEST(Trace, ChromeJsonIsStructurallyValidAndCarriesBothTimelines) {
  Tracer tracer;
  {
    Tracer::Span s = tracer.span("job", "sweep");
    s.arg("scenario", std::string("office \"desk\"\\night"));  // escaping
  }
  tracer.record_complete("sample_window", "mppt", 1e6, 39e3, Tracer::kSimPid);

  const std::string json = tracer.to_chrome_json();
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(json, doc, &error)) << error << "\n" << json;
  // The quote and backslash in the arg survive the escape/parse trip.
  const Json* trace_events = doc.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  std::string scenario;
  for (const Json& e : trace_events->items()) {
    if (e.string_or("name", "") != "job") continue;
    if (const Json* args = e.find("args")) scenario = args->string_or("scenario", "");
  }
  EXPECT_EQ(scenario, "office \"desk\"\\night");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Both timelines are named via process_name metadata records.
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("wall clock"), std::string::npos);
  EXPECT_NE(json.find("simulated time"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // The quote and backslash in the arg survived as valid JSON escapes.
  EXPECT_NE(json.find("office \\\"desk\\\"\\\\night"), std::string::npos);
  EXPECT_NE(json.find("focv-obs/v1"), std::string::npos);
}

TEST(Trace, ResetDropsEventsAndRestartsTheClock) {
  Tracer tracer;
  { Tracer::Span s = tracer.span("a", "test"); }
  ASSERT_EQ(tracer.event_count(), 1u);
  tracer.reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  const double t0 = tracer.now_us();
  EXPECT_GE(t0, 0.0);
  EXPECT_LT(t0, 5e6);  // origin restarted, not process start
}

}  // namespace
}  // namespace focv::obs
