// The one JSON module: the two writer primitives (json_escape,
// format_number), Json::parse's accept/reject paths with their
// messages and depth bound, and a seeded mutation loop. Every serve
// frame and every telemetry artifact obs_report folds goes through this
// parser, so malformed bytes must come back as `false`, never a crash.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace focv {
namespace {

std::string parse_error(const std::string& text) {
  Json out;
  std::string error;
  EXPECT_FALSE(Json::parse(text, out, &error)) << text;
  return error;
}

std::string parsed_string(const std::string& text) {
  Json out;
  std::string error;
  EXPECT_TRUE(Json::parse(text, out, &error)) << text << ": " << error;
  EXPECT_TRUE(out.is_string()) << text;
  return out.as_string();
}

std::string nested(int depth, const std::string& leaf) {
  return std::string(static_cast<std::size_t>(depth), '[') + leaf +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParse, AcceptsEveryValueKindAndWhitespace) {
  Json doc;
  ASSERT_TRUE(Json::parse(" {\"a\" : [1, -2.5e3, true, false, null, \"s\"], \"b\":{}} \n", doc));
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 6u);
  EXPECT_EQ(a->items()[1].as_number(), -2500.0);
  EXPECT_TRUE(a->items()[2].as_bool());
  EXPECT_TRUE(a->items()[4].is_null());
  EXPECT_EQ(a->items()[5].as_string(), "s");
  EXPECT_TRUE(doc.find("b")->is_object());
  EXPECT_EQ(doc.dump(), "{\"a\":[1,-2500,true,false,null,\"s\"],\"b\":{}}");
}

TEST(JsonParse, RejectsWithPositionedMessages) {
  EXPECT_EQ(parse_error("{\"a\":1} x"), "trailing characters after JSON value at byte 8");
  EXPECT_EQ(parse_error("tru"), "bad literal at byte 0");
  EXPECT_EQ(parse_error("[nul]"), "bad literal at byte 1");
  EXPECT_EQ(parse_error("\"abc"), "unterminated string at byte 4");
  EXPECT_EQ(parse_error("[1,2"), "unterminated array at byte 4");
  EXPECT_EQ(parse_error("{\"a\":1"), "unterminated object at byte 6");
  EXPECT_EQ(parse_error("\"\\u00zz\""), "bad \\u escape at byte 6");
  EXPECT_EQ(parse_error("\"\\u12\""), "truncated \\u escape at byte 3");
  EXPECT_EQ(parse_error("\"\\x\""), "bad escape character at byte 3");
  EXPECT_EQ(parse_error(""), "unexpected end of input at byte 0");
  EXPECT_EQ(parse_error("[,]"), "expected a JSON value at byte 1");
  EXPECT_EQ(parse_error("[1,]"), "expected a JSON value at byte 3");
  EXPECT_EQ(parse_error("{,}"), "expected object key at byte 1");
  EXPECT_EQ(parse_error("{\"a\":1,}"), "expected object key at byte 7");
  EXPECT_EQ(parse_error("{\"a\" 1}"), "expected ':' after key at byte 5");
  EXPECT_EQ(parse_error("[1 2]"), "expected ',' or ']' in array at byte 3");
  EXPECT_EQ(parse_error("{\"a\":1 \"b\":2}"), "expected ',' or '}' in object at byte 7");
}

TEST(JsonParse, ErrorIsClearedOnEntryAndOptional) {
  std::string error = "stale";
  Json out;
  EXPECT_TRUE(Json::parse("1", out, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_FALSE(Json::parse("[", out));
}

TEST(JsonParse, DepthBoundIs48Containers) {
  Json out;
  std::string error;
  EXPECT_TRUE(Json::parse(nested(48, "0"), out, &error)) << error;
  EXPECT_FALSE(Json::parse(nested(49, "0"), out, &error));
  EXPECT_EQ(error, "nesting too deep at byte 49");
}

TEST(JsonParse, UnicodeEscapesEncodeUtf8) {
  EXPECT_EQ(parsed_string("\"\\u0041\\u0009\""), "A\t");
  EXPECT_EQ(parsed_string("\"\\u00e9\""), "\xc3\xa9");
  EXPECT_EQ(parsed_string("\"\\u00E9\""), "\xc3\xa9");
  EXPECT_EQ(parsed_string("\"\\u20ac\""), "\xe2\x82\xac");
  EXPECT_EQ(parsed_string("\"\\\"\\\\\\/\\b\\f\\n\\r\\t\""), "\"\\/\b\f\n\r\t");
}

TEST(JsonEscape, ShortEscapesAndControlBytes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\b\f\0", 5)), "\\u0001\\u001f\\u0008\\u000c\\u0000");
  // DEL and non-ASCII bytes pass through untouched.
  EXPECT_EQ(json_escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
  // Every escaped byte parses back to itself.
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(parsed_string('"' + json_escape(all) + '"'), all);
}

TEST(JsonNumber, SeventeenDigitsRoundTrip) {
  for (const double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 7.6e-6, 1e-300, 5e-324, 123456789.0,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min()}) {
    const std::string text = format_number(v);
    Json out;
    ASSERT_TRUE(Json::parse(text, out)) << text;
    const double back = out.as_number();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0) << text;
  }
  EXPECT_EQ(format_number(0.1), "0.10000000000000001");
  EXPECT_EQ(format_number(2.0), "2");
}

TEST(JsonNumber, NonFinitePrintAsInfNanAndParseBack) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(format_number(inf), "inf");
  EXPECT_EQ(format_number(-inf), "-inf");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
  // Numbers go through strtod, so infinities and a signed NaN read
  // back. A bare `nan` takes the `null` literal path and is rejected.
  Json out;
  ASSERT_TRUE(Json::parse("[inf,-inf,-nan]", out));
  EXPECT_EQ(out.items()[0].as_number(), inf);
  EXPECT_EQ(out.items()[1].as_number(), -inf);
  EXPECT_TRUE(std::isnan(out.items()[2].as_number()));
  EXPECT_EQ(parse_error("nan"), "bad literal at byte 0");
}

// --- seeded mutation loop ---------------------------------------------

Json random_value(Rng& rng, int depth) {
  const std::uint64_t kind = depth >= 4 ? rng.below(4) : rng.below(6);
  switch (kind) {
    case 0: return Json::null();
    case 1: return Json::boolean(rng.below(2) == 1);
    case 2: {
      // Any non-NaN bit pattern: subnormals, extremes and infinities.
      const std::uint64_t bits = rng.next_u64();
      double v = 0.0;
      std::memcpy(&v, &bits, sizeof v);
      if (std::isnan(v)) v = -0.0;
      return Json::number(rng.below(2) == 0 ? v : std::ldexp(rng.uniform(-1.0, 1.0), 20));
    }
    case 3: {
      std::string s(rng.below(12), '\0');
      for (char& c : s) c = static_cast<char>(rng.below(256));
      return Json::string(std::move(s));
    }
    case 4: {
      Json array = Json::array();
      for (std::uint64_t i = rng.below(5); i > 0; --i) array.push_back(random_value(rng, depth + 1));
      return array;
    }
    default: {
      Json object = Json::object();
      for (std::uint64_t i = rng.below(5); i > 0; --i) {
        object.set("k" + std::to_string(rng.below(100)), random_value(rng, depth + 1));
      }
      return object;
    }
  }
}

/// Parse `text`; when it parses, its dump must be a fixed point of
/// parse -> dump. Returns whether `text` parsed.
bool parse_is_stable(const std::string& text) {
  Json first;
  if (!Json::parse(text, first)) return false;
  const std::string dumped = first.dump();
  Json second;
  EXPECT_TRUE(Json::parse(dumped, second)) << dumped;
  EXPECT_EQ(second.dump(), dumped);
  return true;
}

void mutate_and_parse(Rng& rng, const std::string& text) {
  for (int round = 0; round < 8; ++round) {
    std::string truncated = text.substr(0, rng.below(text.size() + 1));
    parse_is_stable(truncated);
    if (text.empty()) continue;
    std::string flipped = text;
    flipped[rng.below(flipped.size())] ^= static_cast<char>(1 + rng.below(255));
    parse_is_stable(flipped);
    std::string inserted = text;
    inserted.insert(rng.below(inserted.size() + 1), 1, static_cast<char>(rng.below(256)));
    parse_is_stable(inserted);
  }
}

TEST(JsonFuzz, RandomTreesRoundTripAndMutantsNeverCrash) {
  Rng rng(20111017);
  for (int i = 0; i < 1000; ++i) {
    const std::string text = random_value(rng, 0).dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, &error)) << error << "\n" << text;
    ASSERT_EQ(parsed.dump(), text);
    mutate_and_parse(rng, text);
  }
}

TEST(JsonFuzz, CorpusAndItsMutantsNeverCrash) {
  const std::vector<std::string> corpus = {
      // A serve request frame.
      "{\"op\":\"sizing\",\"id\":7,\"deadline_ms\":250,\"env\":\"office\","
      "\"spec\":\"focv(k=0.76)\",\"report_period_s\":60}",
      // A Chrome trace with both timelines.
      "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"focv wall clock\"}},\n{\"name\":\"job\",\"cat\":\"sweep\","
      "\"ph\":\"X\",\"ts\":12.5,\"dur\":3.25,\"pid\":1,\"tid\":0,"
      "\"args\":{\"scenario\":\"office \\\"desk\\\"\\\\night\"}},\n{\"name\":\"sample_window\","
      "\"ph\":\"X\",\"ts\":1e6,\"dur\":39000,\"pid\":2,\"tid\":0}\n],"
      "\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"focv-obs/v1\"}}",
      // A metrics JSONL line and a snapshot.
      "{\"schema\":\"focv-obs/v1\",\"kind\":\"histogram\",\"name\":\"node.step_us\","
      "\"count\":86400,\"sum\":1.2345678901234567,\"buckets\":[[0.5,10],[inf,3]]}",
      "{\"schema\":\"focv-obs-snapshot/v1\",\"counters\":{\"node.steps\":86400},"
      "\"gauges\":{\"store.v\":-inf},\"histograms\":[]}",
  };
  Rng rng(7);
  for (const std::string& text : corpus) {
    ASSERT_TRUE(parse_is_stable(text)) << text;
    for (int i = 0; i < 100; ++i) mutate_and_parse(rng, text);
  }
}

}  // namespace
}  // namespace focv
