#include "serve/protocol.hpp"

#include <string>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "serve/session.hpp"

namespace focv::serve {
namespace {

TEST(ServeFrame, HeaderRoundTripsBigEndian) {
  unsigned char header[4];
  encode_frame_header(0x01020304u, header);
  EXPECT_EQ(header[0], 0x01u);
  EXPECT_EQ(header[1], 0x02u);
  EXPECT_EQ(header[2], 0x03u);
  EXPECT_EQ(header[3], 0x04u);
  EXPECT_EQ(decode_frame_header(header), 0x01020304u);

  for (const std::uint32_t size : {0u, 1u, 255u, 1u << 16, kMaxRequestFrame}) {
    encode_frame_header(size, header);
    EXPECT_EQ(decode_frame_header(header), size);
  }
}

TEST(ServeFrame, EncodeFramePrependsHeader) {
  const std::string frame = encode_frame("{\"op\":\"ping\"}");
  ASSERT_EQ(frame.size(), 4u + 13u);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 13u);
  EXPECT_EQ(frame.substr(4), "{\"op\":\"ping\"}");
}

TEST(ServeProtocol, ParseRequestAcceptsIdShapes) {
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request("{\"op\":\"ping\",\"id\":7}", request, error));
  EXPECT_EQ(request.op, "ping");
  EXPECT_EQ(request.id_json, "7");

  ASSERT_TRUE(parse_request("{\"op\":\"ping\",\"id\":\"a-b\"}", request, error));
  EXPECT_EQ(request.id_json, "\"a-b\"");

  ASSERT_TRUE(parse_request("{\"op\":\"ping\"}", request, error));
  EXPECT_EQ(request.id_json, "null");

  ASSERT_TRUE(parse_request("{\"op\":\"sizing\",\"deadline_ms\":250}", request, error));
  EXPECT_DOUBLE_EQ(request.deadline_ms, 250.0);
}

// Malformed envelopes must come back as complete error payloads the
// reader can frame as-is.
TEST(ServeProtocol, ParseRequestRejectsWithStructuredErrors) {
  const struct {
    const char* payload;
    const char* code;
  } shapes[] = {
      {"{\"op\":", errc::kBadJson},
      {"[1,2,3]", errc::kBadRequest},
      {"{\"id\":1}", errc::kBadRequest},
      {"{\"op\":\"\",\"id\":1}", errc::kBadRequest},
      {"{\"op\":\"ping\",\"id\":{}}", errc::kBadRequest},
      {"{\"op\":\"ping\",\"deadline_ms\":-1}", errc::kBadRequest},
      {"{\"op\":\"ping\",\"deadline_ms\":nan}", errc::kBadRequest},
  };
  for (const auto& shape : shapes) {
    Request request;
    std::string error;
    ASSERT_FALSE(parse_request(shape.payload, request, error)) << shape.payload;
    Json response;
    ASSERT_TRUE(Json::parse(error, response)) << error;
    EXPECT_FALSE(response.bool_or("ok", true));
    const Json* err = response.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->string_or("code", ""), shape.code) << shape.payload;
    EXPECT_FALSE(err->string_or("message", "").empty());
  }
}

// `nan` parses as a number since the JSON reader takes every number it
// prints; the parameter checks must still turn NaN away.
TEST(ServeProtocol, NanParametersAreBadRequests) {
  SessionState session;
  for (const char* payload :
       {R"({"op":"sizing","env":"office","report_period_s":nan})",
        R"({"op":"sweep","env":"office","specs":["focv"],"min_factor":-nan})",
        R"({"op":"fleet","nodes":nan})",
        R"({"op":"fleet","nodes":4,"environments":[{"name":"office","weight":nan}]})"}) {
    Request request;
    std::string error;
    ASSERT_TRUE(parse_request(payload, request, error)) << payload;
    CanonicalRequest canon;
    ASSERT_FALSE(session.canonicalize(request, canon, error)) << payload;
    Json response;
    ASSERT_TRUE(Json::parse(error, response)) << error;
    const Json* err = response.find("error");
    ASSERT_NE(err, nullptr) << payload;
    EXPECT_EQ(err->string_or("code", ""), errc::kBadRequest) << payload;
  }
}

TEST(ServeProtocol, ResponseEnvelopes) {
  EXPECT_EQ(ok_response("7", "{\"pong\":true}"),
            "{\"schema\":\"focv-serve/v1\",\"id\":7,\"ok\":true,"
            "\"result\":{\"pong\":true}}");
  EXPECT_EQ(error_response("null", errc::kOverloaded, "full"),
            "{\"schema\":\"focv-serve/v1\",\"id\":null,\"ok\":false,"
            "\"error\":{\"code\":\"overloaded\",\"message\":\"full\"}}");
  // token / hint appear only when non-empty.
  const std::string with_hint =
      error_response("1", errc::kBadSpec, "bad \"x\"", "x", "try the catalog");
  EXPECT_NE(with_hint.find("\"token\":\"x\""), std::string::npos);
  EXPECT_NE(with_hint.find("\"hint\":\"try the catalog\""), std::string::npos);
}

TEST(ServeProtocol, OffendingTokenPicksTokenAfterSpec) {
  EXPECT_EQ(offending_token("mppt spec \"focv[k=oops]\": value \"oops\" is not a number"),
            "oops");
  // Not the trailing controller name: the token right after the spec.
  EXPECT_EQ(
      offending_token(
          "mppt spec \"focv[bogus=1]\": unknown parameter \"bogus\" for \"focv\""),
      "bogus");
  // A single quoted token (the whole spec) is better than nothing.
  EXPECT_EQ(offending_token("unknown controller \"zap\""), "zap");
  EXPECT_EQ(offending_token("no quotes at all"), "");
}

// Satellite: a malformed controller spec arriving over the wire must
// surface as a structured bad_spec error — code, offending token, and a
// catalog hint — never a worker death. Four distinct malformed shapes.
TEST(ServeProtocol, MalformedSpecsMapToStructuredErrors) {
  SessionState session;
  const struct {
    const char* spec;
    const char* token_fragment;  ///< expected inside error.token
  } shapes[] = {
      {"zap", "zap"},                // unknown controller name
      {"focv[k=oops]", "k"},         // non-numeric parameter value
      {"focv[bogus=1]", "bogus"},    // unknown parameter key
      {"focv[k=0.7", "focv[k=0.7"},  // unterminated parameter list
      {"focv[k=99]", "k"},           // value outside the declared range
  };
  for (const auto& shape : shapes) {
    Request request;
    std::string error;
    const std::string payload =
        std::string("{\"op\":\"sizing\",\"id\":1,\"env\":\"office\",\"spec\":\"") +
        shape.spec + "\"}";
    ASSERT_TRUE(parse_request(payload, request, error)) << payload;
    CanonicalRequest canon;
    ASSERT_FALSE(session.canonicalize(request, canon, error)) << shape.spec;

    Json response;
    ASSERT_TRUE(Json::parse(error, response)) << error;
    EXPECT_FALSE(response.bool_or("ok", true));
    const Json* err = response.find("error");
    ASSERT_NE(err, nullptr) << shape.spec;
    EXPECT_EQ(err->string_or("code", ""), errc::kBadSpec) << shape.spec;
    EXPECT_FALSE(err->string_or("message", "").empty());
    EXPECT_NE(err->string_or("token", "").find(shape.token_fragment), std::string::npos)
        << shape.spec << " token=" << err->string_or("token", "");
    // The hint names the registered controllers and the catalog op.
    const std::string hint = err->string_or("hint", "");
    EXPECT_NE(hint.find("focv"), std::string::npos) << hint;
    EXPECT_NE(hint.find("catalog"), std::string::npos) << hint;
  }
}

TEST(ServeProtocol, SpecCatalogHintListsControllers) {
  SessionState session;  // registers the paper controller
  const std::string hint = spec_catalog_hint();
  for (const char* name : {"focv", "fixed", "pando", "inccond"}) {
    EXPECT_NE(hint.find(name), std::string::npos) << hint;
  }
}

}  // namespace
}  // namespace focv::serve
