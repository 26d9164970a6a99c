#include "serve/protocol.hpp"

#include "common/json.hpp"
#include "mppt/registry.hpp"

namespace focv::serve {

bool parse_request(const std::string& payload, Request& out, std::string& error) {
  std::string parse_error;
  Json body;
  if (!Json::parse(payload, body, &parse_error)) {
    error = error_response("null", errc::kBadJson, "request is not valid JSON: " + parse_error);
    return false;
  }
  if (!body.is_object()) {
    error = error_response("null", errc::kBadRequest, "request must be a JSON object");
    return false;
  }
  out.id_json = "null";
  if (const Json* id = body.find("id")) {
    if (!id->is_number() && !id->is_string() && !id->is_null()) {
      error = error_response("null", errc::kBadRequest, "\"id\" must be a number or a string");
      return false;
    }
    out.id_json = id->dump();
  }
  const Json* op = body.find("op");
  if (op == nullptr || !op->is_string() || op->as_string().empty()) {
    error = error_response(out.id_json, errc::kBadRequest,
                           "request is missing the \"op\" string field");
    return false;
  }
  out.op = op->as_string();
  out.deadline_ms = body.number_or("deadline_ms", 0.0);
  if (!(out.deadline_ms >= 0.0)) {
    error = error_response(out.id_json, errc::kBadRequest, "\"deadline_ms\" must be >= 0");
    return false;
  }
  out.body = std::move(body);
  return true;
}

std::string ok_response(const std::string& id_json, const std::string& result_json) {
  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"id\":";
  out += id_json;
  out += ",\"ok\":true,\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string error_response(const std::string& id_json, const char* code,
                           const std::string& message, const std::string& token,
                           const std::string& hint) {
  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"id\":";
  out += id_json;
  out += ",\"ok\":false,\"error\":{\"code\":\"";
  out += code;
  out += "\",\"message\":\"";
  out += json_escape(message);
  out += '"';
  if (!token.empty()) {
    out += ",\"token\":\"";
    out += json_escape(token);
    out += '"';
  }
  if (!hint.empty()) {
    out += ",\"hint\":\"";
    out += json_escape(hint);
    out += '"';
  }
  out += "}}";
  return out;
}

std::string offending_token(const std::string& message) {
  // SpecError messages lead with the whole quoted spec and then quote
  // the token the parser tripped on (`mppt spec "focv[k=oops]": value
  // "oops" ...`, `... unknown parameter "bogus" for "focv"; ...`): the
  // SECOND quoted substring is the offender; with only one pair (e.g. a
  // framing error quoting just the spec) that pair is the best we have.
  std::string first;
  std::size_t pos = 0;
  while (true) {
    const std::size_t open = message.find('"', pos);
    if (open == std::string::npos) break;
    const std::size_t close = message.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string token = message.substr(open + 1, close - open - 1);
    if (first.empty()) {
      first = token;
    } else {
      return token;
    }
    pos = close + 1;
  }
  return first;
}

std::string spec_catalog_hint() {
  std::string hint = "registered controllers:";
  for (const std::string& name : mppt::Registry::instance().names()) {
    hint += ' ';
    hint += name;
  }
  hint += "; see the catalog op for parameters";
  return hint;
}

std::string error_from_spec(const std::string& id_json, const mppt::SpecError& error) {
  return error_response(id_json, errc::kBadSpec, error.what(), offending_token(error.what()),
                        spec_catalog_hint());
}

void encode_frame_header(std::uint32_t payload_size, unsigned char out[4]) {
  out[0] = static_cast<unsigned char>((payload_size >> 24) & 0xff);
  out[1] = static_cast<unsigned char>((payload_size >> 16) & 0xff);
  out[2] = static_cast<unsigned char>((payload_size >> 8) & 0xff);
  out[3] = static_cast<unsigned char>(payload_size & 0xff);
}

std::uint32_t decode_frame_header(const unsigned char in[4]) {
  return (static_cast<std::uint32_t>(in[0]) << 24) | (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) | static_cast<std::uint32_t>(in[3]);
}

std::string encode_frame(std::string_view payload) {
  unsigned char header[4];
  encode_frame_header(static_cast<std::uint32_t>(payload.size()), header);
  std::string out;
  out.reserve(payload.size() + 4);
  out.append(reinterpret_cast<const char*>(header), 4);
  out.append(payload);
  return out;
}

}  // namespace focv::serve
