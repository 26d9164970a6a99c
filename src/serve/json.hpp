// Minimal JSON value for the focv-serve/v1 wire protocol.
//
// The serve tier needs both directions — parse request bodies arriving
// over the socket and render responses — under one hard constraint: the
// rendering must be byte-deterministic, because the protocol contract
// (tests/serve/) says identical request JSON yields byte-identical
// response JSON no matter how the server scheduled or batched the work.
// So the writer has no configuration: object keys keep insertion order,
// doubles print with the same %.17g round-trip format the fleet/sweep
// exports use (common/json_text.hpp), and there is exactly one spacing
// convention.
//
// kRaw lets a response embed an already-rendered byte-stable JSON
// document (e.g. FleetReport::to_json()) without a parse/re-print trip
// that could perturb its bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace focv::serve {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();
  /// Pre-rendered JSON embedded verbatim by dump(). The caller promises
  /// `text` is itself valid, byte-stable JSON.
  static Json raw(std::string text);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<Json>& items() const { return array_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Convenience typed lookups with fallbacks.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key, std::string fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

  /// Append to an array value.
  void push_back(Json v);
  /// Append a member to an object value (insertion order preserved; no
  /// duplicate check — the writer side controls its own keys).
  void set(std::string key, Json v);

  /// Render. Deterministic: same value tree -> same bytes.
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parse `text`. Returns false (and fills *error, when given) on
  /// malformed input or trailing garbage.
  static bool parse(const std::string& text, Json& out, std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< kString payload, or kRaw pre-rendered text
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace focv::serve
