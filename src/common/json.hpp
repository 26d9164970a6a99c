// The repo's one JSON module: the two text primitives every byte-stable
// exporter shares (string escaping, %.17g numbers) and a small value
// tree with a deterministic writer and a depth-bounded parser.
//
// Writers: fleet, sweep, tournament and obs exports hand-roll their
// layouts around json_escape/format_number; the serve protocol renders
// through Json::dump. Either way the bytes must not depend on how the
// work was scheduled, so dump() has no configuration: object keys keep
// insertion order, doubles print with format_number, and there is
// exactly one spacing convention.
//
// Reader: Json::parse takes serve request frames and the telemetry
// artifacts tools/obs_report folds. Numbers are read by the C
// library's string-to-double conversion, so the `inf`/`-inf`
// format_number prints for infinities read back; a bare `nan` takes the
// `null` literal path and is rejected.
//
// kRaw lets a response embed an already-rendered byte-stable JSON
// document (e.g. FleetReport::to_json()) without a parse/re-print trip
// that could perturb its bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace focv {

/// JSON string escaping (quotes not included): `"`, `\`, `\n`, `\r`
/// and `\t` get their short escapes, other control bytes `\u00XX`.
[[nodiscard]] std::string json_escape(std::string_view s);

/// %.17g: round-trips every double, and prints the same bytes on every
/// run and thread count. Non-finite values print as `inf` / `nan`.
[[nodiscard]] std::string format_number(double v);

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
  /// malformed input, trailing garbage or nesting deeper than 48.
  static bool parse(const std::string& text, Json& out, std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< kString payload, or kRaw pre-rendered text
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace focv
