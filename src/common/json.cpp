#include "common/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace focv {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::raw(std::string text) {
  Json j;
  j.type_ = Type::kRaw;
  j.string_ = std::move(text);
  return j;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

std::string Json::string_or(const std::string& key, std::string fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string_ : std::move(fallback);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

void Json::push_back(Json v) {
  type_ = Type::kArray;
  array_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  type_ = Type::kObject;
  object_.emplace_back(std::move(key), std::move(v));
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: out += format_number(number_); return;
    case Type::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      return;
    case Type::kRaw: out += string_; return;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += json_escape(object_[i].first);
        out += "\":";
        object_[i].second.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

// Recursive-descent parser. Depth-bounded so a hostile frame of nested
// '[' cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Json& out, std::string* error) {
    error_ = error;
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 48;

  bool fail(const char* message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(message) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool literal(const char* word, std::size_t n) {
    if (s_.compare(pos_, n, word) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object(out, depth);
    if (c == '[') return array(out, depth);
    if (c == '"') {
      std::string s;
      if (!string(s)) return false;
      out = Json::string(std::move(s));
      return true;
    }
    if (c == 't') {
      out = Json::boolean(true);
      return literal("true", 4);
    }
    if (c == 'f') {
      out = Json::boolean(false);
      return literal("false", 5);
    }
    // `nan` is a number: format_number prints it for a positive NaN.
    if (c == 'n' && s_.compare(pos_, 3, "nan") != 0) {
      out = Json();
      return literal("null", 4);
    }
    return number(out);
  }

  bool number(Json& out) {
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return fail("expected a JSON value");
    out = Json::number(v);
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by this protocol's ASCII-leaning payloads).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool array(Json& out, int depth) {
    out = Json::array();
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json element;
      if (!value(element, depth + 1)) return false;
      out.push_back(std::move(element));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool object(Json& out, int depth) {
    out = Json::object();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':' after key");
      ++pos_;
      Json val;
      if (!value(val, depth + 1)) return false;
      out.set(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* error_ = nullptr;
};

}  // namespace

bool Json::parse(const std::string& text, Json& out, std::string* error) {
  if (error != nullptr) error->clear();
  Parser parser(text);
  return parser.parse(out, error);
}

}  // namespace focv
