#include "obs/json_writer.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace tupelo::obs {

int64_t JsonValue::as_int() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      return static_cast<int64_t>(uint_);
    case Kind::kDouble:
      return static_cast<int64_t>(double_);
    default:
      return 0;
  }
}

uint64_t JsonValue::as_uint() const {
  switch (kind_) {
    case Kind::kInt:
      return int_ < 0 ? 0 : static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      return double_ < 0 ? 0 : static_cast<uint64_t>(double_);
    default:
      return 0;
  }
}

double JsonValue::as_double() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      return 0.0;
  }
}

JsonValue& JsonValue::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), JsonValue());
  return members_.back().second;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Append(JsonValue element) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  elements_.push_back(std::move(element));
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void AppendNewlineIndent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  char buf[40];
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      out += buf;
      break;
    case Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(uint_));
      out += buf;
      break;
    case Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out += buf;
      break;
    case Kind::kString:
      out += JsonEscape(string_);
      break;
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (size_t i = 0; i < elements_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent >= 0) AppendNewlineIndent(out, indent, depth + 1);
        elements_[i].DumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) AppendNewlineIndent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent >= 0) AppendNewlineIndent(out, indent, depth + 1);
        out += JsonEscape(members_[i].first);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (indent >= 0) AppendNewlineIndent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

// Containers nest at most this deep. The parser recurses once per level,
// so without a limit a frame of a million '[' overflows the stack; the
// deepest documents the repo itself writes (BENCH reports) nest ten.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    TUPELO_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters after JSON value at " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::ParseError(std::string("expected '") + c + "' at " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end of JSON");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxNestingDepth) {
        return Status::ParseError("JSON nests deeper than " +
                                  std::to_string(kMaxNestingDepth) +
                                  " levels at " + std::to_string(pos_));
      }
      ++depth_;
      Result<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    switch (c) {
      case '"': {
        TUPELO_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        TUPELO_RETURN_IF_ERROR(ExpectWord("true"));
        return JsonValue(true);
      case 'f':
        TUPELO_RETURN_IF_ERROR(ExpectWord("false"));
        return JsonValue(false);
      case 'n':
        TUPELO_RETURN_IF_ERROR(ExpectWord("null"));
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  Status ExpectWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Status::ParseError("invalid literal at " + std::to_string(pos_));
    }
    pos_ += word.size();
    return Status::OK();
  }

  Result<JsonValue> ParseObject() {
    TUPELO_RETURN_IF_ERROR(Expect('{'));
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      TUPELO_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      TUPELO_RETURN_IF_ERROR(Expect(':'));
      TUPELO_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj[key] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) return obj;
      TUPELO_RETURN_IF_ERROR(Expect(','));
    }
  }

  Result<JsonValue> ParseArray() {
    TUPELO_RETURN_IF_ERROR(Expect('['));
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      TUPELO_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.Append(std::move(v));
      SkipWhitespace();
      if (Consume(']')) return arr;
      TUPELO_RETURN_IF_ERROR(Expect(','));
    }
  }

  Result<std::string> ParseString() {
    TUPELO_RETURN_IF_ERROR(Expect('"'));
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::ParseError("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::ParseError("invalid \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not produced by
          // Dump and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Status::ParseError("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::ParseError("invalid escape character");
      }
    }
    return Status::ParseError("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      return Status::ParseError("invalid number at " + std::to_string(start));
    }
    if (is_double) {
      return JsonValue(std::strtod(token.c_str(), nullptr));
    }
    if (token[0] == '-') {
      return JsonValue(static_cast<int64_t>(
          std::strtoll(token.c_str(), nullptr, 10)));
    }
    uint64_t u = std::strtoull(token.c_str(), nullptr, 10);
    // Small non-negative integers stay in the int lane so that a
    // Dump/Parse cycle of JsonValue(int64_t) compares equal by kind.
    if (u <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return JsonValue(static_cast<int64_t>(u));
    }
    return JsonValue(u);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // containers currently open
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace tupelo::obs
