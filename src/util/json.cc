#include "util/json.h"

#include <charconv>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace flatnet {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json ParseDocument() {
    Json value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw ParseError(StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(StrFormat("expected '%c'", c));
    ++pos_;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWhitespace();
    char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        // The parse recurses once per level; the cap bounds its stack.
        if (depth_ == Json::kMaxDepth) {
          Fail(StrFormat("nesting deeper than %d levels", Json::kMaxDepth));
        }
        ++depth_;
        Json value = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"': return Json(ParseString());
      case 't':
        if (ConsumeLiteral("true")) return Json(true);
        Fail("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json(false);
        Fail("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json(nullptr);
        Fail("bad literal");
      default: return ParseNumber();
    }
  }

  Json ParseObject() {
    Expect('{');
    Json::Object object;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      SkipWhitespace();
      std::size_t key_at = pos_;
      std::string key = ParseString();
      if (object.contains(key)) {
        pos_ = key_at;
        Fail("duplicate key '" + key + "'");
      }
      SkipWhitespace();
      Expect(':');
      object.emplace(std::move(key), ParseValue());
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(object));
      }
      Fail("expected ',' or '}' in object");
    }
  }

  Json ParseArray() {
    Expect('[');
    Json::Array array;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(ParseValue());
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(array));
      }
      Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) Fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs rejected for simplicity).
          if (code >= 0xd800 && code <= 0xdfff) Fail("surrogate pairs unsupported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: Fail("unknown escape");
      }
    }
  }

  Json ParseNumber() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      Fail("malformed number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void EscapeInto(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void DumpInto(const Json& value, int indent, int depth, std::string& out);

void Newline(int indent, int depth, std::string& out) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void DumpNumber(double n, std::string& out) {
  if (std::floor(n) == n && std::abs(n) < 1e15) {
    out += StrFormat("%lld", static_cast<long long>(n));
  } else {
    out += StrFormat("%.17g", n);
  }
}

void DumpInto(const Json& value, int indent, int depth, std::string& out) {
  switch (value.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += value.AsBool() ? "true" : "false"; break;
    case Json::Type::kNumber: DumpNumber(value.AsNumber(), out); break;
    case Json::Type::kString: EscapeInto(value.AsString(), out); break;
    case Json::Type::kArray: {
      const auto& array = value.AsArray();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out.push_back(',');
        Newline(indent, depth + 1, out);
        DumpInto(array[i], indent, depth + 1, out);
      }
      Newline(indent, depth, out);
      out.push_back(']');
      break;
    }
    case Json::Type::kObject: {
      const auto& object = value.AsObject();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : object) {
        if (!first) out.push_back(',');
        first = false;
        Newline(indent, depth + 1, out);
        EscapeInto(key, out);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        DumpInto(member, indent, depth + 1, out);
      }
      Newline(indent, depth, out);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

bool Json::AsBool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw InvalidArgument("Json: not a bool");
}

double Json::AsNumber() const {
  if (const double* n = std::get_if<double>(&value_)) return *n;
  throw InvalidArgument("Json: not a number");
}

std::uint64_t Json::AsU64() const {
  double n = AsNumber();
  // 0x1p64 is 2^64, the first double no uint64_t holds.
  if (n < 0 || std::floor(n) != n || n >= 0x1p64) {
    throw InvalidArgument("Json: not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(n);
}

const std::string& Json::AsString() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  throw InvalidArgument("Json: not a string");
}

const Json::Array& Json::AsArray() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  throw InvalidArgument("Json: not an array");
}

const Json::Object& Json::AsObject() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  throw InvalidArgument("Json: not an object");
}

void Json::Append(Json value) {
  if (Array* a = std::get_if<Array>(&value_)) {
    a->push_back(std::move(value));
    return;
  }
  throw InvalidArgument("Json::Append: not an array");
}

std::size_t Json::size() const {
  if (const Array* a = std::get_if<Array>(&value_)) return a->size();
  if (const Object* o = std::get_if<Object>(&value_)) return o->size();
  throw InvalidArgument("Json::size: not a container");
}

const Json& Json::operator[](std::size_t index) const {
  const Array& array = AsArray();
  if (index >= array.size()) throw InvalidArgument("Json: array index out of range");
  return array[index];
}

Json& Json::operator[](const std::string& key) {
  if (Object* o = std::get_if<Object>(&value_)) return (*o)[key];
  throw InvalidArgument("Json::operator[]: not an object");
}

const Json& Json::At(const std::string& key) const {
  const Object& object = AsObject();
  auto it = object.find(key);
  if (it == object.end()) throw InvalidArgument("Json::At: missing key '" + key + "'");
  return it->second;
}

const Json& Json::Get(const std::string& key) const {
  static const Json kNull;
  const Object& object = AsObject();
  auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

bool Json::Contains(const std::string& key) const { return AsObject().contains(key); }

Json Json::Parse(std::string_view text) { return Parser(text).ParseDocument(); }

std::string Json::Dump(int indent) const {
  std::string out;
  DumpInto(*this, indent, 0, out);
  return out;
}

}  // namespace flatnet
