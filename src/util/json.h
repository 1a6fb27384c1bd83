// Minimal JSON value, parser, and writer.
//
// Used for the PeeringDB-style snapshots (data/peeringdb.h) and for every
// request line the serve daemons read (serve/protocol.h), so Parse must
// turn any input into a value or a ParseError. Supports the full JSON
// grammar (objects, arrays, strings with escapes incl. \uXXXX for the BMP,
// numbers, booleans, null); numbers are stored as doubles, which is
// lossless for the 32-bit ids and ASNs the datasets carry.
#ifndef FLATNET_UTIL_JSON_H_
#define FLATNET_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace flatnet {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps key order deterministic for byte-stable dumps.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double n) : value_(n) {}
  Json(int n) : value_(static_cast<double>(n)) {}
  Json(unsigned n) : value_(static_cast<double>(n)) {}
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}
  Json(std::uint64_t n) : value_(static_cast<double>(n)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }

  // Checked accessors; throw InvalidArgument on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  std::uint64_t AsU64() const;  // rejects non-integers and values outside [0, 2^64)
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;

  // Array helpers.
  void Append(Json value);
  std::size_t size() const;
  const Json& operator[](std::size_t index) const;

  // Object helpers. operator[] inserts (for building); At throws on a
  // missing key; Get returns a null Json for missing keys.
  Json& operator[](const std::string& key);
  const Json& At(const std::string& key) const;
  const Json& Get(const std::string& key) const;
  bool Contains(const std::string& key) const;

  // Arrays and objects nest at most this deep in a parsed document: the
  // parser recurses once per level, so the cap bounds its stack use.
  static constexpr int kMaxDepth = 256;

  // Parses a complete JSON document (trailing garbage is an error). Throws
  // ParseError with the byte offset on malformed input, on a repeated key
  // within one object, and on nesting deeper than kMaxDepth.
  static Json Parse(std::string_view text);

  // Serializes. indent < 0 => compact; otherwise pretty-print with that
  // many spaces per level.
  std::string Dump(int indent = -1) const;

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace flatnet

#endif  // FLATNET_UTIL_JSON_H_
