#include <gtest/gtest.h>

#include "util/error.h"
#include "util/json.h"

namespace flatnet {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_EQ(Json::Parse("true").AsBool(), true);
  EXPECT_EQ(Json::Parse("false").AsBool(), false);
  EXPECT_DOUBLE_EQ(Json::Parse("42").AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Json::Parse("-3.5e2").AsNumber(), -350.0);
  EXPECT_EQ(Json::Parse("\"hi\"").AsString(), "hi");
}

TEST(Json, ParsesContainers) {
  Json value = Json::Parse(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  EXPECT_EQ(value.type(), Json::Type::kObject);
  EXPECT_EQ(value.At("a").size(), 3u);
  EXPECT_DOUBLE_EQ(value.At("a")[1].AsNumber(), 2.0);
  EXPECT_TRUE(value.At("a")[2].At("b").is_null());
  EXPECT_EQ(value.At("c").AsString(), "x");
  EXPECT_TRUE(value.Contains("a"));
  EXPECT_FALSE(value.Contains("z"));
  EXPECT_TRUE(value.Get("z").is_null());
  EXPECT_THROW(value.At("z"), InvalidArgument);
}

TEST(Json, StringEscapes) {
  Json value = Json::Parse(R"("line\n\ttab \"quoted\" back\\slash é")");
  EXPECT_EQ(value.AsString(), "line\n\ttab \"quoted\" back\\slash \xc3\xa9");
  // Round trip through Dump.
  Json again = Json::Parse(value.Dump());
  EXPECT_EQ(again, value);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::Parse(""), ParseError);
  EXPECT_THROW(Json::Parse("{"), ParseError);
  EXPECT_THROW(Json::Parse("[1,]"), ParseError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(Json::Parse("tru"), ParseError);
  EXPECT_THROW(Json::Parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::Parse("1 2"), ParseError);  // trailing garbage
  EXPECT_THROW(Json::Parse("\"\\q\""), ParseError);
  EXPECT_THROW(Json::Parse("\"\\u12\""), ParseError);
}

TEST(Json, BuildAndDump) {
  Json root = Json::MakeObject();
  root["asn"] = 15169;
  root["name"] = "Google";
  Json list = Json::MakeArray();
  list.Append(1);
  list.Append("two");
  list.Append(Json::MakeObject());
  root["list"] = std::move(list);
  std::string compact = root.Dump();
  EXPECT_EQ(compact, R"({"asn":15169,"list":[1,"two",{}],"name":"Google"})");
  // Pretty output parses back to the same value.
  EXPECT_EQ(Json::Parse(root.Dump(2)), root);
}

TEST(Json, NumbersRoundTripAsIntegers) {
  const Json value = Json::Parse("[4294967295, 0, 123456789012]");
  EXPECT_EQ(value[0].AsU64(), 4294967295ull);
  EXPECT_EQ(value[2].AsU64(), 123456789012ull);
  EXPECT_EQ(value.Dump(), "[4294967295,0,123456789012]");
  EXPECT_THROW(Json::Parse("-1").AsU64(), InvalidArgument);
  EXPECT_THROW(Json::Parse("1.5").AsU64(), InvalidArgument);
}

TEST(Json, TypeMismatchesThrow) {
  const Json value = Json::Parse("[1]");
  EXPECT_THROW(value.AsObject(), InvalidArgument);
  EXPECT_THROW(value.AsString(), InvalidArgument);
  EXPECT_THROW(value[5], InvalidArgument);
  Json scalar(3.0);
  EXPECT_THROW(scalar.Append(1), InvalidArgument);
  EXPECT_THROW(scalar.size(), InvalidArgument);
}

TEST(Json, DeepNesting) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "[";
  text += "7";
  for (int i = 0; i < 50; ++i) text += "]";
  Json value = Json::Parse(text);
  const Json* cursor = &value;
  for (int i = 0; i < 50; ++i) cursor = &(*cursor)[0];
  EXPECT_DOUBLE_EQ(cursor->AsNumber(), 7.0);
}

// The parser recurses once per level, so past the cap it must refuse
// rather than overflow the stack; the serve daemons parse every client
// line with it.
TEST(Json, NestingPastTheCapIsAParseError) {
  std::string open(Json::kMaxDepth, '[');
  std::string close(Json::kMaxDepth, ']');
  EXPECT_NO_THROW(Json::Parse(open + close));
  try {
    Json::Parse(open + "{\"a\":1}" + close);
    ADD_FAILURE() << "nesting past the cap parsed";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 256: nesting deeper than 256 levels");
  }
  EXPECT_THROW(Json::Parse(std::string(300'000, '[')), ParseError);
  EXPECT_THROW(Json::Parse(std::string(300'000, '{')), ParseError);
}

TEST(Json, RepeatedKeyIsAParseError) {
  try {
    Json::Parse(R"({"op":"status","op":"reach"})");
    ADD_FAILURE() << "a repeated key parsed";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 15: duplicate key 'op'");
  }
  EXPECT_THROW(Json::Parse(R"([{"a":1,"b":{"a":2},"a":3}])"), ParseError);
  // The same key in sibling or nested objects is no repeat.
  EXPECT_NO_THROW(Json::Parse(R"([{"a":1},{"a":2,"b":{"a":3}}])"));
}

TEST(Json, AsU64RejectsValuesPastTwoToThe64) {
  EXPECT_THROW(Json::Parse("1e300").AsU64(), InvalidArgument);
  EXPECT_THROW(Json::Parse("18446744073709551616").AsU64(), InvalidArgument);
  // The largest double below 2^64 still converts exactly.
  EXPECT_EQ(Json::Parse("18446744073709549568").AsU64(), 18446744073709549568ull);
}

}  // namespace
}  // namespace flatnet
