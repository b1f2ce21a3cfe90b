#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "common/error.h"

namespace ropus::json {
namespace {

TEST(Json, EmptyObjectAndArray) {
  EXPECT_EQ(Writer().begin_object().end_object().str(), "{}");
  EXPECT_EQ(Writer().begin_array().end_array().str(), "[]");
}

TEST(Json, ObjectMembersCommaSeparated) {
  Writer w;
  w.begin_object();
  w.key("a").value(std::int64_t{1});
  w.key("b").value("two");
  w.key("c").value(true);
  w.key("d").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":true,"d":null})");
}

TEST(Json, ArrayElements) {
  Writer w;
  w.begin_array();
  w.value(std::int64_t{1}).value(std::int64_t{2}).value("x");
  w.end_array();
  EXPECT_EQ(w.str(), R"([1,2,"x"])");
}

TEST(Json, Nesting) {
  Writer w;
  w.begin_object();
  w.key("list").begin_array();
  w.begin_object().key("k").value(std::int64_t{7}).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[{"k":7}]})");
}

TEST(Json, StringEscaping) {
  Writer w;
  w.begin_array();
  w.value("quote\" slash\\ newline\n tab\t");
  w.end_array();
  EXPECT_EQ(w.str(), "[\"quote\\\" slash\\\\ newline\\n tab\\t\"]");
}

TEST(Json, ControlCharactersEscaped) {
  Writer w;
  w.begin_array().value(std::string_view("\x01", 1)).end_array();
  EXPECT_EQ(w.str(), "[\"\\u0001\"]");
}

// The writer copies unescaped runs whole, so each escape must land right
// at the start of a string, between two runs and at its end.
TEST(Json, EachEscapeAtStartMiddleAndEnd) {
  const struct {
    char raw;
    const char* escaped;
  } classes[] = {{'"', "\\\""},  {'\\', "\\\\"},    {'\n', "\\n"},
                 {'\r', "\\r"},  {'\t', "\\t"},     {'\x01', "\\u0001"},
                 {'\x1f', "\\u001f"}};
  for (const auto& c : classes) {
    const std::string e = c.escaped;
    const std::pair<std::string, std::string> cases[] = {
        {std::string(1, c.raw) + "ab", e + "ab"},
        {"ab" + std::string(1, c.raw) + "cd", "ab" + e + "cd"},
        {"ab" + std::string(1, c.raw), "ab" + e},
        {std::string(1, c.raw), e},
        {std::string(2, c.raw), e + e},
    };
    for (const auto& [raw, escaped] : cases) {
      Writer w;
      w.value(raw);
      EXPECT_EQ(w.str(), "\"" + escaped + "\"") << "escaped=" << c.escaped;
      EXPECT_EQ(parse(w.str()).as_string(), raw) << "escaped=" << c.escaped;
    }
  }
  Writer empty;
  empty.value(std::string_view{});
  EXPECT_EQ(empty.str(), "\"\"");
}

TEST(Json, DoublesRoundTrip) {
  Writer w;
  w.begin_array();
  w.value(0.5).value(-3.25).value(1e20);
  w.end_array();
  EXPECT_EQ(w.str(), "[0.5,-3.25,1e+20]");
}

TEST(Json, NonFiniteBecomesNull) {
  Writer w;
  w.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Json, MisuseThrows) {
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.value(std::int64_t{1}), InternalError);  // no key
  }
  {
    Writer w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), InternalError);  // key in array
  }
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), InternalError);  // mismatched close
  }
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.str(), InternalError);  // incomplete
  }
  {
    Writer w;
    w.begin_object();
    w.key("a");
    EXPECT_THROW(w.key("b"), InternalError);  // two keys in a row
  }
}

TEST(Json, TopLevelScalarAllowed) {
  EXPECT_EQ(Writer().value("lone").str(), R"("lone")");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse(R"("hi")").as_string(), "hi");
}

TEST(JsonParse, NestedDocument) {
  const Value v = parse(R"({"a": [1, 2.5, "x"], "b": {"c": true}})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.5);
  EXPECT_EQ(a[2].as_string(), "x");
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("q\" b\\ n\n t\t uA")").as_string(),
            "q\" b\\ n\n t\t uA");
  // Non-ASCII BMP escapes come back UTF-8 encoded.
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(JsonParse, WriterOutputRoundTrips) {
  Writer w;
  w.begin_object();
  w.key("n").value(0.5);
  w.key("s").value("quote\" slash\\");
  w.key("list").begin_array().value(std::int64_t{1}).null().end_array();
  w.end_object();
  const Value v = parse(w.str());
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), 0.5);
  EXPECT_EQ(v.at("s").as_string(), "quote\" slash\\");
  EXPECT_TRUE(v.at("list").as_array()[1].is_null());
}

TEST(JsonParse, MalformedThrowsIoError) {
  EXPECT_THROW(parse(""), IoError);
  EXPECT_THROW(parse("{"), IoError);
  EXPECT_THROW(parse("[1,]"), IoError);
  EXPECT_THROW(parse(R"({"a" 1})"), IoError);
  EXPECT_THROW(parse("tru"), IoError);
  EXPECT_THROW(parse("1 2"), IoError);  // trailing content
  EXPECT_THROW(parse(R"("\ud800")"), IoError);  // lone surrogate
}

TEST(JsonParse, TypedAccessorMismatchThrows) {
  EXPECT_THROW(parse("1").as_string(), IoError);
  EXPECT_THROW(parse(R"("x")").as_number(), IoError);
  EXPECT_THROW(parse("[]").at("k"), IoError);
}

TEST(JsonParse, DuplicateKeysKeepLast) {
  EXPECT_DOUBLE_EQ(parse(R"({"k": 1, "k": 2})").at("k").as_number(), 2.0);
}

TEST(JsonReadCount, AcceptsWholeNumbersUpTo2Pow53) {
  const Value v = parse(
      R"({"zero": 0, "n": 42, "exp": 4e3, "max": 9007199254740992})");
  EXPECT_EQ(read_count(v, "zero"), 0u);
  EXPECT_EQ(read_count(v, "n"), 42u);
  EXPECT_EQ(read_count(v, "exp"), 4000u);
  EXPECT_EQ(read_count(v, "max"), std::size_t{1} << 53);
}

TEST(JsonReadCount, RefusesWhatIsNotACount) {
  const Value v = parse(
      R"({"neg": -1, "frac": 2.5, "huge": 1e300, "past": 18014398509481984,)"
      R"( "text": "3", "null": null})");
  for (const char* key : {"neg", "frac", "huge", "past", "text", "null",
                          "absent"}) {
    EXPECT_THROW(read_count(v, key), IoError) << key;
  }
}

TEST(Json, RawSplicesAWriterValue) {
  Writer inner;
  inner.begin_array().value(1.5).value(-0.0).end_array();
  const std::string spliced = inner.str();
  Writer w;
  w.begin_object();
  w.key("a").raw(spliced);
  w.key("b").begin_array().raw(spliced).raw(R"("x")").end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":[1.5,-0],"b":[[1.5,-0],"x"]})");
  Writer top;
  top.raw("7");
  EXPECT_EQ(top.str(), "7");
  Writer key_first;
  key_first.begin_object();
  EXPECT_THROW(key_first.raw("1"), InternalError);
}

TEST(Json, LiteralAndRuntimeKeysWriteTheSameText) {
  // A literal key is appended as written; a key built at run time, even
  // with the same text, goes through the escape test, and one that needs
  // escapes gets them.
  const std::string runtime = "name";
  const std::string quoted = "say \"hi\"";
  Writer w;
  w.begin_object();
  w.key("name").value(std::int64_t{1});
  w.key(runtime).value(std::int64_t{2});
  w.key(quoted).value(std::int64_t{3});
  w.key(std::string_view("tail")).value(std::int64_t{4});
  w.end_object();
  EXPECT_EQ(w.str(), R"({"name":1,"name":2,"say \"hi\"":3,"tail":4})");
  // Moved out, the document is the text a copy of it holds.
  const std::string copy = w.str();
  EXPECT_EQ(std::move(w).str(), copy);
}

// Adversarial corpus: the serve daemon parses attacker-controllable stdin,
// so parse() must reject hostile shapes with IoError, never crash or
// exhaust the stack.

TEST(JsonParseAdversarial, DeepNestingCapped) {
  // One level under the cap parses; past the cap throws instead of
  // recursing toward stack exhaustion.
  std::string ok;
  for (std::size_t i = 0; i < kMaxParseDepth; ++i) ok += '[';
  std::string ok_closed = ok;
  for (std::size_t i = 0; i < kMaxParseDepth; ++i) ok_closed += ']';
  EXPECT_NO_THROW(parse(ok_closed));

  std::string deep;
  for (std::size_t i = 0; i < kMaxParseDepth + 1; ++i) deep += '[';
  for (std::size_t i = 0; i < kMaxParseDepth + 1; ++i) deep += ']';
  EXPECT_THROW(parse(deep), IoError);

  // A 100k-bracket bomb must fail fast, not overflow.
  EXPECT_THROW(parse(std::string(100000, '[')), IoError);

  // Mixed object/array nesting counts against the same cap.
  std::string mixed;
  for (std::size_t i = 0; i < kMaxParseDepth + 1; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(parse(mixed), IoError);
}

TEST(JsonParseAdversarial, UnterminatedStrings) {
  EXPECT_THROW(parse("\""), IoError);
  EXPECT_THROW(parse("\"abc"), IoError);
  EXPECT_THROW(parse("\"abc\\"), IoError);       // dangling escape
  EXPECT_THROW(parse("\"abc\\u12"), IoError);    // truncated \u escape
  EXPECT_THROW(parse(R"({"key)"), IoError);
  EXPECT_THROW(parse(R"(["a", "b)"), IoError);
}

TEST(JsonParseAdversarial, HugeNumbersRejected) {
  // Overflowing doubles must throw, not saturate silently into state.
  EXPECT_THROW(parse("1e999999"), IoError);
  EXPECT_THROW(parse("-1e999999"), IoError);
  EXPECT_THROW(parse("1" + std::string(400, '0')), IoError);
  // Near-max magnitudes still parse.
  EXPECT_NO_THROW(parse("1.7e308"));
  EXPECT_NO_THROW(parse("-1.7e308"));
}

TEST(JsonParseAdversarial, EmbeddedNulBytes) {
  // NUL inside a string is an unescaped control character.
  EXPECT_THROW(parse(std::string_view("\"a\0b\"", 5)), IoError);
  // NUL as structure is not whitespace.
  EXPECT_THROW(parse(std::string_view("\0", 1)), IoError);
  EXPECT_THROW(parse(std::string_view("[1,\0]", 5)), IoError);
  // The escaped form is legal and round-trips.
  EXPECT_EQ(parse("\"\\u0000\"").as_string(), std::string(1, '\0'));
}

TEST(JsonParseAdversarial, GarbageBytes) {
  EXPECT_THROW(parse("\x01\x02\x03"), IoError);
  EXPECT_THROW(parse("{\"a\":\x7f}"), IoError);
  EXPECT_THROW(parse(std::string(64, '\xff')), IoError);
}

}  // namespace
}  // namespace ropus::json
