//===- tests/JsonTests.cpp - JSON reader/writer tests ---------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <utility>
#include <vector>

using namespace opprox;

namespace {

/// Bitwise equality, so -0.0 vs 0.0 and every NaN-free pattern is checked
/// exactly rather than through operator==.
bool sameBits(double A, double B) {
  uint64_t Ab, Bb;
  std::memcpy(&Ab, &A, sizeof(double));
  std::memcpy(&Bb, &B, sizeof(double));
  return Ab == Bb;
}

} // namespace

TEST(JsonTest, ParsesPrimitives) {
  EXPECT_TRUE(Json::parse("null")->isNull());
  EXPECT_TRUE(Json::parse("true")->asBool());
  EXPECT_FALSE(Json::parse("false")->asBool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2")->asNumber(), -1250.0);
  EXPECT_EQ(Json::parse("\"hi\"")->asString(), "hi");
}

TEST(JsonTest, ParsesStringEscapes) {
  Expected<Json> J = Json::parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(J);
  EXPECT_EQ(J->asString(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, ParsesNestedStructures) {
  Expected<Json> J =
      Json::parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(J);
  ASSERT_TRUE(J->isObject());
  const Json *A = J->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->size(), 3u);
  EXPECT_DOUBLE_EQ(A->at(1).asNumber(), 2.0);
  EXPECT_TRUE(A->at(2).find("b")->asBool());
  EXPECT_TRUE(J->find("c")->find("d")->isNull());
  EXPECT_EQ(J->find("missing"), nullptr);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  Json Obj = Json::object();
  Obj.set("zebra", 1);
  Obj.set("alpha", 2);
  Obj.set("mid", 3);
  EXPECT_EQ(Obj.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  // Replacing a member keeps its original position.
  Obj.set("alpha", 9);
  EXPECT_EQ(Obj.dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(JsonTest, DumpIsDeterministic) {
  Json Obj = Json::object();
  Obj.set("values", Json::numberArray<double>({1.5, -2.25, 1e-3}));
  Obj.set("name", "det");
  EXPECT_EQ(Obj.dump(2), Obj.dump(2));
  // Parse of the dump dumps identically (full fixed point).
  Expected<Json> Back = Json::parse(Obj.dump(2));
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->dump(2), Obj.dump(2));
}

TEST(JsonTest, DoublesRoundTripBitExactly) {
  const double Cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          M_PI,
                          1e-308, // Near the subnormal boundary.
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          -123456789.123456789,
                          6.62607015e-34};
  for (double D : Cases) {
    Json Arr = Json::array();
    Arr.push(D);
    Expected<Json> Back = Json::parse(Arr.dump());
    ASSERT_TRUE(Back) << Back.error().message();
    EXPECT_TRUE(sameBits(Back->at(0).asNumber(), D))
        << "double " << D << " did not round-trip bit-exactly";
  }
}

TEST(JsonTest, NumbersFollowTheRfcGrammar) {
  // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
  for (const char *Text : {"+5", ".5", "5.", "01", "-01", "00", "-", "--1",
                           "1.e5", "1e", "1e+", "1E-", ".", "-.5", "1.5.2",
                           "1e5e5", "+0", "1e-+5"}) {
    Expected<Json> J = Json::parse(std::string("[") + Text + "]");
    ASSERT_FALSE(J) << Text << " parsed as " << J->dump();
    EXPECT_NE(J.error().message().find("invalid number"), std::string::npos)
        << Text << ": " << J.error().message();
  }
  const std::pair<const char *, double> Valid[] = {
      {"0", 0.0},          {"-0", -0.0},      {"7", 7.0},
      {"-12", -12.0},      {"0.5", 0.5},      {"-0.25", -0.25},
      {"10.0", 10.0},      {"1e5", 1e5},      {"1E+5", 1e5},
      {"2.5e-3", 2.5e-3},  {"0e7", 0.0},
      {"123456789012345678", 1.2345678901234568e17}};
  for (const auto &[Text, Value] : Valid) {
    Expected<Json> J = Json::parse(Text);
    ASSERT_TRUE(J) << Text << ": " << J.error().message();
    EXPECT_TRUE(sameBits(J->asNumber(), Value)) << Text;
  }
}

TEST(JsonTest, NumbersBeyondDoubleRange) {
  // Too large is an error; too small reads as a signed zero.
  EXPECT_FALSE(Json::parse("1e999"));
  EXPECT_FALSE(Json::parse("-1e999"));
  EXPECT_FALSE(Json::parse("0.00001e99999999999999999999"));
  for (const auto &[Text, Value] :
       std::vector<std::pair<const char *, double>>{
           {"1e-400", 0.0},
           {"-1e-400", -0.0},
           {"0.0000001e-320", 0.0},
           {"123e-99999999999999999999", 0.0},
           {"5e-324", std::numeric_limits<double>::denorm_min()}}) {
    Expected<Json> J = Json::parse(Text);
    ASSERT_TRUE(J) << Text << ": " << J.error().message();
    EXPECT_TRUE(sameBits(J->asNumber(), Value)) << Text;
  }
}

TEST(JsonTest, ParseErrorsCarryLineAndColumn) {
  Expected<Json> J = Json::parse("{\n  \"a\": 1,\n  oops\n}");
  ASSERT_FALSE(J);
  EXPECT_NE(J.error().message().find("line 3"), std::string::npos)
      << J.error().message();
}

TEST(JsonTest, RejectsTruncatedDocuments) {
  for (const char *Text : {"{\"a\": ", "[1, 2", "\"unterminated", "{", "-"}) {
    Expected<Json> J = Json::parse(Text);
    EXPECT_FALSE(J) << "accepted truncated input: " << Text;
  }
}

TEST(JsonTest, RejectsTrailingGarbage) {
  Expected<Json> J = Json::parse("{\"a\": 1} extra");
  ASSERT_FALSE(J);
  EXPECT_NE(J.error().message().find("trailing"), std::string::npos)
      << J.error().message();
}

TEST(JsonTest, TypedGettersReportMissingAndMistypedFields) {
  Expected<Json> Obj = Json::parse(R"({"n": 1.5, "s": "x", "v": [1, "two"]})");
  ASSERT_TRUE(Obj);

  Expected<double> Missing = getNumber(*Obj, "absent");
  ASSERT_FALSE(Missing);
  EXPECT_NE(Missing.error().message().find("absent"), std::string::npos);

  Expected<std::string> Mistyped = getString(*Obj, "n");
  ASSERT_FALSE(Mistyped);

  // A non-integer where an integer is required.
  EXPECT_FALSE(getSize(*Obj, "n"));
  // A mixed-type array where numbers are required.
  EXPECT_FALSE(getNumberVector(*Obj, "v"));
}

TEST(JsonTest, SizeGetterRejectsNegatives) {
  Expected<Json> Obj = Json::parse(R"({"count": -3})");
  ASSERT_TRUE(Obj);
  EXPECT_FALSE(getSize(*Obj, "count"));
  Expected<long> AsInt = getInt(*Obj, "count");
  ASSERT_TRUE(AsInt);
  EXPECT_EQ(*AsInt, -3);
}

TEST(JsonTest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/opprox_json_test.json";
  Json Obj = Json::object();
  Obj.set("k", Json::numberArray<int>({1, 2, 3}));
  ASSERT_FALSE(writeFile(Path, Obj.dump(2) + "\n"));
  Expected<std::string> Text = readFile(Path);
  ASSERT_TRUE(Text);
  Expected<Json> Back = Json::parse(*Text);
  ASSERT_TRUE(Back);
  Expected<std::vector<int>> K = getIntVector(*Back, "k");
  ASSERT_TRUE(K);
  EXPECT_EQ(*K, (std::vector<int>{1, 2, 3}));
  std::remove(Path.c_str());

  Expected<std::string> Gone = readFile(Path + ".does-not-exist");
  ASSERT_FALSE(Gone);
  EXPECT_NE(Gone.error().message().find("cannot open"), std::string::npos)
      << Gone.error().message();
}
