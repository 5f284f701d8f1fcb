#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/atomic_file.h"
#include "common/result.h"
#include "common/status.h"
#include "common/str_util.h"
#include "observability/metrics.h"

namespace xqdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::TypeError("XPTY0004: bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  EXPECT_EQ(s.ToString(), "TypeError: XPTY0004: bad");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  XQDB_ASSIGN_OR_RETURN(int h, Half(x));
  XQDB_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  a b \n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t\r\n"), "");
}

TEST(StrUtilTest, IsAllWhitespace) {
  EXPECT_TRUE(IsAllWhitespace(" \t\n"));
  EXPECT_TRUE(IsAllWhitespace(""));
  EXPECT_FALSE(IsAllWhitespace(" x "));
}

TEST(StrUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StrUtilTest, ParseXsDoubleBasics) {
  EXPECT_DOUBLE_EQ(*ParseXsDouble("99.50"), 99.50);
  EXPECT_DOUBLE_EQ(*ParseXsDouble(" 100 "), 100.0);
  EXPECT_DOUBLE_EQ(*ParseXsDouble("10E3"), 10000.0);
  EXPECT_DOUBLE_EQ(*ParseXsDouble("-2.5e-1"), -0.25);
}

TEST(StrUtilTest, ParseXsDoubleSpecials) {
  EXPECT_TRUE(std::isinf(*ParseXsDouble("INF")));
  EXPECT_TRUE(std::isinf(*ParseXsDouble("-INF")));
  EXPECT_TRUE(std::isnan(*ParseXsDouble("NaN")));
}

TEST(StrUtilTest, ParseXsDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseXsDouble("20 USD").has_value());
  EXPECT_FALSE(ParseXsDouble("99.50USD").has_value());
  EXPECT_FALSE(ParseXsDouble("").has_value());
  EXPECT_FALSE(ParseXsDouble("0x1A").has_value());
  EXPECT_FALSE(ParseXsDouble("inf").has_value());  // xs:double is INF
}

TEST(StrUtilTest, ParseXsDoubleSpecialsAreCaseAndSignExact) {
  // XSD 1.0 names the specials exactly INF, -INF, NaN. "+INF" only
  // entered the lexical space in XSD 1.1, which we do not implement.
  EXPECT_FALSE(ParseXsDouble("+INF").has_value());
  EXPECT_FALSE(ParseXsDouble("+inf").has_value());
  EXPECT_FALSE(ParseXsDouble("-inf").has_value());
  EXPECT_FALSE(ParseXsDouble("nan").has_value());
  EXPECT_FALSE(ParseXsDouble("NAN").has_value());
  EXPECT_FALSE(ParseXsDouble("Infinity").has_value());
}

TEST(StrUtilTest, ParseXsInteger) {
  EXPECT_EQ(*ParseXsInteger("123"), 123);
  EXPECT_EQ(*ParseXsInteger("-7"), -7);
  EXPECT_FALSE(ParseXsInteger("1.5").has_value());
  EXPECT_FALSE(ParseXsInteger("99999999999999999999").has_value());
}

TEST(StrUtilTest, FormatXsDouble) {
  EXPECT_EQ(FormatXsDouble(100.0), "100");
  EXPECT_EQ(FormatXsDouble(99.5), "99.5");
  EXPECT_EQ(FormatXsDouble(-0.0), "0");
  EXPECT_EQ(FormatXsDouble(std::numeric_limits<double>::infinity()), "INF");
}

TEST(StrUtilTest, Split) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

// --- Env-knob parsing: every XQDB_* integer goes through this parser, so
// its rejection behaviour IS the hardening contract. -----------------------

TEST(ParseEnvIntTest, CleanValuesParse) {
  ParsedEnvInt p = ParseEnvIntText("8", 1, 64, 4);
  EXPECT_TRUE(p.ok);
  EXPECT_FALSE(p.clamped);
  EXPECT_EQ(p.value, 8);

  // Surrounding whitespace and an explicit sign are fine.
  EXPECT_EQ(ParseEnvIntText("  42 ", 0, 100, -1).value, 42);
  EXPECT_EQ(ParseEnvIntText("+7", 0, 100, -1).value, 7);
  EXPECT_EQ(ParseEnvIntText("-3", -10, 10, 0).value, -3);
}

TEST(ParseEnvIntTest, GarbageFallsBack) {
  for (const char* bad :
       {"", "   ", "abc", "12 threads", "1.5", "0x10", "++1", "9e3",
        "99999999999999999999999999"}) {
    ParsedEnvInt p = ParseEnvIntText(bad, 1, 64, 4);
    EXPECT_FALSE(p.ok) << "'" << bad << "' should not parse";
    EXPECT_EQ(p.value, 4) << bad;
  }
}

TEST(ParseEnvIntTest, OutOfRangeClampsToNearerBound) {
  ParsedEnvInt lo = ParseEnvIntText("0", 1, 64, 4);
  EXPECT_TRUE(lo.ok);
  EXPECT_TRUE(lo.clamped);
  EXPECT_EQ(lo.value, 1);

  ParsedEnvInt hi = ParseEnvIntText("1000", 1, 64, 4);
  EXPECT_TRUE(hi.ok);
  EXPECT_TRUE(hi.clamped);
  EXPECT_EQ(hi.value, 64);
}

// --- On/off switches: XQDB_STRUCTURAL, XQDB_BATCH and XQDB_STATIC all read
// through ParseEnvSwitch, so this table pins the grammar of every one of
// them. Anything outside it must be rejected ("offf" silently meaning "on"
// was a real bug). ----------------------------------------------------------

TEST(ParseEnvSwitchTest, StrictGrammar) {
  const std::pair<const char*, std::optional<bool>> cases[] = {
      {"1", true},   {"on", true},   {"On", true},   {" ON ", true},
      {"0", false},  {"off", false}, {"OFF", false}, {" off ", false},
      // Everything else is rejected; the caller warns and keeps its default.
      {"", std::nullopt},     {" ", std::nullopt},     {"offf", std::nullopt},
      {"true", std::nullopt}, {"false", std::nullopt}, {"yes", std::nullopt},
      {"no", std::nullopt},   {"2", std::nullopt},     {"-1", std::nullopt},
      {"0 1", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseSwitchText(text), want) << "'" << text << "'";
  }
}

TEST(ParseEnvSwitchTest, BadValueKeepsFallbackAndCountsOnce) {
  constexpr const char* kName = "XQDB_TEST_SWITCH";
  Counter* errors = MetricsRegistry::Global().GetCounter("env.parse_errors");
  const long long before = errors->value();

  unsetenv(kName);
  EXPECT_TRUE(ParseEnvSwitch(kName, true));
  EXPECT_FALSE(ParseEnvSwitch(kName, false));
  setenv(kName, " Off ", 1);
  EXPECT_FALSE(ParseEnvSwitch(kName, true));
  EXPECT_EQ(errors->value(), before);

  setenv(kName, "offf", 1);
  EXPECT_TRUE(ParseEnvSwitch(kName, true));
  EXPECT_EQ(errors->value(), before + 1);
  EXPECT_FALSE(ParseEnvSwitch(kName, false));
  EXPECT_EQ(errors->value(), before + 1) << "one warning per knob name";
  unsetenv(kName);
}

// --- The three engine knobs, read by name the way the engine reads them.
// Each pins the grammar for its own variable, so a knob that stops going
// through ParseEnvSwitch (or grows a private parser) shows up here. -------

// Sets `name` to `text`, reads it with ParseEnvSwitch under both fallbacks
// and restores the environment. Returns the parsed value, or nullopt when
// the text was rejected and the fallback showed through.
std::optional<bool> ReadKnob(const char* name, const char* text) {
  const char* raw = GetEnvRaw(name);
  const std::optional<std::string> saved =
      raw ? std::optional<std::string>(raw) : std::nullopt;
  setenv(name, text, 1);
  const bool with_on = ParseEnvSwitch(name, true);
  const bool with_off = ParseEnvSwitch(name, false);
  if (saved) {
    setenv(name, saved->c_str(), 1);
  } else {
    unsetenv(name);
  }
  if (with_on != with_off) return std::nullopt;
  return with_on;
}

TEST(StructuralKnobTest, AcceptedValues) {
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "1"), true);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "on"), true);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "On"), true);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "0"), false);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "off"), false);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", "OFF"), false);
  EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", " on "), true);  // whitespace-tolerant
}

TEST(StructuralKnobTest, EverythingElseIsRejected) {
  for (const char* bad :
       {"", " ", "offf", "true", "false", "yes", "no", "2", "-1", "0 1"}) {
    EXPECT_EQ(ReadKnob("XQDB_STRUCTURAL", bad), std::nullopt)
        << "'" << bad << "' must not be a recognized knob value";
  }
}

TEST(BatchKnobTest, SameGrammarAsStructuralKnob) {
  EXPECT_EQ(ReadKnob("XQDB_BATCH", "1"), true);
  EXPECT_EQ(ReadKnob("XQDB_BATCH", "on"), true);
  EXPECT_EQ(ReadKnob("XQDB_BATCH", "ON"), true);
  EXPECT_EQ(ReadKnob("XQDB_BATCH", "0"), false);
  EXPECT_EQ(ReadKnob("XQDB_BATCH", "off"), false);
  EXPECT_EQ(ReadKnob("XQDB_BATCH", " off "), false);  // whitespace-tolerant
  for (const char* bad : {"", "offf", "true", "yes", "2", "batch"}) {
    EXPECT_EQ(ReadKnob("XQDB_BATCH", bad), std::nullopt)
        << "'" << bad << "' must not be a recognized knob value";
  }
}

TEST(StaticKnobTest, StrictGrammar) {
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "1"), true);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "on"), true);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", " ON "), true);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "0"), false);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "off"), false);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "yes"), std::nullopt);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", ""), std::nullopt);
  EXPECT_EQ(ReadKnob("XQDB_STATIC", "2"), std::nullopt);
}

// --- WriteFileAtomic: the benches' report writer ---------------------------

namespace {
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}
}  // namespace

TEST(AtomicFileTest, CreatesNewFileWithExactContents) {
  const std::string path =
      ::testing::TempDir() + "/atomic_file_test_create.json";
  std::remove(path.c_str());
  Status st = WriteFileAtomic(path, "{\"a\": 1}\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Slurp(path), "{\"a\": 1}\n");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, ReplacesExistingFileCompletely) {
  // The new contents are SHORTER than the old: an in-place truncating
  // rewrite that died midway would leave a prefix mix; the rename swap
  // must leave exactly the new bytes.
  const std::string path =
      ::testing::TempDir() + "/atomic_file_test_replace.json";
  ASSERT_TRUE(
      WriteFileAtomic(path, std::string(4096, 'x') + "OLD-TAIL").ok());
  Status st = WriteFileAtomic(path, "new");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Slurp(path), "new");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailureLeavesDestinationUntouched) {
  // Target directory does not exist: mkstemp fails, the destination (also
  // nonexistent) must not be created and no temp file may be left behind.
  const std::string path =
      ::testing::TempDir() + "/no_such_dir_xqdb/report.json";
  Status st = WriteFileAtomic(path, "data");
  EXPECT_FALSE(st.ok());
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());
}

TEST(AtomicFileTest, EmptyPathIsInvalidArgument) {
  Status st = WriteFileAtomic("", "data");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xqdb
