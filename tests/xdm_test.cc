#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "xdm/cast.h"
#include "xdm/compare.h"
#include "xdm/datetime.h"
#include "xdm/item.h"
#include "xdm/join_key.h"
#include "xml/parser.h"

namespace xqdb {
namespace {

TEST(DateTimeTest, ParseDate) {
  EXPECT_EQ(*ParseXsDate("1970-01-01"), 0);
  EXPECT_EQ(*ParseXsDate("1970-01-02"), 1);
  EXPECT_EQ(*ParseXsDate("1969-12-31"), -1);
  EXPECT_EQ(*ParseXsDate("2001-01-01"), 11323);
  EXPECT_FALSE(ParseXsDate("2001-13-01").has_value());
  EXPECT_FALSE(ParseXsDate("2001-02-29").has_value());  // not a leap year
  EXPECT_TRUE(ParseXsDate("2000-02-29").has_value());   // leap year
  EXPECT_FALSE(ParseXsDate("January 1, 2001").has_value());
}

TEST(DateTimeTest, DateRoundTrip) {
  for (long long days : {0LL, 1LL, -400LL, 11323LL, 20000LL}) {
    EXPECT_EQ(*ParseXsDate(FormatXsDate(days)), days);
  }
}

TEST(DateTimeTest, ParseDateTime) {
  EXPECT_EQ(*ParseXsDateTime("1970-01-01T00:00:00"), 0);
  EXPECT_EQ(*ParseXsDateTime("1970-01-01T00:00:01Z"), 1);
  EXPECT_EQ(*ParseXsDateTime("1970-01-01T01:00:00+01:00"), 0);  // tz applied
  EXPECT_EQ(*ParseXsDateTime("1969-12-31T23:00:00-01:00"), 0);
  EXPECT_EQ(*ParseXsDateTime("1970-01-01T00:00:00.123"), 0);  // frac dropped
  EXPECT_FALSE(ParseXsDateTime("1970-01-01").has_value());
  EXPECT_FALSE(ParseXsDateTime("1970-01-01T25:00:00").has_value());
}

TEST(DateTimeTest, DateTimeRoundTrip) {
  long long secs = *ParseXsDateTime("2006-09-12T15:30:45Z");
  EXPECT_EQ(FormatXsDateTime(secs), "2006-09-12T15:30:45Z");
}

TEST(DateTimeTest, EndOfDayForm) {
  // XSD's 24:00:00 end-of-day form denotes midnight of the NEXT day.
  EXPECT_EQ(*ParseXsDateTime("1970-01-01T24:00:00"), 86400);
  EXPECT_EQ(*ParseXsDateTime("2006-03-15T24:00:00Z"),
            *ParseXsDateTime("2006-03-16T00:00:00Z"));
  EXPECT_EQ(*ParseXsDateTime("2006-12-31T24:00:00Z"),
            *ParseXsDateTime("2007-01-01T00:00:00Z"));
  // An all-zero fraction is still zero; anything else with hour 24 is not
  // a legal instant.
  EXPECT_TRUE(ParseXsDateTime("1970-01-01T24:00:00.000").has_value());
  EXPECT_FALSE(ParseXsDateTime("1970-01-01T24:00:00.5").has_value());
  EXPECT_FALSE(ParseXsDateTime("1970-01-01T24:00:01").has_value());
  EXPECT_FALSE(ParseXsDateTime("1970-01-01T24:01:00").has_value());
  EXPECT_FALSE(ParseXsDateTime("1970-01-01T25:00:00").has_value());
  // Normalized values format in canonical (00:00:00-of-next-day) form.
  EXPECT_EQ(FormatXsDateTime(*ParseXsDateTime("2006-03-15T24:00:00Z")),
            "2006-03-16T00:00:00Z");
}

TEST(DateTimeTest, NegativeYearCanonicalForm) {
  // XSD canonical form pads the year to four digits AFTER the sign:
  // -0044-03-15, never -044-03-15.
  auto days = ParseXsDate("-0044-03-15");
  ASSERT_TRUE(days.has_value());
  EXPECT_EQ(FormatXsDate(*days), "-0044-03-15");
  auto secs = ParseXsDateTime("-0044-03-15T12:00:00Z");
  ASSERT_TRUE(secs.has_value());
  EXPECT_EQ(FormatXsDateTime(*secs), "-0044-03-15T12:00:00Z");
  // Round-trips survive re-parsing the canonical output.
  EXPECT_EQ(*ParseXsDate(FormatXsDate(*days)), *days);
  EXPECT_EQ(*ParseXsDateTime(FormatXsDateTime(*secs)), *secs);
  // Positive years are unchanged.
  EXPECT_EQ(FormatXsDate(*ParseXsDate("0044-03-15")), "0044-03-15");
}

TEST(AtomicTest, LexicalForms) {
  EXPECT_EQ(AtomicValue::Double(100).Lexical(), "100");
  EXPECT_EQ(AtomicValue::Double(99.5).Lexical(), "99.5");
  EXPECT_EQ(AtomicValue::Integer(-3).Lexical(), "-3");
  EXPECT_EQ(AtomicValue::Boolean(true).Lexical(), "true");
  EXPECT_EQ(AtomicValue::String("x").Lexical(), "x");
  EXPECT_EQ(AtomicValue::Date(0).Lexical(), "1970-01-01");
}

TEST(CastTest, StringToNumeric) {
  auto d = CastTo(AtomicValue::String("99.50"), AtomicType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->double_value(), 99.5);
  EXPECT_FALSE(
      CastTo(AtomicValue::String("20 USD"), AtomicType::kDouble).ok());
  EXPECT_EQ(
      CastTo(AtomicValue::String("20 USD"), AtomicType::kDouble)
          .status()
          .code(),
      StatusCode::kCastError);
}

TEST(CastTest, DoubleSpecialsToIntegerRaiseFoca0002) {
  // "INF" *is* in xs:double's lexical space — it just has no value in
  // xs:integer's value space, so the failure is FOCA0002 (value out of
  // range), not FORG0001 (lexically invalid). F&O 17.1.
  for (const char* s : {"INF", "-INF", "NaN"}) {
    auto r = CastTo(AtomicValue::String(s), AtomicType::kInteger);
    ASSERT_FALSE(r.ok()) << s;
    EXPECT_EQ(r.status().code(), StatusCode::kCastError);
    EXPECT_NE(r.status().message().find("FOCA0002"), std::string::npos)
        << r.status().ToString();
  }
  auto r = CastTo(AtomicValue::String("abc"), AtomicType::kInteger);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FORG0001"), std::string::npos)
      << r.status().ToString();
}

TEST(CastTest, UntypedBehavesLikeString) {
  auto d = CastTo(AtomicValue::UntypedAtomic("1e2"), AtomicType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->double_value(), 100.0);
}

TEST(CastTest, NumericToString) {
  auto s = CastTo(AtomicValue::Double(10000), AtomicType::kString);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->string_value(), "10000");
}

TEST(CastTest, LargeIntegerToDoubleLosesPrecision) {
  // The §3.6 condition-2 pitfall: two distinct long values collide as
  // doubles.
  long long a = 9007199254740993LL;  // 2^53 + 1
  long long b = 9007199254740992LL;  // 2^53
  auto da = CastTo(AtomicValue::Integer(a), AtomicType::kDouble);
  auto db = CastTo(AtomicValue::Integer(b), AtomicType::kDouble);
  ASSERT_TRUE(da.ok() && db.ok());
  EXPECT_EQ(da->double_value(), db->double_value());
}

TEST(CastTest, DisallowedCastIsTypeError) {
  auto r = CastTo(AtomicValue::Boolean(true), AtomicType::kDate);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(CastTest, DateDateTimePromotion) {
  auto dt = CastTo(AtomicValue::Date(1), AtomicType::kDateTime);
  ASSERT_TRUE(dt.ok());
  EXPECT_EQ(dt->temporal_value(), 86400);
  auto d = CastTo(AtomicValue::DateTime(86401), AtomicType::kDate);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->temporal_value(), 1);
}

TEST(CompareTest, NumericMixedPromotesToDouble) {
  auto r = CompareAtomic(AtomicValue::Integer(2), AtomicValue::Double(2.5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), CmpResult::kLess);
}

TEST(CompareTest, IntegerPairsCompareExactly) {
  long long big = 9007199254740993LL;
  auto r = CompareAtomic(AtomicValue::Integer(big),
                         AtomicValue::Integer(big - 1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), CmpResult::kGreater);
}

TEST(CompareTest, NanIsUnordered) {
  auto r = CompareAtomic(AtomicValue::Double(std::nan("")),
                         AtomicValue::Double(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), CmpResult::kUnordered);
}

TEST(CompareTest, StringVsDoubleIsTypeError) {
  auto r = CompareAtomic(AtomicValue::String("10"), AtomicValue::Double(10));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(GeneralCompareTest, UntypedVsNumericCastsToDouble) {
  // "100" as untyped data compared with the number 100: true.
  auto r = GeneralComparePair(CompareOp::kEq, AtomicValue::UntypedAtomic("100"),
                              AtomicValue::Integer(100));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  // 10E3 = 1000 under numeric rules — the §3.1 varchar-index counterexample.
  auto r2 = GeneralComparePair(CompareOp::kEq,
                               AtomicValue::UntypedAtomic("10E3"),
                               AtomicValue::Integer(10000));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value());
}

TEST(GeneralCompareTest, UntypedVsStringComparesAsString) {
  // Query 3: @price > "100" is a *string* comparison; "20 USD" > "100".
  auto r = GeneralComparePair(CompareOp::kGt,
                              AtomicValue::UntypedAtomic("20 USD"),
                              AtomicValue::String("100"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
}

TEST(GeneralCompareTest, UntypedVsUntypedComparesAsString) {
  auto r = GeneralComparePair(CompareOp::kLt, AtomicValue::UntypedAtomic("9"),
                              AtomicValue::UntypedAtomic("10"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());  // "9" < "10" is false as strings.
}

TEST(GeneralCompareTest, UntypedVsNumericCastFailureIsError) {
  auto r = GeneralComparePair(CompareOp::kGt,
                              AtomicValue::UntypedAtomic("20 USD"),
                              AtomicValue::Integer(100));
  EXPECT_FALSE(r.ok());
}

TEST(GeneralCompareTest, ExistentialSemantics) {
  // A sequence (50, 250) is both > 100 and < 200 existentially even though
  // no single item is in the range — §3.10's between trap.
  Sequence prices{Item(AtomicValue::Double(50)),
                  Item(AtomicValue::Double(250))};
  Sequence hundred{Item(AtomicValue::Integer(100))};
  Sequence two_hundred{Item(AtomicValue::Integer(200))};
  EXPECT_TRUE(GeneralCompare(CompareOp::kGt, prices, hundred).value());
  EXPECT_TRUE(GeneralCompare(CompareOp::kLt, prices, two_hundred).value());
}

TEST(GeneralCompareTest, EmptySequenceNeverMatches) {
  Sequence empty;
  Sequence one{Item(AtomicValue::Integer(1))};
  EXPECT_FALSE(GeneralCompare(CompareOp::kEq, empty, one).value());
  EXPECT_FALSE(GeneralCompare(CompareOp::kNe, empty, one).value());
}

TEST(ValueCompareTest, RequiresSingletons) {
  Sequence two{Item(AtomicValue::Integer(1)), Item(AtomicValue::Integer(2))};
  Sequence one{Item(AtomicValue::Integer(1))};
  auto r = ValueCompare(CompareOp::kEq, two, one);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ValueCompareTest, EmptyOperandYieldsEmpty) {
  Sequence empty;
  Sequence one{Item(AtomicValue::Integer(1))};
  auto r = ValueCompare(CompareOp::kEq, empty, one);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), -1);
}

TEST(ValueCompareTest, UntypedTreatedAsString) {
  // Unlike general comparisons, value comparisons do NOT promote untyped to
  // the other operand's numeric type.
  Sequence untyped{Item(AtomicValue::UntypedAtomic("100"))};
  Sequence str{Item(AtomicValue::String("100"))};
  EXPECT_EQ(ValueCompare(CompareOp::kEq, untyped, str).value(), 1);
  Sequence num{Item(AtomicValue::Integer(100))};
  EXPECT_FALSE(ValueCompare(CompareOp::kEq, untyped, num).ok());
}

TEST(EbvTest, Basics) {
  EXPECT_FALSE(EffectiveBooleanValue({}).value());
  EXPECT_TRUE(
      EffectiveBooleanValue({Item(AtomicValue::String("x"))}).value());
  EXPECT_FALSE(
      EffectiveBooleanValue({Item(AtomicValue::String(""))}).value());
  EXPECT_FALSE(
      EffectiveBooleanValue({Item(AtomicValue::Double(0))}).value());
  EXPECT_TRUE(
      EffectiveBooleanValue({Item(AtomicValue::Boolean(true))}).value());
}

TEST(EbvTest, MultiAtomicIsError) {
  Sequence two{Item(AtomicValue::Integer(1)), Item(AtomicValue::Integer(2))};
  EXPECT_FALSE(EffectiveBooleanValue(two).ok());
}

TEST(AtomizeTest, UntypedNodeYieldsUntypedAtomic) {
  auto doc = ParseXml("<price>99.50</price>");
  ASSERT_TRUE(doc.ok());
  const Document& d = **doc;
  NodeIdx elem = d.node(d.root()).first_child;
  auto v = TypedValueOf(NodeHandle{&d, elem});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), AtomicType::kUntypedAtomic);
  EXPECT_EQ(v->string_value(), "99.50");
}

TEST(AtomizeTest, AnnotatedNodeYieldsTypedValue) {
  auto doc = ParseXml("<id>17</id>");
  ASSERT_TRUE(doc.ok());
  Document& d = **doc;
  NodeIdx elem = d.node(d.root()).first_child;
  d.SetAnnotation(elem, TypeAnnotation::kInteger);
  auto v = TypedValueOf(NodeHandle{&d, elem});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), AtomicType::kInteger);
  EXPECT_EQ(v->integer_value(), 17);
}

// Hash-join keys (DESIGN.md §14): values `=` finds equal share a bucket;
// operands the comparison would cast or reject are refused.
TEST(JoinKeyTest, EqualValuesShareABucket) {
  auto keys_of = [](Sequence atoms, bool value_comparison, unsigned* kinds) {
    std::vector<JoinKey> keys;
    EXPECT_TRUE(AppendAtomicJoinKeys(atoms, value_comparison, &keys, kinds));
    return keys;
  };
  unsigned kinds = 0;
  JoinKeyTable table;
  for (const JoinKey& k :
       keys_of({Item(AtomicValue::Double(-0.0))}, false, &kinds)) {
    table.Add(k, 1);
  }
  for (const JoinKey& k :
       keys_of({Item(AtomicValue::Integer(7)), Item(AtomicValue::Double(7))},
               false, &kinds)) {
    table.Add(k, 2);  // one id per key, however often it repeats
  }
  std::vector<uint32_t> ids;
  table.Lookup(keys_of({Item(AtomicValue::Integer(0)),
                        Item(AtomicValue::Double(7.0))},
                       false, &kinds),
               &ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(kinds, unsigned{kNumericJoinKey});
  EXPECT_TRUE(JoinKeyKindsCompatible(kinds));

  // NaN equals nothing: a numeric kind, but no key.
  EXPECT_TRUE(keys_of({Item(AtomicValue::Double(std::nan("")))}, false,
                      &kinds)
                  .empty());
  // Untyped data joins strings by codepoints; mixed with numbers it would
  // cast, so the kinds are incompatible.
  EXPECT_EQ(keys_of({Item(AtomicValue::UntypedAtomic("p1"))}, false, &kinds)
                .at(0)
                .str,
            "p1");
  EXPECT_FALSE(JoinKeyKindsCompatible(kinds));

  std::vector<JoinKey> refused;
  EXPECT_FALSE(AppendAtomicJoinKeys(
      {Item(AtomicValue::String("a")), Item(AtomicValue::String("b"))},
      /*value_comparison=*/true, &refused, &kinds));  // eq: XPTY0004
  EXPECT_FALSE(AppendAtomicJoinKeys({Item(AtomicValue::Boolean(true))}, false,
                                    &refused, &kinds));
}

TEST(SortDocOrderTest, DedupsAndSorts) {
  auto doc = ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  const Document& d = **doc;
  NodeIdx a = d.node(d.root()).first_child;
  NodeIdx b = d.node(a).first_child;
  NodeIdx c = d.node(b).next_sibling;
  Sequence seq{Item(NodeHandle{&d, c}), Item(NodeHandle{&d, b}),
               Item(NodeHandle{&d, c})};
  auto sorted = SortDocOrderDedup(seq);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), 2u);
  EXPECT_EQ((*sorted)[0].node().idx, b);
  EXPECT_EQ((*sorted)[1].node().idx, c);
}

}  // namespace
}  // namespace xqdb
