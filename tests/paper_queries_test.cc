// End-to-end reproduction of the paper's Queries 1–30 on the paper's
// schema (§2.2): every behavioural claim in the text, checked.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"
#include "observability/metrics.h"

namespace xqdb {
namespace {

class PaperFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE customer (cid INTEGER, cdoc XML)");
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    Exec("CREATE TABLE products (id VARCHAR(13), name VARCHAR(32))");

    // Order 1: one qualifying lineitem (price 150), one not (99.50).
    Exec("INSERT INTO orders VALUES (1, '<order><custid>10</custid>"
         "<date>2001-01-01</date>"
         "<lineitem price=\"150\"><product><id>p1</id></product>"
         "<price>150</price></lineitem>"
         "<lineitem price=\"99.50\"><product><id>p2</id></product>"
         "<price>99.50</price></lineitem>"
         "</order>')");
    // Order 2: no qualifying lineitem (the paper's 99.50 example).
    Exec("INSERT INTO orders VALUES (2, '<order><custid>11</custid>"
         "<date>2002-01-01</date>"
         "<lineitem price=\"99.50\"><product><id>p2</id></product>"
         "<price>99.50</price></lineitem>"
         "</order>')");
    // Order 3: the paper's first example document — no price attribute at
    // all, but a quantity attribute that satisfies @* > 100.
    Exec("INSERT INTO orders VALUES (3, '<order><custid>12</custid>"
         "<date>2001-01-01</date>"
         "<lineitem quantity=\"200\"><product><id>p1</id></product>"
         "</lineitem></order>')");

    Exec("INSERT INTO customer VALUES (10, '<customer><id>10</id>"
         "<name>ada</name><nation>1</nation></customer>')");
    Exec("INSERT INTO customer VALUES (11, '<customer><id>11</id>"
         "<name>bob</name><nation>2</nation></customer>')");

    Exec("INSERT INTO products VALUES ('p1', 'widget'), ('p2', 'gadget')");

    Exec("CREATE INDEX li_price ON orders(orddoc) "
         "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  }

  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
  }

  ResultSet Sql(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
    return rs.ok() ? std::move(*rs) : ResultSet{};
  }

  Database::XQueryResult XQuery(const std::string& q) {
    auto r = db_.ExecuteXQuery(q);
    EXPECT_TRUE(r.ok()) << q << " => " << r.status().ToString();
    return r.ok() ? std::move(*r) : Database::XQueryResult{};
  }

  std::string ExplainX(const std::string& q) {
    auto r = db_.ExplainXQuery(q);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : "";
  }

  Database db_;
};

TEST_F(PaperFixture, Query1IndexEligibleAndCorrect) {
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price>100] return $i";
  EXPECT_NE(ExplainX(q).find("XML INDEX RANGE SCAN LI_PRICE"),
            std::string::npos);
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 1u);  // Only order 1.
  EXPECT_EQ(r.stats.index_docs_returned, 1);  // Index admitted only order 1.
}

TEST_F(PaperFixture, Query2WildcardIneligibleButCorrect) {
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@*>100] return $i";
  EXPECT_EQ(ExplainX(q).find("INDEX RANGE SCAN"), std::string::npos);
  auto r = XQuery(q);
  // Orders 1 (price 150) and 3 (quantity 200): the document li_price never
  // indexed still qualifies — using the index would have been wrong.
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(PaperFixture, Query3StringComparison) {
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem/@price > \"100\" ] return $i";
  EXPECT_EQ(ExplainX(q).find("INDEX RANGE SCAN"), std::string::npos);
  auto r = XQuery(q);
  // String comparison: "150" > "100" and "99.50" > "100" are both true —
  // both price-bearing orders qualify (unlike the numeric Query 1).
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(PaperFixture, Query4JoinWithCasts) {
  const std::string q =
      "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order "
      "for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer "
      "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
      "return $i";
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 2u);  // Orders 1 and 2 have matching customers.
}

TEST_F(PaperFixture, Query5XmlQuerySelectList) {
  auto rs = Sql(
      "SELECT XMLQUERY('$order//lineitem[@price > 100]' "
      "passing orddoc as \"order\") FROM orders");
  ASSERT_EQ(rs.rows.size(), 3u);  // Row per order, empties included.
  EXPECT_NE(rs.rows[0][0].ToDisplayString().find("lineitem"),
            std::string::npos);
  EXPECT_EQ(rs.rows[1][0].ToDisplayString(), "()");
  EXPECT_EQ(rs.rows[2][0].ToDisplayString(), "()");
}

TEST_F(PaperFixture, Query6ValuesAggregatesAllInOneRow) {
  auto rs = Sql(
      "VALUES (XMLQUERY('db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
      "//lineitem[@price > 100]'))");
  ASSERT_EQ(rs.rows.size(), 1u);
}

TEST_F(PaperFixture, Query7RowPerLineitem) {
  const std::string q =
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]";
  EXPECT_NE(ExplainX(q).find("XML INDEX RANGE SCAN LI_PRICE"),
            std::string::npos);
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 1u);  // One qualifying lineitem in the data.
}

TEST_F(PaperFixture, Query8XmlExistsFilters) {
  auto rs = Sql(
      "SELECT ordid, orddoc FROM orders "
      "WHERE XMLEXISTS('$order//lineitem[@price > 100]' "
      "passing orddoc as \"order\")");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].integer_value(), 1);
  auto plan = db_.ExplainSql(
      "SELECT ordid, orddoc FROM orders "
      "WHERE XMLEXISTS('$order//lineitem[@price > 100]' "
      "passing orddoc as \"order\")");
  EXPECT_NE(plan->find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos);
}

TEST_F(PaperFixture, Query9BooleanTrapReturnsAllRows) {
  auto rs = Sql(
      "SELECT ordid, orddoc FROM orders "
      "WHERE XMLEXISTS('$order//lineitem/@price > 100' "
      "passing orddoc as \"order\")");
  EXPECT_EQ(rs.rows.size(), 3u);  // Every row — the trap.
}

TEST_F(PaperFixture, Query10ExistsPlusQueryReturnsFragments) {
  auto rs = Sql(
      "SELECT ordid, XMLQUERY('$order//lineitem[@price > 100]' "
      "passing orddoc as \"order\") FROM orders "
      "WHERE XMLEXISTS('$order//lineitem[@price > 100]' "
      "passing orddoc as \"order\")");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_NE(rs.rows[0][1].ToDisplayString().find("150"), std::string::npos);
}

TEST_F(PaperFixture, Query11XmlTableRowPerLineitem) {
  auto rs = Sql(
      "SELECT o.ordid, t.lineitem FROM orders o, "
      "XMLTABLE('$order//lineitem[@price > 100]' "
      "passing o.orddoc as \"order\" "
      "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)");
  EXPECT_EQ(rs.rows.size(), 1u);
  auto plan = db_.ExplainSql(
      "SELECT o.ordid FROM orders o, "
      "XMLTABLE('$order//lineitem[@price > 100]' "
      "passing o.orddoc as \"order\" "
      "COLUMNS \"lineitem\" XML BY REF PATH '.') as t(lineitem)");
  EXPECT_NE(plan->find("XML INDEX RANGE SCAN LI_PRICE"), std::string::npos);
}

TEST_F(PaperFixture, Query12ColumnPredicateNullsNotEligible) {
  const std::string q =
      "SELECT o.ordid, t.lineitem, t.price FROM orders o, "
      "XMLTABLE('$order//lineitem' passing o.orddoc as \"order\" "
      "COLUMNS \"lineitem\" XML BY REF PATH '.', "
      "\"price\" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)";
  auto rs = Sql(q);
  ASSERT_EQ(rs.rows.size(), 4u);  // All four lineitems.
  int nulls = 0;
  for (const auto& row : rs.rows) {
    if (row[2].is_null()) ++nulls;
  }
  EXPECT_EQ(nulls, 3);
  auto plan = db_.ExplainSql(q);
  EXPECT_EQ(plan->find("INDEX RANGE SCAN"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("not index eligible"), std::string::npos);
}

TEST_F(PaperFixture, Query13XQuerySideJoin) {
  auto rs = Sql(
      "SELECT p.name, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM products p, orders o "
      "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
      "passing o.orddoc as \"order\", p.id as \"pid\")");
  // p1 in orders 1,3; p2 in orders 1,2 → 4 pairs.
  EXPECT_EQ(rs.rows.size(), 4u);
}

TEST_F(PaperFixture, Query14XmlCastFailsOnMultipleIds) {
  // Order 1 has two product ids → XMLCAST cardinality error, while the
  // XQuery formulation (Query 13) succeeded.
  auto rs = db_.ExecuteSql(
      "SELECT p.name FROM products p, orders o "
      "WHERE p.id = XMLCAST(XMLQUERY('$order//lineitem/product/id' "
      "passing o.orddoc as \"order\") AS VARCHAR(13))");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTypeError);
}

TEST_F(PaperFixture, Query15SqlSideXmlJoin) {
  auto rs = Sql(
      "SELECT c.cid, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM orders o, customer c "
      "WHERE XMLCAST(XMLQUERY('$order/order/custid' passing o.orddoc as "
      "\"order\") AS DOUBLE) = "
      "XMLCAST(XMLQUERY('$cust/customer/id' passing c.cdoc as \"cust\") "
      "AS DOUBLE)");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(PaperFixture, Query16XQueryXmlJoinSameResult) {
  auto rs = Sql(
      "SELECT c.cid, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM orders o, customer c "
      "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
      "$cust/customer/id/xs:double(.)]' "
      "passing o.orddoc as \"order\", c.cdoc as \"cust\")");
  EXPECT_EQ(rs.rows.size(), 2u);
}

// The join queries run as hash joins by default and as nested loops
// row-at-a-time (DESIGN.md §14); the hash join only pre-filters, so both
// return the same rows in the same order.
TEST_F(PaperFixture, HashJoinsReturnNestedLoopRows) {
  const char* const kSqlJoins[] = {
      // Query 13
      "SELECT p.name, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM products p, orders o "
      "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
      "passing o.orddoc as \"order\", p.id as \"pid\")",
      // Query 15
      "SELECT c.cid, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM orders o, customer c "
      "WHERE XMLCAST(XMLQUERY('$order/order/custid' passing o.orddoc as "
      "\"order\") AS DOUBLE) = "
      "XMLCAST(XMLQUERY('$cust/customer/id' passing c.cdoc as \"cust\") "
      "AS DOUBLE)",
      // Query 16
      "SELECT c.cid, XMLQUERY('$order//lineitem' passing o.orddoc as "
      "\"order\") FROM orders o, customer c "
      "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
      "$cust/customer/id/xs:double(.)]' "
      "passing o.orddoc as \"order\", c.cdoc as \"cust\")",
  };
  ExecOptions row_at_a_time;
  row_at_a_time.disable_batch = true;
  for (const char* q : kSqlJoins) {
    SCOPED_TRACE(q);
    auto plan = db_.ExplainSql(q);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find("HASH JOIN ON"), std::string::npos) << *plan;
    auto hashed = db_.ExecuteSql(q);
    auto nested = db_.ExecuteSql(q, row_at_a_time);
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    ASSERT_TRUE(nested.ok()) << nested.status().ToString();
    EXPECT_FALSE(hashed->rows.empty());
    EXPECT_EQ(hashed->ToString(100), nested->ToString(100));
    EXPECT_EQ(hashed->stats.hash_join_fallbacks, 0);
    EXPECT_LT(hashed->stats.rows_scanned, nested->stats.rows_scanned);
  }

  // Query 4: the FLWOR for/for/where join.
  const std::string q4 =
      "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order "
      "for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer "
      "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
      "return $i";
  EXPECT_NE(ExplainX(q4).find("HASH JOIN ON $i/custid/xs:double(.) = "
                              "$j/id/xs:double(.) (build: $j)"),
            std::string::npos)
      << ExplainX(q4);
  auto hashed = db_.ExecuteXQuery(q4);
  auto nested = db_.ExecuteXQuery(q4, row_at_a_time);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(hashed->rows.size(), 2u);
  EXPECT_EQ(hashed->rows, nested->rows);
  EXPECT_EQ(hashed->stats.hash_join_fallbacks, 0);
  EXPECT_EQ(hashed->stats.rows_scanned, 3 + 2);  // each document once
  EXPECT_EQ(nested->stats.rows_scanned, 3 + 3 * 2);
}

TEST_F(PaperFixture, Query14HashJoinFallsBackToTheNestedLoopError) {
  // Order 1's two product ids make its XMLCAST key raise, so the hash join
  // gives way to the nested loop before any row is emitted, and the
  // nested loop raises the paper's cardinality error as before.
  const std::string q14 =
      "SELECT p.name FROM products p, orders o "
      "WHERE p.id = XMLCAST(XMLQUERY('$order//lineitem/product/id' "
      "passing o.orddoc as \"order\") AS VARCHAR(13))";
  auto plan = db_.ExplainSql(q14);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HASH JOIN ON"), std::string::npos) << *plan;
  Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("exec.hash_join_fallbacks");
  const long long before = fallbacks->value();
  auto rs = db_.ExecuteSql(q14);
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTypeError);
  EXPECT_EQ(fallbacks->value() - before, 1);
}

TEST_F(PaperFixture, Query17And18ForVsLetCardinality) {
  auto q17 = XQuery(
      "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
      "for $item in $doc//lineitem[@price > 100] "
      "return <result>{$item}</result>");
  EXPECT_EQ(q17.rows.size(), 1u);
  EXPECT_NE(ExplainX("for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
                     "for $item in $doc//lineitem[@price > 100] "
                     "return <result>{$item}</result>")
                .find("XML INDEX RANGE SCAN"),
            std::string::npos);

  auto q18 = XQuery(
      "for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
      "let $item := $doc//lineitem[@price > 100] "
      "return <result>{$item}</result>");
  EXPECT_EQ(q18.rows.size(), 3u);  // Row per document, empties preserved.
  EXPECT_EQ(q18.rows[1], "<result/>");
  EXPECT_EQ(ExplainX("for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') "
                     "let $item := $doc//lineitem[@price > 100] "
                     "return <result>{$item}</result>")
                .find("INDEX RANGE SCAN"),
            std::string::npos);
}

TEST_F(PaperFixture, Query19ConstructorPreservesEmpty) {
  auto r = XQuery(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "return <result>{$ord/lineitem[@price > 100]}</result>");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(PaperFixture, Query20And21WhereFilters) {
  auto q20 = XQuery(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "where $ord/lineitem/@price > 100 "
      "return <result>{$ord/lineitem}</result>");
  EXPECT_EQ(q20.rows.size(), 1u);
  auto q21 = XQuery(
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "let $price := $ord/lineitem/@price "
      "where $price > 100 "
      "return <result>{$ord/lineitem}</result>");
  EXPECT_EQ(q21.rows.size(), 1u);
  // Both are index eligible (the where clause eliminates empties).
  EXPECT_NE(ExplainX("for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
                     "let $price := $ord/lineitem/@price "
                     "where $price > 100 "
                     "return <result>{$ord/lineitem}</result>")
                .find("XML INDEX RANGE SCAN"),
            std::string::npos);
}

TEST_F(PaperFixture, Query22BindOutFilters) {
  const std::string q =
      "for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "return $ord/lineitem[@price > 100]";
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_NE(ExplainX(q).find("XML INDEX RANGE SCAN"), std::string::npos);
}

TEST_F(PaperFixture, Query23DocumentNodeNavigation) {
  auto r = XQuery("db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(PaperFixture, Query24ConstructedElementContext) {
  auto r = XQuery(
      "for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "return <my_order>{$o/*}</my_order>) "
      "return $ord/my_order");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(PaperFixture, Query25AbsolutePathTypeError) {
  auto r = db_.ExecuteXQuery(
      "let $order := <neworder>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/"
      "order[custid > 1001]}</neworder> "
      "return $order[//customer/name]");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(PaperFixture, Query26And27ViewVsBase) {
  // On well-behaved data the view query and the pushed-down query agree.
  auto q26 = XQuery(
      "let $view := for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/"
      "order/lineitem return <item>{$i/@price}"
      "<pid>{$i/product/id/data(.)}</pid></item> "
      "for $j in $view where $j/pid = 'p2' return $j/@price");
  auto q27 = XQuery(
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem "
      "where $i/product/id/data(.) = 'p2' return $i/@price");
  EXPECT_EQ(q26.rows.size(), 2u);
  EXPECT_EQ(q26.rows.size(), q27.rows.size());
}

TEST_F(PaperFixture, Query29TextNodeAlignment) {
  Exec("CREATE INDEX price_text ON orders(orddoc) "
       "USING XMLPATTERN '//price' AS SQL VARCHAR(32)");
  // The document whose price element contains "99.50USD" via mixed content:
  Exec("INSERT INTO orders VALUES (4, '<order><custid>13</custid>"
       "<date>2003-01-01</date><lineitem>"
       "<price>99.50<currency>USD</currency></price></lineitem>"
       "</order>')");
  const std::string q =
      "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
      "/order[lineitem/price/text() = \"99.50\"] return $ord";
  // The element-value index is NOT eligible for the text() query.
  std::string plan = ExplainX(q);
  EXPECT_EQ(plan.find("RANGE SCAN PRICE_TEXT"), std::string::npos) << plan;
  auto r = XQuery(q);
  // Orders 1, 2 and 4 all have a price text node "99.50" (order 4's element
  // value is "99.50USD" but its first text node is "99.50").
  EXPECT_EQ(r.rows.size(), 3u);
  // An aligned //price/text() index IS eligible.
  Exec("CREATE INDEX price_text2 ON orders(orddoc) "
       "USING XMLPATTERN '//price/text()' AS SQL VARCHAR(32)");
  plan = ExplainX(q);
  EXPECT_NE(plan.find("RANGE SCAN PRICE_TEXT2"), std::string::npos) << plan;
  auto r2 = XQuery(q);
  EXPECT_EQ(r2.rows.size(), 3u);  // Same answer, now via the index.
}

TEST_F(PaperFixture, Query30BetweenViaAttribute) {
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem[@price>100 and @price<200]] return $i";
  std::string plan = ExplainX(q);
  EXPECT_NE(plan.find("between"), std::string::npos) << plan;
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(PaperFixture, Query30ElementFormNeedsTwoScans) {
  Exec("CREATE INDEX price_elem ON orders(orddoc) "
       "USING XMLPATTERN '//lineitem/price' AS SQL DOUBLE");
  const std::string q =
      "for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//order[lineitem[price>100 and price<200]] return $i";
  std::string plan = ExplainX(q);
  EXPECT_NE(plan.find("ANDING"), std::string::npos) << plan;
  auto r = XQuery(q);
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(PaperFixture, Query30MultiPriceExistentialTrap) {
  // A lineitem with prices 50 and 250: satisfies (price>100 and price<200)
  // existentially though neither price is between.
  Exec("INSERT INTO orders VALUES (5, '<order><custid>14</custid>"
       "<lineitem><price>250</price><price>50</price></lineitem>"
       "</order>')");
  auto r = XQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//lineitem[price>100 and price<200]");
  // Order 1's lineitem (price 150) and order 5's trap lineitem.
  EXPECT_EQ(r.rows.size(), 2u);
  // The self-axis formulation from §3.10 excludes the trap.
  auto strict = XQuery(
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "//lineitem[price/data()[. > 100 and . < 200]]");
  EXPECT_EQ(strict.rows.size(), 1u);
}

// ----- §3.7 namespaces (Query 28) in a dedicated fixture --------------------

class NamespaceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    Exec("CREATE TABLE customer (cid INTEGER, cdoc XML)");
    Exec("INSERT INTO orders VALUES (1, "
         "'<order xmlns=\"http://ournamespaces.com/order\">"
         "<custid>10</custid><lineitem price=\"1500\"/></order>')");
    Exec("INSERT INTO customer VALUES (10, "
         "'<customer xmlns=\"http://ournamespaces.com/customer\">"
         "<id>10</id><nation>1</nation></customer>')");
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
  }
  Database db_;
};

TEST_F(NamespaceFixture, Query28IndexNamespaceMatching) {
  // The paper's indexes without namespaces: both ineligible.
  Exec("CREATE INDEX li_price ON orders(orddoc) "
       "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  Exec("CREATE INDEX c_nation ON customer(cdoc) "
       "USING XMLPATTERN '//nation' AS SQL DOUBLE");
  // li_price indexed nothing: the lineitem element is namespaced.
  const std::string q28 =
      "declare default element namespace \"http://ournamespaces.com/order\"; "
      "declare namespace c=\"http://ournamespaces.com/customer\"; "
      "for $ord in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")"
      "/order[lineitem/@price > 1000] "
      "for $cust in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")"
      "/c:customer[c:nation = 1] "
      // (The paper writes "$cust/id", but under the declared default
      // element namespace that means {order-ns}id; the namespace-correct
      // form is $cust/c:id.)
      "where $ord/custid = $cust/c:id return $ord";
  auto plan = db_.ExplainXQuery(q28);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("RANGE SCAN LI_PRICE"), std::string::npos) << *plan;
  auto r = db_.ExecuteXQuery(q28);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);

  // Tip 10's fixes: each of the corrected indexes becomes eligible.
  Exec("CREATE INDEX c_nation_ns1 ON customer(cdoc) USING XMLPATTERN "
       "'declare default element namespace "
       "\"http://ournamespaces.com/customer\"; //nation' AS SQL DOUBLE");
  Exec("CREATE INDEX li_price_ns ON orders(orddoc) "
       "USING XMLPATTERN '//@price' AS SQL DOUBLE");
  plan = db_.ExplainXQuery(q28);
  ASSERT_TRUE(plan.ok());
  bool fixed = plan->find("LI_PRICE_NS") != std::string::npos ||
               plan->find("C_NATION_NS1") != std::string::npos;
  EXPECT_TRUE(fixed) << *plan;
  auto r2 = db_.ExecuteXQuery(q28);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows, r->rows);  // Same answer, now indexable.
}

TEST_F(NamespaceFixture, WildcardIndexEligible) {
  Exec("CREATE INDEX w_nation ON customer(cdoc) "
       "USING XMLPATTERN '//*:nation' AS SQL DOUBLE");
  const std::string q =
      "declare namespace c=\"http://ournamespaces.com/customer\"; "
      "db2-fn:xmlcolumn('CUSTOMER.CDOC')/c:customer[c:nation = 1]";
  auto plan = db_.ExplainXQuery(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("W_NATION"), std::string::npos) << *plan;
  auto r = db_.ExecuteXQuery(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

}  // namespace
}  // namespace xqdb
