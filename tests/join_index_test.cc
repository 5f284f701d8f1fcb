// Index-nested-loop joins: the executable form of Tips 5/6. An equality
// join expressed on the XQuery side probes the inner table's XML index once
// per outer row instead of scanning the inner table per outer row.

#include <gtest/gtest.h>

#include <string>

#include "core/database.h"

namespace xqdb {
namespace {

class JoinFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE customer (cid INTEGER, cdoc XML)");
    Exec("CREATE TABLE orders (ordid INTEGER, orddoc XML)");
    Exec("CREATE TABLE products (id VARCHAR(13), name VARCHAR(32))");
    for (int c = 0; c < 10; ++c) {
      Exec("INSERT INTO customer VALUES (" + std::to_string(c) +
           ", '<customer><id>" + std::to_string(c) + "</id><nation>" +
           std::to_string(c % 3) + "</nation></customer>')");
    }
    for (int o = 0; o < 30; ++o) {
      Exec("INSERT INTO orders VALUES (" + std::to_string(o) +
           ", '<order><custid>" + std::to_string(o % 10) + "</custid>"
           "<lineitem price=\"" + std::to_string(50 + o) + "\">"
           "<product><id>p" + std::to_string(o % 5) + "</id></product>"
           "</lineitem></order>')");
    }
    Exec("INSERT INTO products VALUES ('p0','a'),('p1','b'),('p2','c'),"
         "('p3','d'),('p4','e')");
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << " => " << rs.status().ToString();
  }
  Database db_;
};

const char kNumericJoin[] =
    "SELECT c.cid, o.ordid FROM customer c, orders o "
    "WHERE XMLEXISTS('$o/order[custid/xs:double(.) = "
    "$c/customer/id/xs:double(.)]' "
    "passing o.orddoc as \"o\", c.cdoc as \"c\")";

TEST_F(JoinFixture, NumericJoinProbesInnerIndex) {
  Exec("CREATE INDEX o_custid ON orders(orddoc) "
       "USING XMLPATTERN '//custid' AS SQL DOUBLE");
  auto plan = db_.ExplainSql(kNumericJoin);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("NESTED-LOOP PROBE O_CUSTID"), std::string::npos)
      << *plan;
  auto rs = db_.ExecuteSql(kNumericJoin);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 30u);  // every order joins its customer
  // Probing means far fewer inner rows were scanned than the 10*30 nested
  // loop would touch.
  EXPECT_EQ(rs->stats.rows_scanned, 10 + 30);  // 10 customers + 30 probed
}

TEST_F(JoinFixture, NumericJoinNestedLoopWithoutIndex) {
  // Row-at-a-time execution keeps the nested loop: every customer meets
  // every order.
  ExecOptions row_at_a_time;
  row_at_a_time.disable_batch = true;
  auto with_scan = db_.ExecuteSql(kNumericJoin, row_at_a_time);
  ASSERT_TRUE(with_scan.ok());
  EXPECT_EQ(with_scan->rows.size(), 30u);
  EXPECT_EQ(with_scan->stats.rows_scanned, 10 + 10 * 30);
}

TEST_F(JoinFixture, NumericJoinHashesInnerTableWithoutIndex) {
  // Without an index the join hashes the orders once (DESIGN.md §14):
  // each order is read once, not once per customer.
  auto plan = db_.ExplainSql(kNumericJoin);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("HASH JOIN ON custid/xs:double(.) = "
                       "$c/customer/id/xs:double(.) (build: O)"),
            std::string::npos)
      << *plan;
  auto hashed = db_.ExecuteSql(kNumericJoin);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed->stats.rows_scanned, 10 + 30);
  EXPECT_EQ(hashed->stats.hash_join_fallbacks, 0);

  ExecOptions row_at_a_time;
  row_at_a_time.disable_batch = true;
  auto nested = db_.ExecuteSql(kNumericJoin, row_at_a_time);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(hashed->ToString(100), nested->ToString(100));
}

TEST_F(JoinFixture, NaNKeyFallsBackToNestedLoop) {
  // SQL comparison finds a NaN double equal to every number, which no hash
  // bucket can reproduce: the SQL-side join gives way to the nested loop,
  // and EXPLAIN ANALYZE shows it.
  Exec("INSERT INTO orders VALUES (30, '<order><custid>NaN</custid>"
       "</order>')");
  const std::string q =
      "SELECT c.cid, o.ordid FROM customer c, orders o "
      "WHERE XMLCAST(XMLQUERY('$o/order/custid' passing o.orddoc as \"o\") "
      "AS DOUBLE) = XMLCAST(XMLQUERY('$c/customer/id' passing c.cdoc as "
      "\"c\") AS DOUBLE)";
  auto hashed = db_.ExecuteSql(q);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed->stats.hash_join_fallbacks, 1);
  EXPECT_EQ(hashed->rows.size(), 30u + 10u);  // NaN "equals" every customer
  ExecOptions row_at_a_time;
  row_at_a_time.disable_batch = true;
  auto nested = db_.ExecuteSql(q, row_at_a_time);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(hashed->ToString(100), nested->ToString(100));
  EXPECT_EQ(hashed->stats.rows_scanned, nested->stats.rows_scanned);
  auto analyzed = db_.ExplainAnalyzeSql(q);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->find("hash_join_fallbacks = 1"), std::string::npos)
      << *analyzed;
}

TEST_F(JoinFixture, FlworUntypedVsNumericKeyFallsBack) {
  // Untyped custid against a numeric key casts inside `=`, which a hash
  // bucket cannot reproduce: the FLWOR join gives way to the nested loop.
  const std::string q =
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order "
      "for $c in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer "
      "where $o/custid = $c/id/xs:double(.) return $o/custid";
  auto hashed = db_.ExecuteXQuery(q);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed->stats.hash_join_fallbacks, 1);
  ExecOptions row_at_a_time;
  row_at_a_time.disable_batch = true;
  auto nested = db_.ExecuteXQuery(q, row_at_a_time);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(hashed->rows.size(), 30u);
  EXPECT_EQ(hashed->rows, nested->rows);
}

TEST_F(JoinFixture, StringJoinViaValueComparison) {
  // Query 13's `id eq $pid`: a string join; a VARCHAR index on the product
  // id path is probe-eligible.
  Exec("CREATE INDEX li_pid ON orders(orddoc) "
       "USING XMLPATTERN '//lineitem/product/id' AS SQL VARCHAR(16)");
  const std::string q =
      "SELECT p.name, o.ordid FROM products p, orders o "
      "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
      "passing o.orddoc as \"order\", p.id as \"pid\")";
  auto plan = db_.ExplainSql(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("NESTED-LOOP PROBE LI_PID"), std::string::npos)
      << *plan;
  auto rs = db_.ExecuteSql(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 30u);  // each order's product matches once
}

TEST_F(JoinFixture, DoubleIndexIneligibleForStringJoin) {
  // A DOUBLE index on the id path cannot serve the string join (§3.1 type
  // rules apply to joins too).
  Exec("CREATE INDEX li_pid_d ON orders(orddoc) "
       "USING XMLPATTERN '//lineitem/product/id' AS SQL DOUBLE");
  const std::string q =
      "SELECT p.name FROM products p, orders o "
      "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
      "passing o.orddoc as \"order\", p.id as \"pid\")";
  auto plan = db_.ExplainSql(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("NESTED-LOOP PROBE"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("ineligible (join)"), std::string::npos) << *plan;
}

TEST_F(JoinFixture, JoinOrderMatters) {
  // With orders FIRST, the customer side of the join has no outer row to
  // compute the key from — no probe on orders possible, and the note says
  // why.
  Exec("CREATE INDEX o_custid ON orders(orddoc) "
       "USING XMLPATTERN '//custid' AS SQL DOUBLE");
  const std::string q =
      "SELECT c.cid FROM orders o, customer c "
      "WHERE XMLEXISTS('$o/order[custid/xs:double(.) = "
      "$c/customer/id/xs:double(.)]' "
      "passing o.orddoc as \"o\", c.cdoc as \"c\")";
  auto plan = db_.ExplainSql(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("NESTED-LOOP PROBE O_CUSTID"), std::string::npos)
      << *plan;
  auto rs = db_.ExecuteSql(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 30u);  // still correct, just not probed
}

TEST_F(JoinFixture, ProbeResultsMatchScanResults) {
  const std::string q =
      "SELECT c.cid, o.ordid FROM customer c, orders o "
      "WHERE XMLEXISTS('$o/order[custid/xs:double(.) = "
      "$c/customer/id/xs:double(.)]' "
      "passing o.orddoc as \"o\", c.cdoc as \"c\")";
  auto before = db_.ExecuteSql(q);
  ASSERT_TRUE(before.ok());
  Exec("CREATE INDEX o_custid ON orders(orddoc) "
       "USING XMLPATTERN '//custid' AS SQL DOUBLE");
  auto after = db_.ExecuteSql(q);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->rows.size(), after->rows.size());
  for (size_t i = 0; i < before->rows.size(); ++i) {
    EXPECT_EQ(before->rows[i][0].ToDisplayString(),
              after->rows[i][0].ToDisplayString());
    EXPECT_EQ(before->rows[i][1].ToDisplayString(),
              after->rows[i][1].ToDisplayString());
  }
}

}  // namespace
}  // namespace xqdb
