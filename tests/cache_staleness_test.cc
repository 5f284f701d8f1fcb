// Compiled-query-cache staleness: DML (DELETE/INSERT) deliberately does
// NOT bump the catalog version — plans stay structurally valid because
// indexes are maintained in place and every execution re-probes. These
// tests prove that design holds: a plan cached before DML, replayed after
// it, must neither resurrect deleted documents nor miss inserted ones —
// serial and with a multi-thread pool (the XQDB_THREADS=N serving shape).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "workload/generator.h"

namespace xqdb {
namespace {

class CacheStalenessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OrdersWorkloadConfig wl;
    wl.num_orders = 40;
    wl.num_customers = 10;
    wl.seed = 7;
    ASSERT_TRUE(LoadPaperWorkload(&db_, wl).ok());
    Exec(
        "CREATE INDEX li_price ON orders(orddoc) "
        "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE");
  }
  void TearDown() override {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  }
  void Exec(const std::string& sql) {
    auto rs = db_.ExecuteSql(sql);
    ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  }
  std::vector<std::string> RunXq(const std::string& q, bool cold,
                                 long long* cache_hits = nullptr) {
    ExecOptions opts;
    opts.disable_cache = cold;
    auto r = db_.ExecuteXQuery(q, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (cache_hits) *cache_hits = r.ok() ? r->stats.plan_cache_hits : -1;
    return r.ok() ? r->rows : std::vector<std::string>{};
  }
  Database db_;
};

TEST_F(CacheStalenessTest, CachedPlanReprobesAfterDelete) {
  const std::string q =
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "/order[lineitem/@price > 300] return $o/custid";
  auto before = RunXq(q, /*cold=*/false);  // compiles + caches
  ASSERT_FALSE(before.empty());

  Exec("DELETE FROM orders WHERE ordid >= 20");

  long long hits = 0;
  auto cached = RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 1) << "DML must not invalidate the cached plan";
  auto cold = RunXq(q, /*cold=*/true);
  EXPECT_EQ(cached, cold) << "stale-by-DML replay must re-probe the index";
  EXPECT_LT(cached.size(), before.size());  // the deletes actually bit
}

TEST_F(CacheStalenessTest, CachedPlanSeesSubsequentInsert) {
  const std::string q =
      "count(db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "/order[lineitem/@price > 1500])";
  auto before = RunXq(q, /*cold=*/false);
  ASSERT_EQ(before, std::vector<std::string>{"0"});  // prices top out at 1000

  Exec(
      "INSERT INTO orders VALUES (900001, '<order><custid>3</custid>"
      "<lineitem quantity=\"1\" price=\"2000\"/></order>')");

  long long hits = 0;
  auto cached = RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(cached, std::vector<std::string>{"1"})
      << "cached plan must see the inserted document via the live index";
}

TEST_F(CacheStalenessTest, StaleReplayMatchesColdUnderParallelPool) {
  const std::string q =
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "/order[lineitem/@price > 100 and lineitem/@price < 600] "
      "return $o/custid";
  const std::string sql =
      "SELECT ordid FROM orders WHERE XMLEXISTS('$o/order"
      "[lineitem/@price > 250]' PASSING orddoc AS \"o\")";
  RunXq(q, /*cold=*/false);
  auto sql_before = db_.ExecuteSql(sql);
  ASSERT_TRUE(sql_before.ok());

  Exec("DELETE FROM orders WHERE ordid >= 25");
  Exec(
      "INSERT INTO orders VALUES (900002, '<order><custid>9</custid>"
      "<lineitem quantity=\"2\" price=\"400\"/></order>')");

  ThreadPool::SetGlobalThreads(4);
  long long hits = 0;
  auto par_cached = RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 1);
  auto par_sql_cached = db_.ExecuteSql(sql);
  ASSERT_TRUE(par_sql_cached.ok());
  EXPECT_EQ(par_sql_cached->stats.plan_cache_hits, 1);

  ThreadPool::SetGlobalThreads(0);
  auto serial_cold = RunXq(q, /*cold=*/true);
  ExecOptions cold_opts;
  cold_opts.disable_cache = true;
  auto serial_sql_cold = db_.ExecuteSql(sql, cold_opts);
  ASSERT_TRUE(serial_sql_cold.ok());

  EXPECT_EQ(par_cached, serial_cold);
  ASSERT_EQ(par_sql_cached->rows.size(), serial_sql_cold->rows.size());
  for (size_t i = 0; i < par_sql_cached->rows.size(); ++i) {
    EXPECT_EQ(par_sql_cached->rows[i][0].integer_value(),
              serial_sql_cold->rows[i][0].integer_value());
  }
}

TEST_F(CacheStalenessTest, StaleSummaryContainmentDemotesBothFrontEnds) {
  // '/order/custid' does not statically contain '//custid', but every
  // stored custid sits at /order/custid, so the path summary makes the
  // index eligible for the existence predicate. The claim is only as good
  // as the collection's path set when the plan was cached.
  Exec(
      "CREATE INDEX cust_txt ON orders(orddoc) "
      "USING XMLPATTERN '/order/custid' AS SQL VARCHAR(32)");
  const std::string sql =
      "SELECT ordid FROM orders WHERE XMLEXISTS('$o//custid' "
      "PASSING orddoc AS \"o\")";
  const std::string xq =
      "db2-fn:xmlcolumn('ORDERS.ORDDOC')[.//custid]//custid";
  for (const std::string& text : {sql, xq}) {
    auto plan = text == sql ? db_.ExplainSql(text) : db_.ExplainXQuery(text);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("XML INDEX STRUCTURAL SCAN CUST_TXT "
                         "[summary-derived containment]"),
              std::string::npos)
        << *plan;
  }
  auto sql_before = db_.ExecuteSql(sql);
  ASSERT_TRUE(sql_before.ok()) << sql_before.status().ToString();
  EXPECT_EQ(sql_before->stats.docs_scanned, 0);
  auto xq_before = db_.ExecuteXQuery(xq);
  ASSERT_TRUE(xq_before.ok()) << xq_before.status().ToString();
  EXPECT_EQ(xq_before->stats.docs_scanned, 0);

  // A custid outside /order/custid: the index misses it, so a cached probe
  // would lose this row. Both front ends must demote to a scan.
  Exec(
      "INSERT INTO orders VALUES (900003, '<order><note><custid>4</custid>"
      "</note></order>')");
  const long long live_rows =
      static_cast<long long>(db_.catalog().GetTable("ORDERS").value()
                                 ->live_row_count());
  ExecOptions scan;
  scan.force_scan = true;

  auto sql_cached = db_.ExecuteSql(sql);
  ASSERT_TRUE(sql_cached.ok()) << sql_cached.status().ToString();
  EXPECT_EQ(sql_cached->stats.plan_cache_hits, 1);
  EXPECT_EQ(sql_cached->stats.docs_scanned, live_rows);
  auto sql_scan = db_.ExecuteSql(sql, scan);
  ASSERT_TRUE(sql_scan.ok()) << sql_scan.status().ToString();
  ASSERT_EQ(sql_cached->rows.size(), sql_scan->rows.size());
  EXPECT_EQ(sql_cached->rows.size(), sql_before->rows.size() + 1);
  for (size_t i = 0; i < sql_scan->rows.size(); ++i) {
    EXPECT_EQ(sql_cached->rows[i][0].integer_value(),
              sql_scan->rows[i][0].integer_value());
  }

  auto xq_cached = db_.ExecuteXQuery(xq);
  ASSERT_TRUE(xq_cached.ok()) << xq_cached.status().ToString();
  EXPECT_EQ(xq_cached->stats.plan_cache_hits, 1);
  EXPECT_EQ(xq_cached->stats.docs_scanned, live_rows);
  auto xq_scan = db_.ExecuteXQuery(xq, scan);
  ASSERT_TRUE(xq_scan.ok()) << xq_scan.status().ToString();
  EXPECT_EQ(xq_cached->rows, xq_scan->rows);
  EXPECT_EQ(xq_cached->rows.size(), xq_before->rows.size() + 1);
}

TEST_F(CacheStalenessTest, DdlStillInvalidates) {
  // The counterpart guarantee: DDL *does* bump the version, because a new
  // index can flip the plan shape.
  const std::string q =
      "for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')"
      "/order[custid = 5] return $o";
  RunXq(q, /*cold=*/false);
  long long hits = 0;
  RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 1);

  Exec(
      "CREATE INDEX ord_custid ON orders(orddoc) "
      "USING XMLPATTERN '/order/custid' AS SQL DOUBLE");
  RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 0) << "new index must force a re-plan";
  RunXq(q, /*cold=*/false, &hits);
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace xqdb
