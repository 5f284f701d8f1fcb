// Experiment E3.3 (paper §3.3, Queries 13–16, Tips 5/6): joins between XML
// values and relational values. xqdb executes these value equi-joins as
// hash joins with residual predicates (DESIGN.md §14), or as an index
// probe per outer row where an index serves the inner table;
// XQDB_BATCH=off restores the nested loops. The benchmark shows the cost
// shapes the paper discusses (XQuery-side vs SQL-side comparisons, XMLCAST
// overhead) and the EXPLAIN output records the eligibility decisions.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using xqdb::OrdersWorkloadConfig;
using xqdb::bench::GetDatabase;
using xqdb::bench::RunSqlBenchmark;
using xqdb::bench::RunXQueryBenchmark;

OrdersWorkloadConfig Config(int orders) {
  OrdersWorkloadConfig config;
  config.num_orders = orders;
  config.num_customers = 50;
  config.num_products = 20;
  return config;
}

void BM_Query4_XQueryJoinWithCasts(benchmark::State& state) {
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))), {});
  RunXQueryBenchmark(state, db,
                     "for $i in db2-fn:xmlcolumn(\"ORDERS.ORDDOC\")/order "
                     "for $j in db2-fn:xmlcolumn(\"CUSTOMER.CDOC\")/customer "
                     "where $i/custid/xs:double(.) = $j/id/xs:double(.) "
                     "return $i");
}
BENCHMARK(BM_Query4_XQueryJoinWithCasts)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Query13_XQuerySideJoin(benchmark::State& state) {
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))), {});
  RunSqlBenchmark(state, db,
                  "SELECT p.name FROM products p, orders o "
                  "WHERE XMLEXISTS('$order//lineitem/product[id eq $pid]' "
                  "passing o.orddoc as \"order\", p.id as \"pid\")");
}
BENCHMARK(BM_Query13_XQuerySideJoin)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Query15_SqlSideJoinViaXmlCast(benchmark::State& state) {
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))), {});
  RunSqlBenchmark(
      state, db,
      "SELECT c.cid FROM orders o, customer c "
      "WHERE XMLCAST(XMLQUERY('$order/order/custid' passing o.orddoc as "
      "\"order\") AS DOUBLE) = "
      "XMLCAST(XMLQUERY('$cust/customer/id' passing c.cdoc as \"cust\") "
      "AS DOUBLE)");
}
BENCHMARK(BM_Query15_SqlSideJoinViaXmlCast)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Query16_XQuerySideXmlJoin(benchmark::State& state) {
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))), {});
  RunSqlBenchmark(state, db,
                  "SELECT c.cid FROM orders o, customer c "
                  "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
                  "$cust/customer/id/xs:double(.)]' "
                  "passing o.orddoc as \"order\", c.cdoc as \"cust\")");
}
BENCHMARK(BM_Query16_XQuerySideXmlJoin)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Query16_IndexNestedLoopProbe(benchmark::State& state) {
  // Tip 6 made executable: with customers outer and an index on the
  // orders-side join path, each customer probes the o_custid index instead
  // of scanning all orders.
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))),
                         {"CREATE INDEX o_custid ON orders(orddoc) USING "
                          "XMLPATTERN '//custid' AS SQL DOUBLE"});
  RunSqlBenchmark(state, db,
                  "SELECT c.cid, o.ordid FROM customer c, orders o "
                  "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
                  "$cust/customer/id/xs:double(.)]' "
                  "passing o.orddoc as \"order\", c.cdoc as \"cust\")");
}
BENCHMARK(BM_Query16_IndexNestedLoopProbe)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_Query16_SameOrderNoIndex(benchmark::State& state) {
  // The same customer-outer join order without the index: the orders are
  // hashed once (a nested loop, XQDB_BATCH=off, scans every order per
  // customer).
  auto* db = GetDatabase(Config(static_cast<int>(state.range(0))), {});
  RunSqlBenchmark(state, db,
                  "SELECT c.cid, o.ordid FROM customer c, orders o "
                  "WHERE XMLEXISTS('$order/order[custid/xs:double(.) = "
                  "$cust/customer/id/xs:double(.)]' "
                  "passing o.orddoc as \"order\", c.cdoc as \"cust\")");
}
BENCHMARK(BM_Query16_SameOrderNoIndex)->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
