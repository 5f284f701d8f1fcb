#include "testing/query_gen.h"

#include <cstdio>

namespace xqdb {
namespace testing {

namespace {

/// Candidate CREATE INDEX statements. Each seed enables a random subset,
/// so eligibility decisions (type mismatches, pattern containment, the
/// //@* wildcard, VARCHAR vs DOUBLE on the same path) all get exercised
/// against both present and absent indexes.
const char* const kIndexPool[] = {
    "CREATE INDEX li_price ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE",
    "CREATE INDEX li_price_v ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@price' AS SQL VARCHAR(20)",
    "CREATE INDEX li_qty ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/@quantity' AS SQL DOUBLE",
    "CREATE INDEX ord_custid ON orders(orddoc) "
    "USING XMLPATTERN '/order/custid' AS SQL DOUBLE",
    "CREATE INDEX el_price ON orders(orddoc) "
    "USING XMLPATTERN '//lineitem/price' AS SQL DOUBLE",
    "CREATE INDEX prod_id ON orders(orddoc) "
    "USING XMLPATTERN '//product/id' AS SQL VARCHAR(13)",
    "CREATE INDEX ord_date_v ON orders(orddoc) "
    "USING XMLPATTERN '/order/date' AS SQL VARCHAR(10)",
    "CREATE INDEX any_attr ON orders(orddoc) "
    "USING XMLPATTERN '//@*' AS SQL DOUBLE",
    "CREATE INDEX postal ON orders(orddoc) "
    "USING XMLPATTERN '//shipping-address/postalcode' AS SQL VARCHAR(16)",
    "CREATE INDEX cust_id ON customer(cdoc) "
    "USING XMLPATTERN '/customer/id' AS SQL DOUBLE",
};

const char* const kGeneralOps[] = {"=", "!=", "<", "<=", ">", ">="};
const char* const kValueOps[] = {"eq", "ne", "lt", "le", "gt", "ge"};

std::string Fmt(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

QueryGenerator::QueryGenerator(unsigned seed)
    : rng_(seed * 2654435761u + 0x9e3779b9u), seed_(seed) {}

int QueryGenerator::Pick(int n) {
  return static_cast<int>(rng_() % static_cast<unsigned>(n));
}

double QueryGenerator::Coin() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
}

OrdersWorkloadConfig QueryGenerator::GenerateWorkload() {
  OrdersWorkloadConfig wl;
  wl.seed = seed_;
  wl.num_orders = 32 + Pick(33);  // 32..64: small enough to stay fast
  wl.num_customers = 8 + Pick(17);
  wl.num_products = 10 + Pick(41);
  wl.lineitems_min = 1;
  wl.lineitems_max = 1 + Pick(5);
  // Multi-valued prices break naive between merges (§3.10); Canadian
  // postal codes exercise tolerant casts on an indexed path (§2.1). Both
  // are error-free under the generated grammar (string comparisons only on
  // postalcode), unlike string_price_fraction, which makes *numeric*
  // comparisons on price raise FORG0001 on the scan side — that regime is
  // reserved for hand-written corpus cases.
  wl.multi_price_fraction = Coin() < 0.5 ? 0.0 : 0.3;
  wl.canadian_postal_fraction = Coin() < 0.5 ? 0.0 : 0.25;
  wl.string_price_fraction = 0.0;
  wl.use_namespaces = false;
  return wl;
}

std::vector<std::string> QueryGenerator::GenerateDdl() {
  std::vector<std::string> ddl;
  for (const char* stmt : kIndexPool) {
    if (Coin() < 0.45) ddl.push_back(stmt);
  }
  return ddl;
}

std::string QueryGenerator::PriceLiteral() {
  // Sample the workload's price range with overhang so empty, full, and
  // partial selections all occur.
  double v = -100.0 + Coin() * 1300.0;
  switch (Pick(3)) {
    case 0:
      return Fmt("%.0f", v);
    case 1:
      return Fmt("%.2f", v);
    default:
      return Fmt("%.1f", v);
  }
}

std::string QueryGenerator::QuantityLiteral() {
  return std::to_string(Pick(12) - 1);  // -1..10 around the 1..9 range
}

std::string QueryGenerator::CustidLiteral() {
  return std::to_string(Pick(30) - 2);  // workload custid is 0..num_customers
}

std::string QueryGenerator::ProductIdLiteral() {
  return "\"p" + std::to_string(Pick(55)) + "\"";
}

std::string QueryGenerator::ProductNameLiteral() {
  return "\"product-" + std::to_string(Pick(55)) + "\"";
}

std::string QueryGenerator::DateLiteral() {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2006-%02d-%02d", 1 + Pick(12),
                1 + Pick(28));
  return buf;
}

std::string QueryGenerator::Comparison(bool for_where_clause) {
  // Paths are relative to the order element; the where-clause variant
  // prefixes $o/.
  const std::string p = for_where_clause ? "$o/" : "";
  const std::string op = kGeneralOps[Pick(6)];
  switch (Pick(10)) {
    case 0:
      return p + "lineitem/@price " + op + " " + PriceLiteral();
    case 1:
      return p + (Pick(2) ? "lineitem/price " : "lineitem//price ") + op +
             " " + PriceLiteral();
    case 2:
      return p + "lineitem/@quantity " + op + " " + QuantityLiteral();
    case 3:
      return p + "custid " + op + " " + CustidLiteral();
    case 4:
      return p + (Pick(2) ? "lineitem/product/id " : "//product/id ") + op +
             " " + ProductIdLiteral();
    case 5:
      return p + "lineitem/product/name " + op + " " + ProductNameLiteral();
    case 6:
      return p + "date " + op + " \"" + DateLiteral() + "\"";
    case 7:
      return p + "shipping-address/postalcode " + op + " \"" +
             (Pick(3) == 0 ? "K1A 0B1"
                           : std::to_string(10000 + Pick(89999))) +
             "\"";
    case 8:
      // Value comparison on a singleton with the paper's forced-cast
      // idiom (Query 4): the operand is one custid element per order.
      return p + "custid/xs:double(.) " + std::string(kValueOps[Pick(6)]) +
             " " + CustidLiteral();
    default:
      // The §3.10 merged-between shape: both bounds on the *same*
      // singleton value.
      return p + "lineitem[@price >= " + PriceLiteral() + " and @price <= " +
             PriceLiteral() + "]";
  }
}

std::string QueryGenerator::PredicateBlock() {
  switch (Pick(8)) {
    case 0:
      return "";  // no predicate: structural-only navigation
    case 1:
      return "[" + Comparison(false) + "]";
    case 2:
      return "[" + Comparison(false) + " and " + Comparison(false) + "]";
    case 3:
      return "[" + Comparison(false) + " or " + Comparison(false) + "]";
    case 4:
      return "[" + Comparison(false) + "][" + Comparison(false) + "]";
    case 5:
      return Pick(2) ? "[shipping-address]" : "[lineitem/product]";
    case 6:
      return "[not(" + Comparison(false) + ")]";
    default:
      return "[count(lineitem) " + std::string(kGeneralOps[Pick(6)]) + " " +
             std::to_string(Pick(5)) + "]";
  }
}

std::string QueryGenerator::GenerateXQueryText() {
  const std::string col = "db2-fn:xmlcolumn('ORDERS.ORDDOC')";
  switch (Pick(7)) {
    case 0: {
      const char* rets[] = {"$o", "$o/custid", "$o/date",
                            "count($o/lineitem)", "data($o/custid)"};
      return "for $o in " + col + "/order" + PredicateBlock() + " return " +
             rets[Pick(5)];
    }
    case 1: {
      const char* tails[] = {"/custid", "/date", "/lineitem/product/id",
                             ""};
      return col + "/order" + PredicateBlock() + tails[Pick(4)];
    }
    case 2:
      return col + "//lineitem[" + "@price " +
             std::string(kGeneralOps[Pick(6)]) + " " + PriceLiteral() +
             "]/product/id";
    case 3: {
      std::string where;
      if (Pick(2)) {
        where = "some $l in $o/lineitem satisfies $l/@price " +
                std::string(kGeneralOps[Pick(6)]) + " " + PriceLiteral();
      } else {
        where = Comparison(true);
      }
      return "for $o in " + col + "/order where " + where +
             " return $o/custid";
    }
    case 4:
      return "for $o in " + col + "/order" + PredicateBlock() +
             " order by $o/custid/xs:double(.), $o/date return $o/custid";
    case 5: {
      // Query 4's for/for/where value join, hash-joined unless
      // row-at-a-time: a cast double join, its value-comparison form, or
      // the untyped (string) join, with either side written first.
      const char* const joins[][3] = {
          {"$o/custid/xs:double(.)", "=", "$c/id/xs:double(.)"},
          {"$o/custid/xs:double(.)", "eq", "$c/id/xs:double(.)"},
          {"$o/custid", "=", "$c/id"},
      };
      const auto& join = joins[Pick(3)];
      const bool order_first = Pick(2) == 0;
      const std::string where =
          std::string(join[order_first ? 0 : 2]) + " " + join[1] + " " +
          join[order_first ? 2 : 0];
      const char* rets[] = {"$o/custid", "$c/id", "data($o/date)"};
      return "for $o in " + col + "/order" + PredicateBlock() +
             " for $c in db2-fn:xmlcolumn('CUSTOMER.CDOC')/customer where " +
             where + " return " + rets[Pick(3)];
    }
    default:
      return "count(" + col + "/order" + PredicateBlock() + ")";
  }
}

std::string QueryGenerator::GenerateSqlText() {
  // The embedded XQuery is single-quoted in SQL, so all inner string
  // literals use double quotes.
  const std::string exists = "XMLEXISTS('$o/order" + PredicateBlock() +
                             "' PASSING orddoc AS \"o\")";
  switch (Pick(8)) {
    case 0:
      return "SELECT ordid FROM orders WHERE " + exists;
    case 1: {
      std::string rel = Pick(2) ? " AND ordid >= " + std::to_string(Pick(40))
                                : " AND ordid < " + std::to_string(Pick(70));
      return "SELECT ordid FROM orders WHERE " + exists + rel;
    }
    case 2: {
      const char* paths[] = {"$o/order/custid", "$o/order/date",
                             "$o//lineitem/product/id"};
      return "SELECT ordid, XMLQUERY('" + std::string(paths[Pick(3)]) +
             "' PASSING orddoc AS \"o\") FROM orders WHERE " + exists;
    }
    case 3:
      return "SELECT XMLCAST(XMLQUERY('$o/order/custid' PASSING orddoc AS "
             "\"o\") AS INTEGER) FROM orders WHERE " +
             exists;
    case 4: {
      std::string row_pred;
      if (Pick(2)) {
        row_pred = "[@price " + std::string(kGeneralOps[Pick(6)]) + " " +
                   PriceLiteral() + "]";
      }
      std::string where;
      if (Pick(2)) {
        where = " WHERE t.price " + std::string(kGeneralOps[Pick(6)]) + " " +
                PriceLiteral();
      }
      return "SELECT o.ordid, t.price, t.pid FROM orders o, "
             "XMLTABLE('$d/order/lineitem" +
             row_pred +
             "' PASSING o.orddoc AS \"d\" COLUMNS "
             "\"n\" FOR ORDINALITY, "
             "\"price\" DOUBLE PATH '@price', "
             "\"pid\" VARCHAR(13) PATH 'product/id') AS t(n, price, pid)" +
             where;
    }
    case 6:
      // Query 13's string join: products hash-joined with the orders
      // (or probed, when prod_id exists) on `id eq $pid`.
      return "SELECT p.name, o.ordid FROM products p, orders o WHERE "
             "XMLEXISTS('$od//lineitem/product[id eq $pid]' PASSING "
             "o.orddoc AS \"od\", p.id AS \"pid\")" +
             (Pick(2) ? std::string(" AND o.ordid < ") +
                            std::to_string(Pick(70))
                      : std::string());
    case 7:
      // Query 15's SQL-side join: XMLCAST = XMLCAST, never index
      // eligible, hash-joined unless row-at-a-time.
      return "SELECT c.cid, o.ordid FROM orders o, customer c WHERE "
             "XMLCAST(XMLQUERY('$od/order/custid' PASSING o.orddoc AS "
             "\"od\") AS DOUBLE) = XMLCAST(XMLQUERY('$cd/customer/id' "
             "PASSING c.cdoc AS \"cd\") AS DOUBLE)";
    default:
      // The Tips 5/6 join shape: equality join between the two XML
      // columns, probe-able when an index exists on the inner path.
      return "SELECT c.cid, o.ordid FROM customer c, orders o WHERE "
             "XMLEXISTS('$od/order[custid/xs:double(.) = "
             "$cd/customer/id/xs:double(.)]' PASSING o.orddoc AS \"od\", "
             "c.cdoc AS \"cd\")" +
             (Pick(2) ? std::string(" AND c.cid < ") + std::to_string(Pick(12))
                      : std::string());
  }
}

GenQuery QueryGenerator::GenerateQuery() {
  GenQuery q;
  q.is_sql = Coin() < 0.55;
  q.text = q.is_sql ? GenerateSqlText() : GenerateXQueryText();
  return q;
}

std::vector<std::string> QueryGenerator::GenerateDml(
    const OrdersWorkloadConfig& workload) {
  std::vector<std::string> dml;
  // Always delete a band of rows: a cached plan must re-probe and drop the
  // tombstoned documents. Sometimes also delete through an XML predicate
  // (exercises index maintenance on EraseDocument) and insert a fresh
  // document (cached plans must pick it up).
  int cut = workload.num_orders / 2 + Pick(workload.num_orders / 2);
  dml.push_back("DELETE FROM orders WHERE ordid >= " + std::to_string(cut));
  if (Coin() < 0.4) {
    dml.push_back("DELETE FROM orders WHERE XMLEXISTS('$o/order[custid < " +
                  std::to_string(Pick(6)) + "]' PASSING orddoc AS \"o\")");
  }
  if (Coin() < 0.6) {
    OrdersWorkloadConfig insert_wl = workload;
    insert_wl.seed = workload.seed ^ 0xabcdefu;
    std::string doc = GenerateOrderXml(insert_wl, 7);
    dml.push_back("INSERT INTO orders VALUES (900001, '" + doc + "')");
  }
  return dml;
}

DiffScenario QueryGenerator::GenerateScenario(int num_queries) {
  DiffScenario s;
  s.workload = GenerateWorkload();
  s.ddl = GenerateDdl();
  for (int i = 0; i < num_queries; ++i) s.queries.push_back(GenerateQuery());
  s.dml = GenerateDml(s.workload);
  return s;
}

}  // namespace testing
}  // namespace xqdb
