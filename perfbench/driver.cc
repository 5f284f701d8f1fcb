// The xqdb benchmark driver: loads the paper workload into an in-process
// Database, serves it with server::Server on an ephemeral loopback port, and
// drives it over the wire from closed-loop client connections (one blocking
// Client::Call in flight per connection). Every answer is checked against an
// in-process reference computed at setup.
//
//   perfbench_driver --workload catalogue|probe|probe_write --seed N
//                    --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// untraced and then traced (spans for sampled requests, written to
// .bench_out/<workload>-seed<N>.spans.jsonl) and prints the per-layer
// metrics.
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// See perfbench/README.md for the workloads and the metric definitions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.h"
#include "common/atomic_file.h"
#include "common/epoch.h"
#include "core/database.h"
#include "core/planner.h"
#include "observability/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/sql_parser.h"
#include "storage/table.h"
#include "workload/generator.h"
#include "workload/paper_queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace {

using perfbench::Answer;
using perfbench::Outcome;
using perfbench::Span;
using perfbench::Tally;
using xqdb::Database;
using xqdb::ExecOptions;
using xqdb::ExecStats;
using xqdb::Status;

constexpr int kOrders = 4000;
constexpr int kSetupRepeats = 7;       // setup_s is the median of these
constexpr int kProbeWindows = 512;     // x {SQL, XQuery} = 1024 texts
constexpr double kWindowWidth = 2.0;   // price units per probe window
constexpr double kZipfExponent = 0.5;  // skew of the probe text popularity
constexpr int kSampleEvery = 4;        // traced phase: replay 1 request in N
constexpr int kExactProbeRequests = 1000;
constexpr int kWriterBaseId = 1000000;  // above every loaded order id
constexpr int kInsertsPerDelete = 32;
constexpr char kOutDir[] = ".bench_out";  // spans and exact counters
// Writer orders carry a shipping address (canadian_postal_fraction > 0);
// loaded orders never do, so this marks rows a reader may see only on
// probe_write and must drop before comparing with the reference.
constexpr char kWriterMarker[] = "<shipping-address>";

using Clock = std::chrono::steady_clock;

long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(long long t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Formats a double with enough digits to round-trip a measurement.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string SpanJson(const Span& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"req\": %llu, \"id\": %llu, \"parent\": %llu, "
                "\"name\": \"%s\", \"start_ns\": %lld, \"dur_ns\": %lld}",
                static_cast<unsigned long long>(s.req),
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                JsonEscape(s.name).c_str(), s.start_ns, s.dur_ns);
  return buf;
}

/// {"nproc": N, "compiler": "...", "build_type": "..."}.
std::string HostShapeJson() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + JsonEscape(compiler) +
         "\", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"}";
}

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

struct Args {
  std::string workload;
  unsigned seed = 42;
  double seconds = 10;
  bool trace = false;
};

struct WorkloadSpec {
  std::string name;
  int readers = 4;
  bool writer = false;
  bool catalogue = false;
};

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "catalogue") {
    *spec = {name, 4, false, true};
  } else if (name == "probe") {
    *spec = {name, 4, false, false};
  } else if (name == "probe_write") {
    *spec = {name, 3, true, false};
  } else {
    return false;
  }
  return true;
}

/// One read the clients may send, with the answer it must produce and the
/// counters its cold in-process reference execution reported.
struct ReadText {
  std::string name;
  bool is_sql = false;
  std::string text;
  Answer ref;
  ExecStats stats;
  long long result_rows = 0;
};

xqdb::OrdersWorkloadConfig LoadConfig(unsigned seed) {
  xqdb::OrdersWorkloadConfig config;
  config.num_orders = kOrders;
  config.seed = seed;
  return config;
}

/// The probe_write writer's orders: fresh documents with a few uncastable
/// <price> texts (tolerant index casts skip them) and a shipping address.
xqdb::OrdersWorkloadConfig WriterConfig(unsigned seed) {
  xqdb::OrdersWorkloadConfig config = LoadConfig(seed);
  config.string_price_fraction = 0.05;
  config.canadian_postal_fraction = 0.5;
  return config;
}

struct Loaded {
  std::unique_ptr<Database> db;
  double load_s = 0;
  double index_s = 0;
};

Status Load(const WorkloadSpec& spec, unsigned seed, Loaded* out) {
  out->db = std::make_unique<Database>();
  const long long t0 = NowNs();
  if (Status s = xqdb::LoadPaperWorkload(out->db.get(), LoadConfig(seed));
      !s.ok()) {
    return s;
  }
  out->load_s = SecondsSince(t0);
  const long long t1 = NowNs();
  std::vector<std::string> ddl = {
      "CREATE INDEX li_price ON orders(orddoc) "
      "USING XMLPATTERN '//lineitem/@price' AS SQL DOUBLE"};
  if (spec.writer) {
    ddl.push_back(
        "CREATE INDEX li_price_text ON orders(orddoc) "
        "USING XMLPATTERN '//lineitem/price' AS SQL DOUBLE");
  }
  for (const std::string& stmt : ddl) {
    if (auto rs = out->db->ExecuteSql(stmt); !rs.ok()) return rs.status();
  }
  out->index_s = SecondsSince(t1);
  return Status::OK();
}

std::vector<ReadText> CatalogueTexts() {
  std::vector<ReadText> texts;
  for (const xqdb::PaperQuery& q : xqdb::ServablePaperQueries()) {
    ReadText t;
    t.name = q.name;
    t.is_sql = q.is_sql;
    t.text = q.text;
    texts.push_back(std::move(t));
  }
  return texts;
}

/// 512 price windows [lo, lo + 2], each phrased once as SQL/XML and once
/// as a standalone XQuery — both index-eligible (Definition 1). Window w
/// starts at a seeded point of the w-th of 512 equal strata of the price
/// range, so every seed covers the range evenly and selects about as many
/// documents in total.
std::vector<ReadText> ProbeTexts(unsigned seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  constexpr double kFirst = 1.0, kLast = 998.0 - kWindowWidth;
  constexpr double kStratum = (kLast - kFirst) / kProbeWindows;
  std::vector<ReadText> texts;
  for (int w = 0; w < kProbeWindows; ++w) {
    const double lo = kFirst + (w + jitter(rng)) * kStratum;
    char bounds[96];
    std::snprintf(bounds, sizeof(bounds), "@price > %.2f and @price < %.2f",
                  lo, lo + kWindowWidth);
    ReadText sql;
    sql.name = "probe" + std::to_string(w) + ".sql";
    sql.is_sql = true;
    sql.text = std::string("SELECT ordid, orddoc FROM orders WHERE XMLEXISTS("
                           "'$o//lineitem[") +
               bounds + "]' passing orddoc as \"o\")";
    ReadText xq;
    xq.name = "probe" + std::to_string(w) + ".xquery";
    xq.is_sql = false;
    xq.text = std::string("db2-fn:xmlcolumn('ORDERS.ORDDOC')") +
              "//order[lineitem[" + bounds + "]]";
    texts.push_back(std::move(sql));
    texts.push_back(std::move(xq));
  }
  return texts;
}

/// Renders a result exactly as the server's QUERY / XQUERY verbs do, so an
/// in-process reference and a wire payload can be compared byte for byte.
std::string RenderSqlPayload(const xqdb::ResultSet& rs) {
  return rs.ToString(1000);  // what Server::Dispatch sends for QUERY
}

std::string RenderXQueryPayload(const std::vector<std::string>& rows) {
  std::string text;
  for (const std::string& row : rows) {
    text += row;
    text += '\n';
  }
  return text;
}

xqdb::Verb VerbFor(const ReadText& t) {
  return t.is_sql ? xqdb::Verb::kQuery : xqdb::Verb::kXQuery;
}

/// Cold (uncached) in-process execution rendered exactly like the server.
/// Returns the payload; `stats` and `rows` receive the counters.
xqdb::Result<std::string> ExecuteCold(Database* db, const ReadText& t,
                                      ExecStats* stats, long long* rows) {
  ExecOptions cold;
  cold.disable_cache = true;
  if (t.is_sql) {
    auto rs = db->ExecuteSql(t.text, cold);
    if (!rs.ok()) return rs.status();
    *stats = rs->stats;
    *rows = static_cast<long long>(rs->rows.size());
    return RenderSqlPayload(*rs);
  }
  auto out = db->ExecuteXQuery(t.text, cold);
  if (!out.ok()) return out.status();
  *stats = out->stats;
  *rows = static_cast<long long>(out->rows.size());
  return RenderXQueryPayload(out->rows);
}

/// Computes every reference answer, on `threads` threads. Probe references
/// must come from an index probe: a window that scans documents fails.
Status ComputeReferences(Database* db, bool probe, int threads,
                         std::vector<ReadText>* texts) {
  std::atomic<size_t> next{0};
  std::vector<Status> errors(texts->size(), Status::OK());
  auto work = [&] {
    for (size_t i = next++; i < texts->size(); i = next++) {
      ReadText& t = (*texts)[i];
      auto payload = ExecuteCold(db, t, &t.stats, &t.result_rows);
      if (!payload.ok()) {
        errors[i] =
            Status::Internal(t.name + ": " + payload.status().ToString());
      } else if (probe && t.stats.docs_scanned != 0) {
        errors[i] = Status::Internal(
            t.name + " scanned " + std::to_string(t.stats.docs_scanned) +
            " documents instead of probing the index");
      } else {
        t.ref = perfbench::DigestPayload(*payload, t.is_sql, kWriterMarker);
      }
    }
  };
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) pool.emplace_back(work);
  work();
  for (std::thread& th : pool) th.join();
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

/// Everything the client threads share for one run.
struct Context {
  Database* db = nullptr;
  uint16_t port = 0;
  WorkloadSpec spec;
  unsigned seed = 0;
  std::vector<ReadText> texts;
  std::unique_ptr<perfbench::ZipfSampler> zipf;
  std::vector<size_t> rank_to_text;  // Zipf rank -> index into texts
  std::string exclude;               // writer marker on probe_write
};

/// Per-thread results of one timed phase.
struct ThreadOut {
  std::vector<double> read_ms;
  std::map<std::string, std::vector<double>> catalogue_ms;  // by query
  std::vector<double> write_ms;
  Tally tally;
  long long reads_ok = 0;
  double read_bytes = 0;
  long long end_ns = 0;
  std::vector<Span> spans;
};

/// The traced phase's span sink: ids are process-unique, timestamps are
/// relative to the phase start.
struct Tracer {
  long long base_ns = 0;
  std::atomic<uint64_t> next_id{1};
  uint64_t Id() { return next_id++; }
};

void AddSpan(Tracer* tr, std::vector<Span>* out, uint64_t req, uint64_t id,
             uint64_t parent, const char* name, long long start_ns,
             long long dur_ns) {
  Span s;
  s.req = req;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns - tr->base_ns;
  s.dur_ns = dur_ns;
  out->push_back(std::move(s));
}

/// Records the spans of one sampled read: the wire round trip just made,
/// an in-process cold replay of the same text (with parse/plan/exec
/// children from its ExecStats), a separate serialization of its result,
/// and the parser and planner timed directly.
void TraceRead(Database* db, const ReadText& t, long long t0, long long t1,
               Tracer* tr, std::vector<Span>* out) {
  const uint64_t req = tr->Id();
  AddSpan(tr, out, req, req, 0, "wire.call", t0, t1 - t0);

  ExecOptions cold;
  cold.disable_cache = true;
  ExecStats st;
  long long s0 = NowNs(), s1 = 0, ser = 0;
  if (t.is_sql) {
    auto rs = db->ExecuteSql(t.text, cold);
    if (!rs.ok()) return;
    std::string payload = RenderSqlPayload(*rs);
    s1 = NowNs();
    st = rs->stats;
    const long long z0 = NowNs();
    payload = rs->ToString(1000);
    ser = NowNs() - z0;
  } else {
    auto res = db->ExecuteXQuery(t.text, cold);
    if (!res.ok()) return;
    std::string payload = RenderXQueryPayload(res->rows);
    s1 = NowNs();
    st = res->stats;
    const long long z0 = NowNs();
    for (const xqdb::Item& item : res->items) {
      if (item.is_node()) xqdb::SerializeXml(item.node());
    }
    ser = NowNs() - z0;
  }
  const uint64_t exec_id = tr->Id();
  AddSpan(tr, out, req, exec_id, 0, "engine.execute", s0, s1 - s0);
  AddSpan(tr, out, req, tr->Id(), exec_id, "engine.parse", s0, st.parse_ns);
  AddSpan(tr, out, req, tr->Id(), exec_id, "engine.plan", s0 + st.parse_ns,
          st.plan_ns);
  AddSpan(tr, out, req, tr->Id(), exec_id, "engine.exec",
          s0 + st.parse_ns + st.plan_ns, st.exec_ns);
  AddSpan(tr, out, req, tr->Id(), 0, "xml.serialize", s1, ser);

  xqdb::Planner planner(&db->catalog());
  const long long p0 = NowNs();
  if (t.is_sql) {
    auto stmt = xqdb::ParseSql(t.text);
    const long long p1 = NowNs();
    AddSpan(tr, out, req, tr->Id(), 0, "sql.parse", p0, p1 - p0);
    if (stmt.ok() && stmt->select) {
      auto plan = planner.PlanSelect(*stmt->select);
      AddSpan(tr, out, req, tr->Id(), 0, "core.planner", p1, NowNs() - p1);
    }
  } else {
    auto parsed = xqdb::ParseXQuery(t.text);
    const long long p1 = NowNs();
    AddSpan(tr, out, req, tr->Id(), 0, "xquery.parse", p0, p1 - p0);
    if (parsed.ok()) {
      auto plan = planner.PlanXQuery(*parsed->body);
      AddSpan(tr, out, req, tr->Id(), 0, "core.planner", p1, NowNs() - p1);
    }
  }
}

/// One closed-loop reader connection. catalogue connections walk the whole
/// query list from their own offset (the connection number) and stop at a
/// pass boundary once the deadline has passed; probe connections draw
/// Zipf-skewed texts and stop at the first request after the deadline.
void ReaderLoop(Context* ctx, int conn, unsigned salt, long long deadline_ns,
                Tracer* tracer, ThreadOut* out) {
  xqdb::Client client;
  if (Status s = client.Connect(ctx->port); !s.ok()) {
    out->tally.Record(Outcome::kTransport, "connect: " + s.ToString());
    out->end_ns = NowNs();
    return;
  }
  std::mt19937_64 rng(ctx->seed * 1000003ULL + salt * 7919ULL +
                      static_cast<unsigned>(conn));
  const size_t n = ctx->texts.size();
  // Neighbouring offsets (as bench_serve uses): the connections work on
  // adjacent queries, so which queries overlap is the same from run to run
  // and the catalogue's timings repeat.
  const size_t offset = static_cast<size_t>(conn);
  long long seq = 0;
  for (size_t step = 0;; ++step) {
    if (ctx->spec.catalogue) {
      if (step % n == 0 && step > 0 && NowNs() >= deadline_ns) break;
    } else if (NowNs() >= deadline_ns) {
      break;
    }
    const ReadText& t =
        ctx->spec.catalogue
            ? ctx->texts[(step + offset) % n]
            : ctx->texts[ctx->rank_to_text[ctx->zipf->Draw(rng)]];
    const long long t0 = NowNs();
    auto frame = client.Call(VerbFor(t), t.text);
    const long long t1 = NowNs();
    const Outcome outcome =
        perfbench::CheckResponse(frame, t.is_sql, t.ref, ctx->exclude);
    if (out->tally.Record(outcome, t.name)) {
      ++out->reads_ok;
      out->read_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (ctx->spec.catalogue) {
        out->catalogue_ms[t.name].push_back(out->read_ms.back());
      }
      out->read_bytes += static_cast<double>(frame->payload.size());
    }
    if (outcome == Outcome::kTransport) break;
    if (tracer != nullptr && seq++ % kSampleEvery == 0) {
      TraceRead(ctx->db, t, t0, t1, tracer, &out->spans);
    }
  }
  out->end_ns = NowNs();
}

/// probe_write's writer connection: INSERTs fresh orders above the loaded
/// id range and DELETEs that range every kInsertsPerDelete inserts. In the
/// traced phase every kSampleEvery-th statement runs in-process instead,
/// timed as a storage.insert / storage.delete span.
void WriterLoop(Context* ctx, long long deadline_ns, int* next_id,
                Tracer* tracer, ThreadOut* out) {
  xqdb::Client client;
  if (Status s = client.Connect(ctx->port); !s.ok()) {
    out->tally.Record(Outcome::kTransport, "writer connect: " + s.ToString());
    return;
  }
  const xqdb::OrdersWorkloadConfig config = WriterConfig(ctx->seed);
  const std::string del =
      "DELETE FROM orders WHERE ordid >= " + std::to_string(kWriterBaseId);
  int since_delete = 0;
  long long seq = 0;
  while (NowNs() < deadline_ns) {
    const bool is_delete = since_delete == kInsertsPerDelete;
    std::string sql;
    if (is_delete) {
      sql = del;
      since_delete = 0;
    } else {
      sql = "INSERT INTO orders VALUES (" + std::to_string(*next_id) + ", '" +
            xqdb::GenerateOrderXml(config, *next_id) + "')";
      ++*next_id;
      ++since_delete;
    }
    if (tracer != nullptr && seq++ % kSampleEvery == 0) {
      const long long s0 = NowNs();
      auto rs = ctx->db->ExecuteSql(sql);
      const long long s1 = NowNs();
      out->tally.Record(rs.ok() ? Outcome::kOk : Outcome::kErrFrame,
                        "in-process write");
      const uint64_t id = tracer->Id();
      AddSpan(tracer, &out->spans, id, id, 0,
              is_delete ? "storage.delete" : "storage.insert", s0, s1 - s0);
      continue;
    }
    const long long t0 = NowNs();
    auto frame = client.Call(xqdb::Verb::kQuery, sql);
    const long long t1 = NowNs();
    const Outcome outcome = !frame.ok()   ? Outcome::kTransport
                            : !frame->ok ? Outcome::kErrFrame
                                         : Outcome::kOk;
    if (out->tally.Record(outcome, is_delete ? "DELETE" : "INSERT")) {
      out->write_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    if (outcome == Outcome::kTransport) break;
  }
}

/// The merged result of one timed phase.
struct PhaseResult {
  std::vector<double> read_ms;  // sorted
  std::map<std::string, std::vector<double>> catalogue_ms;
  std::vector<double> write_ms;  // sorted
  Tally tally;
  long long reads_ok = 0;
  double read_bytes = 0;
  double elapsed_s = 0;
  double throughput = 0;  // sum over connections of reads_ok / busy time
  std::vector<Span> spans;
  std::vector<double> epoch_lag;
  xqdb::QueryCache::Stats cache_before, cache_after;
  long long frames = 0;
  long long frame_ns = 0;
  long long cast_skips = 0;

  double qps() const { return throughput; }
};

double Q(const std::vector<double>& sorted, double q) {
  return sorted.empty() ? 0 : perfbench::QuantileSorted(sorted, q);
}

long long CastSkips(Database* db) {
  auto table = db->catalog().GetTable("ORDERS");
  if (!table.ok()) return 0;
  long long total = 0;
  for (const xqdb::XmlIndex* index : (*table)->indexes().AllXmlIndexes()) {
    total += static_cast<long long>(index->cast_skip_count());
  }
  return total;
}

PhaseResult RunPhase(Context* ctx, double seconds, unsigned salt, bool traced,
                     bool sample_epochs, int* writer_next_id) {
  PhaseResult r;
  xqdb::Histogram* frame_hist =
      xqdb::MetricsRegistry::Global().GetHistogram("server.query_ns");
  const long long frames0 = frame_hist->count();
  const long long frame_ns0 = frame_hist->sum();
  const long long skips0 = CastSkips(ctx->db);
  r.cache_before = ctx->db->query_cache_stats();

  Tracer tracer;
  const long long start = NowNs();
  tracer.base_ns = start;
  const long long deadline = start + static_cast<long long>(seconds * 1e9);
  const int readers = ctx->spec.readers;
  std::vector<ThreadOut> outs(static_cast<size_t>(readers) + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back(ReaderLoop, ctx, c, salt, deadline,
                         traced ? &tracer : nullptr,
                         &outs[static_cast<size_t>(c)]);
  }
  std::thread writer;
  if (ctx->spec.writer) {
    writer = std::thread(WriterLoop, ctx, deadline, writer_next_id,
                         traced ? &tracer : nullptr, &outs.back());
  }
  std::atomic<bool> readers_done{false};
  std::thread sampler;
  if (sample_epochs) {
    sampler = std::thread([&] {
      xqdb::EpochManager& em = ctx->db->epoch_manager();
      while (!readers_done.load()) {
        const uint64_t cur = em.current();
        const uint64_t oldest = em.OldestPinned();
        r.epoch_lag.push_back(
            oldest >= cur ? 0.0 : static_cast<double>(cur - oldest));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  readers_done.store(true);
  if (writer.joinable()) writer.join();
  if (sampler.joinable()) sampler.join();

  // Each closed-loop connection completes reads at its own rate; summing
  // the rates keeps the last straggler of a catalogue pass from idling the
  // others into the measurement.
  long long end = start;
  for (int c = 0; c < readers; ++c) {
    const ThreadOut& o = outs[static_cast<size_t>(c)];
    end = std::max(end, o.end_ns);
    if (o.end_ns > start) {
      r.throughput += static_cast<double>(o.reads_ok) /
                      (static_cast<double>(o.end_ns - start) / 1e9);
    }
  }
  r.elapsed_s = static_cast<double>(end - start) / 1e9;
  for (ThreadOut& o : outs) {
    r.read_ms.insert(r.read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    for (const auto& [name, ms] : o.catalogue_ms) {
      auto& all = r.catalogue_ms[name];
      all.insert(all.end(), ms.begin(), ms.end());
    }
    r.write_ms.insert(r.write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    r.tally.Merge(o.tally);
    r.reads_ok += o.reads_ok;
    r.read_bytes += o.read_bytes;
    r.spans.insert(r.spans.end(), o.spans.begin(), o.spans.end());
  }
  std::sort(r.read_ms.begin(), r.read_ms.end());
  std::sort(r.write_ms.begin(), r.write_ms.end());
  r.cache_after = ctx->db->query_cache_stats();
  r.frames = frame_hist->count() - frames0;
  r.frame_ns = frame_hist->sum() - frame_ns0;
  r.cast_skips = CastSkips(ctx->db) - skips0;
  return r;
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (values_.find(name) == values_.end()) order_.push_back(name);
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
      const auto& [value, unit] = values_.at(order_[i]);
      if (i > 0) out += ", ";
      out += "\"" + order_[i] + "\": {\"value\": " + Num(value) +
             ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Microseconds per KiB for ParseXml over generated order documents.
double XmlParseUsPerKb(unsigned seed) {
  const xqdb::OrdersWorkloadConfig config = WriterConfig(seed);
  std::vector<std::string> docs;
  size_t bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    docs.push_back(xqdb::GenerateOrderXml(config, kWriterBaseId + i));
    bytes += docs.back().size();
  }
  const long long t0 = NowNs();
  for (const std::string& d : docs) {
    auto doc = xqdb::ParseXml(d);
    if (!doc.ok()) return 0;
  }
  const double us = static_cast<double>(NowNs() - t0) / 1e3;
  return us / (static_cast<double>(bytes) / 1024.0);
}

/// Exact counters of the single-connection replay, keyed by metric name.
using ExactCounters = std::map<std::string, long long>;

/// Sends a fixed request sequence over one connection (the catalogue once,
/// or the first kExactProbeRequests draws of a fixed stream) and returns
/// its exact counters: cache counts observed by the server, and access
/// counters summed from the reference executions of the texts sent.
ExactCounters ExactReplay(Context* ctx, Tally* tally,
                          std::map<std::string, long long>* sums) {
  ExactCounters exact;
  xqdb::Client client;
  if (Status s = client.Connect(ctx->port); !s.ok()) {
    tally->Record(Outcome::kTransport, "exact replay connect");
    return exact;
  }
  std::vector<size_t> sequence;
  if (ctx->spec.catalogue) {
    for (size_t i = 0; i < ctx->texts.size(); ++i) sequence.push_back(i);
  } else {
    std::mt19937_64 rng(ctx->seed * 31ULL + 5);
    for (int i = 0; i < kExactProbeRequests; ++i) {
      sequence.push_back(ctx->rank_to_text[ctx->zipf->Draw(rng)]);
    }
  }
  const xqdb::QueryCache::Stats before = ctx->db->query_cache_stats();
  for (size_t i : sequence) {
    const ReadText& t = ctx->texts[i];
    auto frame = client.Call(VerbFor(t), t.text);
    tally->Record(
        perfbench::CheckResponse(frame, t.is_sql, t.ref, ctx->exclude),
        "exact replay " + t.name);
    const ExecStats& st = t.stats;
    (*sums)["queries"] += 1;
    (*sums)["rows_scanned"] += st.rows_scanned;
    (*sums)["rows_filtered"] += st.rows_filtered;
    (*sums)["batch_rows"] += st.batch_rows;
    (*sums)["xquery_evals"] += st.xquery_evals;
    (*sums)["structural_join_emitted"] += st.structural_join_emitted;
    (*sums)["intervals_compared"] += st.intervals_compared;
    (*sums)["pool_tasks"] += st.pool_tasks;
    (*sums)["index_docs_returned"] += st.index_docs_returned;
    if (st.index_docs_returned > 0) {
      (*sums)["indexed_result_rows"] += t.result_rows;
    }
    exact["index.entries_probed"] += st.index_entries_probed;
    exact["index.docs_scanned"] += st.docs_scanned;
    if (ctx->spec.catalogue) {
      for (const char* q : {"Q4", "Q13", "Q15", "Q16"}) {
        if (t.name == q) {
          exact[std::string("exec.rows_scanned.") + q] = st.rows_scanned;
        }
      }
    }
  }
  const xqdb::QueryCache::Stats after = ctx->db->query_cache_stats();
  exact["exact.cache_hits"] = after.hits - before.hits;
  exact["exact.cache_misses"] = after.misses - before.misses;
  exact["exact.cache_evictions"] = after.evictions - before.evictions;
  return exact;
}

/// Compares `now` with the counters an earlier traced run at the same seed
/// stored in `path`, prints a FLAG line per difference, and stores `now`.
/// Returns {compared (0/1), mismatches}.
std::pair<int, int> CheckExactRepeat(const std::string& path,
                                     const ExactCounters& now) {
  std::pair<int, int> result{0, 0};
  std::ifstream in(path);
  if (in) {
    result.first = 1;
    ExactCounters before;
    std::string name;
    long long value = 0;
    while (in >> name >> value) before[name] = value;
    for (const auto& [key, v] : now) {
      auto it = before.find(key);
      if (it == before.end() || it->second != v) {
        ++result.second;
        std::printf("FLAG exact counter %s differs from the previous traced "
                    "run at this seed: %s now %lld\n",
                    key.c_str(),
                    it == before.end() ? "absent"
                                       : std::to_string(it->second).c_str(),
                    v);
      }
    }
  }
  std::string text;
  for (const auto& [key, v] : now) text += key + " " + std::to_string(v) + "\n";
  if (Status s = xqdb::WriteFileAtomic(path, text); !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
  }
  return result;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload catalogue|probe|probe_write"
               " --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed =
          static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (argc % 2 == 0 || !LookupWorkload(args.workload, &spec) ||
      args.seconds <= 0) {
    return Usage();
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  spec.readers = std::min(spec.readers, nproc - (spec.writer ? 1 : 0));
  spec.readers = std::max(spec.readers, 1);
  std::printf("host: %s\n", HostShapeJson().c_str());

  // -- Setup: load + index, several times; keep the last database. --------
  std::vector<double> setup_s, load_s, index_s;
  Loaded loaded;
  for (int i = 0; i < kSetupRepeats; ++i) {
    loaded.db.reset();
    const long long t0 = NowNs();
    if (Status s = Load(spec, args.seed, &loaded); !s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    load_s.push_back(loaded.load_s);
    index_s.push_back(loaded.index_s);
  }
  Database* db = loaded.db.get();

  Context ctx;
  ctx.db = db;
  ctx.spec = spec;
  ctx.seed = args.seed;
  ctx.exclude = spec.writer ? kWriterMarker : "";
  ctx.texts = spec.catalogue ? CatalogueTexts() : ProbeTexts(args.seed);
  if (!spec.catalogue) {
    ctx.zipf = std::make_unique<perfbench::ZipfSampler>(ctx.texts.size(),
                                                        kZipfExponent);
    ctx.rank_to_text.resize(ctx.texts.size());
    for (size_t i = 0; i < ctx.texts.size(); ++i) ctx.rank_to_text[i] = i;
    std::mt19937_64 perm(args.seed * 131ULL + 3);
    std::shuffle(ctx.rank_to_text.begin(), ctx.rank_to_text.end(), perm);
  }
  // Traced runs compute the references serially so their counters and
  // timings are uncontended (catalogue.<Q>.exec_ms, pool.tasks_per_query).
  const long long ref0 = NowNs();
  if (Status s = ComputeReferences(db, !spec.catalogue,
                                   args.trace ? 1 : nproc, &ctx.texts);
      !s.ok()) {
    std::fprintf(stderr, "reference computation failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("references: %zu texts in %.3f s\n", ctx.texts.size(),
              SecondsSince(ref0));

  xqdb::ServerOptions options;
  options.max_sessions = spec.readers + 4;
  options.worker_threads = spec.readers + 3;
  xqdb::Server server(db, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ctx.port = server.port();

  Tally tally;
  ExactCounters exact;
  std::map<std::string, long long> sums;
  if (args.trace) exact = ExactReplay(&ctx, &tally, &sums);
  int writer_next_id = kWriterBaseId;
  // probe warm-up: one second whose answers are checked and timings
  // discarded (a catalogue pass has nothing to warm beyond its first query).
  if (!spec.catalogue) {
    tally.Merge(RunPhase(&ctx, 1.0, 3, false, false, &writer_next_id).tally);
  }
  // A traced run splits its time between the untraced and traced phases,
  // so it costs about as much as an untraced run.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult timed = RunPhase(&ctx, phase_s, 1, false, args.trace,
                               &writer_next_id);
  tally.Merge(timed.tally);
  PhaseResult traced;
  if (args.trace) {
    traced = RunPhase(&ctx, phase_s, 2, true, false, &writer_next_id);
    tally.Merge(traced.tally);
  }
  server.Stop();

  const double error_rate = Ratio(static_cast<double>(tally.failed()),
                                  static_cast<double>(tally.attempted));
  bool correct = tally.failed() == 0 && timed.reads_ok > 0;
  if (!tally.first_error.empty()) {
    std::printf("first error: %s\n", tally.first_error.c_str());
  }

  // Every end-to-end metric the workload defines, with sample counts; the
  // final JSON line carries the subset BENCHMARK.json gates.
  std::printf(
      "report: {\"workload\": \"%s\", \"seed\": %u, \"connections\": %d, "
      "\"writer\": %s, \"setup_s\": %s, \"throughput_qps\": %s, "
      "\"query_p50_ms\": %s, \"query_p95_ms\": %s, \"query_p99_ms\": %s, "
      "\"query_samples\": %zu, \"write_p50_ms\": %s, \"write_p99_ms\": %s, "
      "\"write_samples\": %zu, \"error_rate\": %s, \"attempted\": %lld, "
      "\"failed\": %lld, \"peak_rss_mb\": %s, \"elapsed_s\": %s}\n",
      spec.name.c_str(), args.seed, spec.readers + (spec.writer ? 1 : 0),
      spec.writer ? "true" : "false",
      Num(perfbench::Quantile(setup_s, 0.5)).c_str(),
      Num(timed.qps()).c_str(), Num(Q(timed.read_ms, 0.5)).c_str(),
      Num(Q(timed.read_ms, 0.95)).c_str(), Num(Q(timed.read_ms, 0.99)).c_str(),
      timed.read_ms.size(), Num(Q(timed.write_ms, 0.5)).c_str(),
      Num(Q(timed.write_ms, 0.99)).c_str(), timed.write_ms.size(),
      Num(error_rate).c_str(), tally.attempted, tally.failed(),
      Num(PeakRssMb()).c_str(), Num(timed.elapsed_s).c_str());

  if (spec.catalogue) {
    std::string line;
    for (const auto& [name, ms] : timed.catalogue_ms) {
      line += (line.empty() ? "" : ", ") + ("\"" + name + "\": ") +
              Num(perfbench::Quantile(ms, 0.5));
    }
    std::printf("catalogue median latency ms: {%s}\n", line.c_str());
  }

  Metrics m;
  if (!args.trace) {
    m.Set("setup_s", perfbench::Quantile(setup_s, 0.5), "s");
    m.Set("throughput_qps", timed.qps(), "1/s");
    m.Set("query_p50_ms", Q(timed.read_ms, 0.5), "ms");
    m.Set("query_p95_ms", Q(timed.read_ms, 0.95), "ms");
    m.Set("query_p99_ms", Q(timed.read_ms, 0.99), "ms");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // -- Per-layer metrics. Counters and registry deltas come from the
    // untraced phase (the workload as measured); span-derived times from
    // the traced phase. --------------------------------------------------
    const auto spans = perfbench::SummarizeSpans(traced.spans);
    auto span_mean = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.mean_us;
    };
    auto span_self = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.self_us;
    };
    m.Set("server.frame_us",
          Ratio(static_cast<double>(timed.frame_ns) / 1e3,
                static_cast<double>(timed.frames)),
          "us");
    m.Set("server.wire_us", perfbench::MedianWireSelfUs(traced.spans), "us");
    m.Set("server.response_bytes",
          Ratio(timed.read_bytes, static_cast<double>(timed.reads_ok)),
          "bytes");
    const double lookups = static_cast<double>(
        (timed.cache_after.hits + timed.cache_after.misses) -
        (timed.cache_before.hits + timed.cache_before.misses));
    m.Set("core.cache_hit_ratio",
          Ratio(static_cast<double>(timed.cache_after.hits -
                                    timed.cache_before.hits),
                lookups),
          "ratio");
    m.Set("core.cache_lookups", lookups, "count");
    m.Set("core.cache_evictions",
          static_cast<double>(timed.cache_after.evictions -
                              timed.cache_before.evictions),
          "count");
    m.Set("core.parse_us", span_mean("engine.parse"), "us");
    m.Set("core.plan_us", span_mean("engine.plan"), "us");
    m.Set("core.exec_us", span_mean("engine.exec"), "us");
    m.Set("core.engine_self_us", span_self("engine.execute"), "us");
    m.Set("core.planner_us", span_mean("core.planner"), "us");
    m.Set("sql.parse_us", span_mean("sql.parse"), "us");
    m.Set("xquery.parse_us", span_mean("xquery.parse"), "us");
    // Uncontended cold execution of each catalogue query (the serial
    // references); 0 on workloads that do not run the catalogue.
    const std::vector<xqdb::PaperQuery>& paper = xqdb::ServablePaperQueries();
    for (size_t i = 0; i < paper.size(); ++i) {
      const double ms =
          spec.catalogue ? static_cast<double>(ctx.texts[i].stats.exec_ns) / 1e6
                         : 0;
      m.Set(std::string("catalogue.") + paper[i].name + ".exec_ms", ms, "ms");
    }
    for (const char* q : {"Q4", "Q13", "Q15", "Q16"}) {
      const std::string name = std::string("exec.rows_scanned.") + q;
      m.Set(name, static_cast<double>(exact.count(name) ? exact[name] : 0),
            "count");
    }
    const double queries = static_cast<double>(sums["queries"]);
    m.Set("exec.rows_filtered_ratio",
          Ratio(static_cast<double>(sums["rows_filtered"]),
                static_cast<double>(sums["rows_scanned"])),
          "ratio");
    m.Set("exec.batch_rows_share",
          Ratio(static_cast<double>(sums["batch_rows"]),
                static_cast<double>(sums["rows_scanned"])),
          "ratio");
    m.Set("xquery.evals",
          Ratio(static_cast<double>(sums["xquery_evals"]), queries),
          "count/query");
    m.Set("xquery.structural_join_emitted",
          Ratio(static_cast<double>(sums["structural_join_emitted"]), queries),
          "count/query");
    m.Set("xquery.intervals_compared",
          Ratio(static_cast<double>(sums["intervals_compared"]), queries),
          "count/query");
    m.Set("index.entries_probed",
          static_cast<double>(exact["index.entries_probed"]), "count");
    m.Set("index.docs_scanned",
          static_cast<double>(exact["index.docs_scanned"]), "count");
    m.Set("index.prefilter_precision",
          Ratio(static_cast<double>(sums["indexed_result_rows"]),
                static_cast<double>(sums["index_docs_returned"])),
          "ratio");
    m.Set("index.cast_skips", static_cast<double>(timed.cast_skips), "count");
    m.Set("xml.parse_us_per_kb", XmlParseUsPerKb(args.seed), "us/KB");
    m.Set("xml.serialize_us", span_mean("xml.serialize"), "us");
    m.Set("storage.insert_us", span_mean("storage.insert"), "us");
    m.Set("storage.delete_us", span_mean("storage.delete"), "us");
    m.Set("storage.epoch_lag", perfbench::Quantile(timed.epoch_lag, 0.5),
          "epochs");
    m.Set("storage.epoch_lag_max",
          timed.epoch_lag.empty()
              ? 0
              : *std::max_element(timed.epoch_lag.begin(),
                                  timed.epoch_lag.end()),
          "epochs");
    m.Set("write.p50_ms", Q(timed.write_ms, 0.5), "ms");
    m.Set("write.p99_ms", Q(timed.write_ms, 0.99), "ms");
    m.Set("write.samples", static_cast<double>(timed.write_ms.size()), "count");
    m.Set("pool.tasks_per_query",
          Ratio(static_cast<double>(sums["pool_tasks"]), queries),
          "count/query");
    m.Set("setup.load_s", perfbench::Quantile(load_s, 0.5), "s");
    m.Set("setup.index_build_s", perfbench::Quantile(index_s, 0.5), "s");
    m.Set("trace.untraced_qps", timed.qps(), "1/s");
    m.Set("trace.traced_qps", traced.qps(), "1/s");
    m.Set("trace.overhead_pct",
          timed.qps() > 0 ? (1.0 - traced.qps() / timed.qps()) * 100.0 : 0,
          "%");
    m.Set("trace.spans", static_cast<double>(traced.spans.size()), "count");
    m.Set("exact.cache_hits", static_cast<double>(exact["exact.cache_hits"]),
          "count");
    m.Set("exact.cache_misses",
          static_cast<double>(exact["exact.cache_misses"]), "count");
    m.Set("exact.cache_evictions",
          static_cast<double>(exact["exact.cache_evictions"]), "count");

    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
    const std::string stem =
        std::string(kOutDir) + "/" + spec.name + "-seed" +
        std::to_string(args.seed);
    const auto [compared, mismatches] =
        CheckExactRepeat(stem + ".exact.txt", exact);
    m.Set("exact.compared", compared, "count");
    m.Set("exact.mismatches", mismatches, "count");
    m.Set("read.samples", static_cast<double>(timed.read_ms.size()), "count");
    m.Set("error_rate", error_rate, "ratio");

    std::string lines;
    for (const Span& s : traced.spans) lines += SpanJson(s) + "\n";
    if (Status s = xqdb::WriteFileAtomic(stem + ".spans.jsonl", lines);
        !s.ok()) {
      std::fprintf(stderr, "cannot write spans: %s\n", s.ToString().c_str());
      correct = false;
    }
    for (const auto& [name, sum] : spans) {
      std::printf("span %-16s n=%lld mean_us=%s self_us=%s\n", name.c_str(),
                  sum.count, Num(sum.mean_us).c_str(),
                  Num(sum.self_us).c_str());
    }
    std::printf("tracing overhead: untraced %s qps, traced %s qps (%s%%), "
                "1 request in %d replayed\n",
                Num(timed.qps()).c_str(), Num(traced.qps()).c_str(),
                Num(timed.qps() > 0 ? (1.0 - traced.qps() / timed.qps()) * 100
                                   : 0)
                    .c_str(),
                kSampleEvery);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed(),
              m.Json().c_str());
  return 0;
}
