// Unit test of the benchmark's own helpers: exact quantiles on known
// inputs, payload digests, and the response checker counting every kind of
// failure (a corrupted answer included). Run: python3 perfbench/run.py
// --self-test, or the perfbench_test binary directly. Exits 1 on failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_lib.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                             \
      ++failures;                                                \
    }                                                            \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantiles() {
  using perfbench::Quantile;
  // 1..100: position q*(n-1), interpolated.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  CHECK(Near(Quantile(hundred, 0.5), 50.5));
  CHECK(Near(Quantile(hundred, 0.95), 95.05));
  CHECK(Near(Quantile(hundred, 0.99), 99.01));
  CHECK(Near(Quantile(hundred, 0.0), 1));
  CHECK(Near(Quantile(hundred, 1.0), 100));
  // Odd count: the median is the middle sample.
  CHECK(Near(Quantile({7, 1, 3}, 0.5), 3));
  // Two samples: interpolation between them.
  CHECK(Near(Quantile({10, 20}, 0.25), 12.5));
  // Single sample, and the empty input.
  CHECK(Near(Quantile({4.25}, 0.99), 4.25));
  CHECK(Near(Quantile({}, 0.5), 0));
  // A value that is no power of two stays exact (no log2 bucket ceiling).
  CHECK(Near(Quantile({3.0, 3.0, 3.0, 1000.0}, 0.5), 3.0));
}

void TestDigest() {
  using perfbench::DigestPayload;
  const std::string sql = "ORDID | ORDDOC\n1 | <order/>\n2 | <order/>\n";
  CHECK(DigestPayload(sql, true).rows == 2);
  const std::string truncated = "A\n1\n2\n... (5000 rows total)\n";
  CHECK(DigestPayload(truncated, true).rows == 5000);
  const std::string xq = "<order>a</order>\n<order>b</order>\n";
  CHECK(DigestPayload(xq, false).rows == 2);
  CHECK(!(DigestPayload(xq, false) == DigestPayload(xq + "<x/>\n", false)));
  // Rows carrying the exclusion marker vanish from count and hash alike.
  const std::string mixed =
      "<order>a</order>\n"
      "<order><shipping-address>K1A</shipping-address></order>\n"
      "<order>b</order>\n";
  CHECK(DigestPayload(mixed, false, "<shipping-address>") ==
        DigestPayload(xq, false, "<shipping-address>"));
}

void TestCheckCountsFailures() {
  using perfbench::CheckResponse;
  using perfbench::Outcome;
  const std::string payload = "ORDID | ORDDOC\n7 | <order><a/></order>\n";
  const perfbench::Answer ref = perfbench::DigestPayload(payload, true);
  perfbench::Tally tally;

  xqdb::ResponseFrame good;
  good.ok = true;
  good.payload = payload;
  CHECK(tally.Record(CheckResponse(good, true, ref), "good"));

  xqdb::ResponseFrame corrupted = good;
  corrupted.payload[corrupted.payload.size() - 5] = 'b';  // <b/> not <a/>
  CHECK(CheckResponse(corrupted, true, ref) == Outcome::kWrongAnswer);
  CHECK(!tally.Record(CheckResponse(corrupted, true, ref), "corrupted"));

  xqdb::ResponseFrame dropped_row = good;
  dropped_row.payload = "ORDID | ORDDOC\n";
  CHECK(!tally.Record(CheckResponse(dropped_row, true, ref), "dropped"));

  xqdb::ResponseFrame err;
  err.ok = false;
  err.code = "Busy";
  CHECK(!tally.Record(CheckResponse(err, true, ref), "err"));

  xqdb::Result<xqdb::ResponseFrame> transport =
      xqdb::Status::Internal("connection reset");
  CHECK(!tally.Record(CheckResponse(transport, true, ref), "transport"));

  CHECK(tally.attempted == 5);
  CHECK(tally.wrong == 2);
  CHECK(tally.err_frames == 1);
  CHECK(tally.transport == 1);
  CHECK(tally.failed() == 4);
  CHECK(tally.first_error == "wrong answer: corrupted");
}

void TestZipf() {
  perfbench::ZipfSampler zipf(1024, 0.5);
  std::mt19937_64 rng(1);
  std::vector<int> hits(1024);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.Draw(rng)];
  CHECK(hits[0] > hits[100]);
  CHECK(hits[100] > 0 && hits[1023] > 0);
}

void TestSpans() {
  std::vector<perfbench::Span> spans = {
      {1, 1, 0, "wire.call", 0, 10000},
      {1, 2, 0, "engine.execute", 0, 6000},
      {1, 3, 2, "engine.parse", 0, 1000},
      {1, 4, 2, "engine.exec", 0, 4000},
  };
  auto sum = perfbench::SummarizeSpans(spans);
  CHECK(Near(sum["engine.execute"].mean_us, 6));
  CHECK(Near(sum["engine.execute"].self_us, 1));
  CHECK(Near(sum["wire.call"].self_us, 10));
  CHECK(Near(perfbench::MedianWireSelfUs(spans), 4));
}

}  // namespace

int main() {
  TestQuantiles();
  TestDigest();
  TestCheckCountsFailures();
  TestZipf();
  TestSpans();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
