// Building blocks of the xqdb benchmark driver that are worth testing on
// their own: exact quantiles over raw samples, answer digests and the
// response checker that feeds error_rate, the Zipf sampler, and the span
// model of the traced run.
#ifndef XQDB_PERFBENCH_BENCH_LIB_H_
#define XQDB_PERFBENCH_BENCH_LIB_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "server/protocol.h"

namespace perfbench {

/// Exact quantile of raw samples: linear interpolation between the two
/// closest ranks (the "R-7" definition: position q*(n-1) in sorted order).
/// `sorted` must be ascending and non-empty; q is clamped to [0, 1].
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Sorts a copy and returns QuantileSorted; 0 for an empty input.
double Quantile(std::vector<double> samples, double q);

/// FNV-1a, 64 bit.
uint64_t Fnv1a(std::string_view s, uint64_t h = 14695981039346656037ULL);

/// What a correct answer looks like: its row count and a content hash.
struct Answer {
  long long rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

/// Digest of an OK payload. SQL payloads start with a column-header line,
/// which is hashed but not counted; a "... (N rows total)" trailer counts
/// as N rows. Lines containing `exclude` (when non-empty) are skipped
/// entirely — probe_write uses this to drop rows its writer inserted.
Answer DigestPayload(std::string_view payload, bool is_sql,
                     std::string_view exclude = {});

/// The verdict on one request.
enum class Outcome { kOk, kErrFrame, kTransport, kWrongAnswer };

/// Classifies a Client::Call result against the reference answer.
Outcome CheckResponse(const xqdb::Result<xqdb::ResponseFrame>& frame,
                      bool is_sql, const Answer& expected,
                      std::string_view exclude = {});

/// Counts of attempted and failed requests (error_rate's numerator and
/// denominator). Not thread-safe; each client thread keeps its own and the
/// driver merges them.
struct Tally {
  long long attempted = 0;
  long long err_frames = 0;
  long long transport = 0;
  long long wrong = 0;
  std::string first_error;

  long long failed() const { return err_frames + transport + wrong; }
  /// Counts `outcome`; returns true when it is kOk.
  bool Record(Outcome outcome, const std::string& what);
  void Merge(const Tally& o);
};

/// Zipf(s) over ranks [0, n): P(k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One timed interval of the traced run. Spans of one sampled request
/// share `req`; `parent` is the id of the enclosing span (0 for a root).
struct Span {
  uint64_t req = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  long long start_ns = 0;  // relative to the start of the traced phase
  long long dur_ns = 0;
};

/// Per span name: how many, mean duration, and mean self time (duration
/// minus the durations of direct children).
struct SpanSummary {
  long long count = 0;
  double mean_us = 0;
  double self_us = 0;
};
std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans);

/// Median over requests of wire.call minus engine.execute: the time a
/// request spends outside the engine (framing, socket, session dispatch).
double MedianWireSelfUs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // XQDB_PERFBENCH_BENCH_LIB_H_
