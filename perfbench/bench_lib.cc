#include "bench_lib.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return QuantileSorted(samples, q);
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Answer DigestPayload(std::string_view payload, bool is_sql,
                     std::string_view exclude) {
  Answer a;
  a.hash = Fnv1a("");
  bool header = is_sql;
  constexpr std::string_view kTrailer = "... (";
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) nl = payload.size();
    const std::string_view line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    if (!exclude.empty() && line.find(exclude) != std::string_view::npos) {
      continue;
    }
    a.hash = Fnv1a(line, a.hash);
    a.hash = Fnv1a("\n", a.hash);
    if (header) {
      header = false;
    } else if (is_sql && line.substr(0, kTrailer.size()) == kTrailer) {
      a.rows = std::atoll(std::string(line.substr(kTrailer.size())).c_str());
    } else {
      ++a.rows;
    }
  }
  return a;
}

Outcome CheckResponse(const xqdb::Result<xqdb::ResponseFrame>& frame,
                      bool is_sql, const Answer& expected,
                      std::string_view exclude) {
  if (!frame.ok()) return Outcome::kTransport;
  if (!frame->ok) return Outcome::kErrFrame;
  return DigestPayload(frame->payload, is_sql, exclude) == expected
             ? Outcome::kOk
             : Outcome::kWrongAnswer;
}

bool Tally::Record(Outcome outcome, const std::string& what) {
  ++attempted;
  const char* kind = nullptr;
  switch (outcome) {
    case Outcome::kOk:
      return true;
    case Outcome::kErrFrame:
      ++err_frames;
      kind = "ERR frame";
      break;
    case Outcome::kTransport:
      ++transport;
      kind = "transport failure";
      break;
    case Outcome::kWrongAnswer:
      ++wrong;
      kind = "wrong answer";
      break;
  }
  if (first_error.empty()) first_error = std::string(kind) + ": " + what;
  return false;
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  err_frames += o.err_frames;
  transport += o.transport;
  wrong += o.wrong;
  if (first_error.empty()) first_error = o.first_error;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Draw(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const size_t k = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<uint64_t, long long> child_ns;  // span id -> children's time
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.dur_ns;
  }
  std::map<std::string, SpanSummary> out;
  for (const Span& s : spans) {
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.mean_us += static_cast<double>(s.dur_ns) / 1e3;
    auto it = child_ns.find(s.id);
    const long long children = it == child_ns.end() ? 0 : it->second;
    sum.self_us += static_cast<double>(s.dur_ns - children) / 1e3;
  }
  for (auto& [name, sum] : out) {
    sum.mean_us /= static_cast<double>(sum.count);
    sum.self_us /= static_cast<double>(sum.count);
  }
  return out;
}

double MedianWireSelfUs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::pair<long long, long long>> by_req;  // wire, engine
  for (const Span& s : spans) {
    if (s.name == "wire.call") by_req[s.req].first = s.dur_ns;
    if (s.name == "engine.execute") by_req[s.req].second = s.dur_ns;
  }
  std::vector<double> self;
  for (const auto& [req, t] : by_req) {
    if (t.first > 0 && t.second > 0) {
      self.push_back(static_cast<double>(t.first - t.second) / 1e3);
    }
  }
  return Quantile(std::move(self), 0.5);
}

}  // namespace perfbench
