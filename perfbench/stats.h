// Statistics helpers for the benchmark: exact percentiles over raw samples,
// medians of per-round figures, and the op ratios the end-to-end metrics
// report. Header-only so the unit test links nothing else.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// One logical client operation (all of its retries), as the workload saw it.
struct OpSample {
  bool write = false;
  bool ok = false;
  int64_t latency_us = 0;  // simulated, from the op's due time to completion
};

struct LatencyLimits {
  int64_t read_us = 0;
  int64_t write_us = 0;
};

// Nearest-rank percentile: the smallest sample with at least `pct` percent
// of the samples at or below it. Always one of the samples, never a bucket
// bound or an interpolation; 0 when there are no samples.
inline int64_t ExactPercentile(std::vector<int64_t> samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// Median of per-round figures (mean of the middle two for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// num / den, and 0 when nothing was counted.
inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Latencies of the successful ops of one type; failed ops have no latency.
inline std::vector<int64_t> OkLatencies(const std::vector<OpSample>& ops, bool write) {
  std::vector<int64_t> out;
  for (const OpSample& op : ops) {
    if (op.ok && op.write == write) {
      out.push_back(op.latency_us);
    }
  }
  return out;
}

// Ops completed OK over ops attempted.
inline double OkRatio(const std::vector<OpSample>& ops) {
  uint64_t ok = 0;
  for (const OpSample& op : ops) {
    ok += op.ok ? 1 : 0;
  }
  return Ratio(ok, ops.size());
}

// Ops completed OK within their type's limit over ops attempted: a failed
// op is a miss however fast it failed.
inline double SloMetRatio(const std::vector<OpSample>& ops, const LatencyLimits& limits) {
  uint64_t met = 0;
  for (const OpSample& op : ops) {
    const int64_t limit = op.write ? limits.write_us : limits.read_us;
    met += (op.ok && op.latency_us <= limit) ? 1 : 0;
  }
  return Ratio(met, ops.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
