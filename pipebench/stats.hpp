// Order statistics for the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pipebench {

/// 1-based nearest rank of quantile q among n samples: ceil(q * n). The
/// slack keeps 0.99 * 1000 at rank 990 despite 0.99 not being exact.
inline std::size_t quantile_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  return sorted[quantile_rank(sorted.size(), q) - 1];
}

/// Samples strictly above the q-quantile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - quantile_rank(n, q);
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A timing summary: the median, and the highest of the standard tail
/// percentiles that still has at least `min_beyond` samples above it.
struct TailSummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail_percentile = 50.0;  ///< Which percentile `tail` is (e.g. 99).
  double tail = 0.0;
  std::size_t beyond = 0;         ///< Samples above the tail value's rank.
};

inline TailSummary summarize(std::vector<double> values, std::size_t min_beyond = 10) {
  TailSummary out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = median(values);
  out.tail = out.p50;
  out.beyond = samples_beyond(values.size(), 0.5);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::size_t beyond = samples_beyond(values.size(), pct / 100.0);
    if (beyond >= min_beyond) {
      out.tail_percentile = pct;
      out.tail = nearest_rank(values, pct / 100.0);
      out.beyond = beyond;
      break;
    }
  }
  return out;
}

/// The q-quantile when at least `min_beyond` samples lie above it,
/// otherwise the highest supported tail (see summarize).
inline double supported_quantile(std::vector<double> values, double q,
                                 std::size_t min_beyond = 10) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (samples_beyond(values.size(), q) >= min_beyond) return nearest_rank(values, q);
  return summarize(std::move(values), min_beyond).tail;
}

}  // namespace pipebench
