// Order statistics the benchmark reports: medians, quartiles with the same
// interpolation as Python's statistics.quantiles(n=4) (so a spread computed
// here matches one computed over the printed results), nearest-rank
// percentiles, and the rule that picks the highest percentile a sample
// supports. Header-only so the unit tests need no library.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// First, second and third quartile by statistics.quantiles' default
/// "exclusive" method: cut points at i * (n + 1) / 4, linearly
/// interpolated, the index clamped to [1, n - 1]. One value gives itself
/// three times.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  std::array<double, 3> out{};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return out;
}

/// Interquartile distance as a share of the median: the steadiness figure
/// a benchmark bound is compared against.
inline double iqr_share(const std::vector<double>& values) {
  const auto q = quartiles(values);
  const double mid = median(values);
  return mid == 0.0 ? 0.0 : (q[2] - q[0]) / mid;
}

/// Percentiles are given in basis points (9900 = p99) so rank arithmetic
/// stays exact in integers.
using BasisPoints = std::uint32_t;

/// Nearest-rank rank of percentile `bp` over `n` samples: ceil(bp * n /
/// 10000), at least 1.
inline std::size_t nearest_rank(BasisPoints bp, std::size_t n) {
  const std::uint64_t r =
      (static_cast<std::uint64_t>(bp) * n + 9999u) / 10000u;
  return static_cast<std::size_t>(std::max<std::uint64_t>(r, 1));
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted,
                                BasisPoints bp) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no values");
  return sorted[std::min(nearest_rank(bp, sorted.size()), sorted.size()) - 1];
}

/// Samples strictly beyond the nearest-rank percentile `bp`.
inline std::size_t samples_beyond(BasisPoints bp, std::size_t n) {
  return n - std::min(nearest_rank(bp, n), n);
}

/// The ladder a tail percentile is chosen from, highest first.
inline constexpr std::array<BasisPoints, 7> kTailLadder{9999, 9990, 9900, 9500,
                                                        9000, 7500, 5000};

/// The highest ladder percentile, no higher than `cap`, with at least
/// `min_beyond` samples beyond it; p50 when even that is unsupported (it is
/// then reported with its sample count, never silently).
inline BasisPoints tail_percentile(std::size_t n, BasisPoints cap = 9999,
                                   std::size_t min_beyond = 10) {
  for (const BasisPoints bp : kTailLadder) {
    if (bp <= cap && samples_beyond(bp, n) >= min_beyond) return bp;
  }
  return 5000;
}

}  // namespace perfbench
