// Log-bucketed histograms for the observability subsystem.
//
// A serving system needs distributions, not just point values: a histogram
// answers "how many requests landed between 100µs and 1ms since start" —
// the shape a Prometheus scraper can rate(), aggregate across hosts, alert
// on and read percentiles from. obs::Histogram keeps a fixed ladder of
// log-spaced bucket bounds chosen at construction and counts records with
// atomic increments per observation — no locks, no allocation, safe to hit
// from every worker thread on the request hot path. Snapshots copy the
// counters; rendering emits the Prometheus exposition triple
// (`_bucket{le="…"}` cumulative counts, `_sum`, `_count`). The count is
// exact under concurrent records, so a histogram can also be the one
// counter of what it measures (the service's completed requests).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace sw::obs {

/// A point-in-time copy of a histogram: per-bucket counts (one extra
/// trailing bucket for +Inf), the finite upper bounds, and the sum/count
/// aggregates. Copyable value type; what ServiceStats carries and the
/// metrics renderer consumes.
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< finite upper bounds, ascending
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (last = +Inf)
  double sum = 0.0;
  std::uint64_t count = 0;

  /// Count of observations <= `bound_index`'s bound, Prometheus-style
  /// cumulative (bound_index == bounds.size() gives the total).
  std::uint64_t cumulative(std::size_t bound_index) const;
  /// Mean of all observations (0 before the first record).
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

class Histogram {
 public:
  /// Buckets at first_bound * growth^i for i in [0, num_buckets), plus the
  /// implicit +Inf bucket. Requires first_bound > 0, growth > 1,
  /// num_buckets >= 1.
  Histogram(double first_bound, double growth, std::size_t num_buckets);

  /// The standard latency ladder: 1µs .. ~16.8s in 25 doubling buckets —
  /// wide enough for admission stalls, fine enough to see a kernel pass.
  static Histogram for_seconds() { return Histogram(1e-6, 2.0, 25); }
  /// The standard size ladder for batch word counts: 1 .. 4^11 (~4.2M
  /// words) in quadrupling buckets.
  static Histogram for_words() { return Histogram(1.0, 4.0, 12); }

  Histogram(Histogram&& other) noexcept;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// One relaxed atomic increment (bucket found by branch-free-ish binary
  /// search over ~25 bounds) plus sum/count updates; the count increment
  /// is a release that snapshot() acquires. Negative values clamp into the
  /// first bucket.
  void record(double value);

  HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 counters; the last is the +Inf bucket.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  /// Accumulated via compare-exchange: std::atomic<double>::fetch_add is
  /// C++20 but not yet universally lock-free; the CAS loop is equivalent
  /// and contention here is bounded by the request rate.
  std::atomic<double> sum_{0.0};
};

/// Append the Prometheus exposition of one histogram under `name`:
/// `name_bucket{le="…"}` cumulative lines (finite bounds then `+Inf`),
/// `name_sum`, `name_count`. `le` values are formatted with %.9g, so
/// golden tests can assert exact lines.
void append_histogram(std::string& out, const char* name,
                      const HistogramSnapshot& snapshot);

}  // namespace sw::obs
