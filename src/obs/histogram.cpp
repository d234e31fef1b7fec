#include "obs/histogram.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/error.h"

namespace sw::obs {

std::uint64_t HistogramSnapshot::cumulative(std::size_t bound_index) const {
  std::uint64_t total = 0;
  const std::size_t last = std::min(bound_index, counts.size() - 1);
  for (std::size_t i = 0; i <= last; ++i) total += counts[i];
  return total;
}

Histogram::Histogram(double first_bound, double growth,
                     std::size_t num_buckets) {
  SW_REQUIRE(first_bound > 0.0, "histogram first bound must be positive");
  SW_REQUIRE(growth > 1.0, "histogram growth must exceed 1");
  SW_REQUIRE(num_buckets >= 1, "histogram needs at least one finite bucket");
  bounds_.reserve(num_buckets);
  double bound = first_bound;
  for (std::size_t i = 0; i < num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  buckets_ = std::vector<std::atomic<std::uint64_t>>(num_buckets + 1);
}

Histogram::Histogram(Histogram&& other) noexcept
    : bounds_(std::move(other.bounds_)),
      buckets_(other.buckets_.size()) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
}

void Histogram::record(double value) {
  // Prometheus `le` is an inclusive upper bound: the first bound >= value.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  // Release, paired with snapshot()'s acquire: a reader that sees this
  // record counted also sees what the recorder did before it (the service
  // hands out a request's id before recording its latency).
  count_.fetch_add(1, std::memory_order_release);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.resize(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  out.count = count_.load(std::memory_order_acquire);
  return out;
}

void append_histogram(std::string& out, const char* name,
                      const HistogramSnapshot& snapshot) {
  char buf[192];
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snapshot.bounds.size(); ++i) {
    cumulative += snapshot.counts[i];
    std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"%.9g\"} %" PRIu64 "\n",
                  name, snapshot.bounds[i], cumulative);
    out += buf;
  }
  if (!snapshot.counts.empty()) cumulative += snapshot.counts.back();
  std::snprintf(buf, sizeof(buf), "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                name, cumulative);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s_sum %.9g\n", name, snapshot.sum);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n", name,
                snapshot.count);
  out += buf;
}

}  // namespace sw::obs
