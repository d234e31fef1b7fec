// Unit tests of the benchmark's order statistics. Quartile expectations are
// what Python's statistics.quantiles(data, n=4) returns for the same data,
// since the steadiness check over printed results is computed that way.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median() {
  using perfbench::median;
  check(near(median({5.0}), 5.0), "median of one value");
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "median of no values throws");
}

void test_quartiles() {
  using perfbench::quartiles;
  const auto two = quartiles({2.0, 1.0});
  check(near(two[0], 0.75) && near(two[1], 1.5) && near(two[2], 2.25),
        "quartiles of 2 values match statistics.quantiles");
  const auto five = quartiles({1, 2, 3, 4, 5});
  check(near(five[0], 1.5) && near(five[1], 3.0) && near(five[2], 4.5),
        "quartiles of 5 values match statistics.quantiles");
  const auto ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(ten[0], 2.75) && near(ten[1], 5.5) && near(ten[2], 8.25),
        "quartiles of 10 values match statistics.quantiles");
  const auto seven = quartiles({3.5, 1.0, 10.0, 7.25, 2.0, 9.0, 4.0});
  check(near(seven[0], 2.0) && near(seven[1], 4.0) && near(seven[2], 9.0),
        "quartiles of unsorted values match statistics.quantiles");
  const auto one = quartiles({4.0});
  check(near(one[0], 4.0) && near(one[2], 4.0), "quartiles of one value");
}

void test_iqr_share() {
  using perfbench::iqr_share;
  check(near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5),
        "iqr share is the quartile distance over the median");
  check(near(iqr_share({7.0, 7.0, 7.0}), 0.0), "constant values spread 0");
}

void test_percentiles() {
  using namespace perfbench;
  check(nearest_rank(5000, 1) == 1, "p50 of one sample is rank 1");
  check(nearest_rank(9900, 100) == 99, "p99 of 100 is rank 99");
  check(nearest_rank(9900, 101) == 100, "p99 of 101 rounds the rank up");
  check(nearest_rank(0, 10) == 1, "rank is at least 1");
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  check(near(percentile_sorted(sorted, 9900), 990.0), "p99 of 1..1000");
  check(near(percentile_sorted(sorted, 5000), 500.0), "p50 of 1..1000");
  check(samples_beyond(9900, 1000) == 10, "10 samples beyond p99 of 1000");
  check(samples_beyond(9990, 1000) == 1, "1 sample beyond p99.9 of 1000");
}

void test_tail_selection() {
  using perfbench::tail_percentile;
  // The highest ladder percentile with >= 10 samples beyond it.
  check(tail_percentile(100000) == 9999, "p99.99 at exactly 100k samples");
  check(tail_percentile(99999) == 9990, "p99.9 just below 100k samples");
  check(tail_percentile(100000, 9900) == 9900, "capped at p99");
  check(tail_percentile(1000) == 9900, "p99 at exactly 1000 samples");
  check(tail_percentile(999) == 9500, "p95 just below 1000 samples");
  check(tail_percentile(200) == 9500, "p95 at 200 samples");
  check(tail_percentile(100) == 9000, "p90 at 100 samples");
  check(tail_percentile(40) == 7500, "p75 at 40 samples");
  check(tail_percentile(32) == 5000, "p50 at 32 samples");
  check(tail_percentile(5) == 5000, "p50 floor when nothing is supported");
  check(tail_percentile(1000000) == 9999, "p99.99 at 1M samples");
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_iqr_share();
  test_percentiles();
  test_tail_selection();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
