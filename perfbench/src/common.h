// Shared plumbing of the benchmark workloads: run configuration, the metric
// catalogue, result reporting, timing and trace-span aggregation.
//
// Every workload has the same shape:
//   1. set up `setup_reps` times (each set-up timed; the median is setup_s),
//      keeping the last one;
//   2. run kWindows windows filling `seconds` without the benchmark's own
//      instrumentation and report the fastest (the end-to-end numbers: no
//      client-side codec stamps, and the service trace ring keeps its
//      default size);
//   3. with --trace 1, set up again with tracing sized for the whole window
//      and run a traced window, from which the per-layer metrics and the
//      reconciliation against wall time are computed.
// Every output is checked against an oracle; a mismatch, error reply, shed
// or timeout counts as a failed operation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int setup_reps = 5;  ///< smoke runs set 1
};

/// What a workload hands back. `values` holds whichever catalogue metrics
/// the workload measured; print_result fills the rest of the selected set
/// with 0 (a layer the workload does not exercise) and says so.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< human-readable report lines

  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
  /// Record one failed operation with its reason (first few are printed).
  void fail(const std::string& why);

 private:
  std::size_t failure_notes_ = 0;
};

struct MetricInfo {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run.
const std::vector<MetricInfo>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run.
const std::vector<MetricInfo>& per_layer_metrics();

/// Print the human report (host fingerprint, notes, metric table) and, as
/// the last stdout line, the one-object JSON result.
void print_result(const std::string& workload, const RunConfig& config,
                  const Result& result);

/// Host fingerprint line: active kernel, precision, hardware threads,
/// compiler, build type — so results from different hosts or kernels are
/// never compared by accident.
std::string host_fingerprint();

/// Peak resident set of this process so far [MB].
double peak_rss_mb();

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median wall seconds of `reps` calls of `make`, keeping the last result
/// in `out` (earlier set-ups are destroyed before the next begins, so peak
/// memory reflects one set-up, not several).
template <typename T, typename Make>
double timed_setups(int reps, T& out, const Make& make);

/// Windows of an untraced run. Its timed work is this many back-to-back
/// windows of --seconds / kWindows each, and the end-to-end figures come
/// from the fastest one. The host is shared and interference only ever
/// slows a window, so the fastest is the steadiest reading of what the
/// code does (the repository's benches take the best of three for the same
/// reason). Every window's outputs are still checked and counted.
inline constexpr int kWindows = 5;

/// Call `run()` `windows` times; return the window with the highest
/// `rate(window)`.
template <typename Run, typename Rate>
auto fastest_window(int windows, const Run& run, const Rate& rate);

/// Fixed-memory uniform sample of a latency stream (reservoir sampling).
/// The benchmark's own storage must not grow with throughput, or it would
/// show up in peak_rss_mb; 65536 samples still leave 655 beyond p99.
class LatencySample {
 public:
  LatencySample() : samples_(kCapacity, 0.0) {}
  void add(double us);
  std::uint64_t count() const { return seen_; }
  double mean() const {
    return seen_ > 0 ? sum_ / static_cast<double>(seen_) : 0.0;
  }
  /// The retained samples, ascending.
  std::vector<double> sorted() const;

 private:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15u;
};

/// Median and tail percentile (at most p99) of a latency sample, written
/// into `result` as latency_p50_us / latency_p99_us, plus a report note
/// naming the percentile actually used and the sample count.
void report_latency(Result& result, const LatencySample& latencies,
                    const std::string& what);

/// Per-phase aggregation of trace spans: mean duration and count.
class SpanTotals {
 public:
  void add_trace(const sw::obs::TraceContext& trace);
  void add(sw::obs::Phase phase, double us);
  double mean_us(sw::obs::Phase phase) const;
  double sum_us(sw::obs::Phase phase) const {
    return sum_us_[static_cast<std::size_t>(phase)];
  }
  std::uint64_t count(sw::obs::Phase phase) const;

 private:
  std::array<double, sw::obs::kNumPhases> sum_us_{};
  std::array<std::uint64_t, sw::obs::kNumPhases> count_{};
};

/// The traces a service ring recorded after its recorded_total() read
/// `recorded_at_start`: exactly the requests settled since a window began.
std::vector<sw::obs::TraceContext> newest_traces(
    const sw::obs::TraceRecorder& recorder, std::uint64_t recorded_at_start);

/// The serve / plan-cache / wavesim per-layer metrics of a traced window,
/// from the service's own counters (ServiceStats histograms and
/// PlanCacheStats, as deltas over the window) and the window's service
/// trace spans; the server's wire spans too when the window had any.
void report_service_layers(Result& result,
                           const sw::serve::ServiceStats& before,
                           const sw::serve::ServiceStats& after,
                           const SpanTotals& spans);

/// Sum of the service-side spans of one request (wire decode through write
/// queue), averaged over the window's traces: what the program attributes.
double service_attributed_us(const SpanTotals& spans, std::size_t traces);

/// Seeded generator per (seed, stream): each input family draws from its
/// own stream so adding draws to one never shifts another.
std::mt19937_64 seeded_rng(std::uint64_t seed, std::uint64_t stream);

/// Fill with independent fair bits.
void fill_random_bits(std::mt19937_64& rng, std::uint8_t* out, std::size_t n);

/// Trace-ring capacity of traced TCP runs, at ~0.6 KB per request. A traced
/// window stops once its requests would overflow the ring, so the ring holds
/// the spans of the whole window; on the TCP workloads that cuts the window
/// short of --seconds (a few seconds on gate_small_tcp).
inline constexpr std::size_t kTracedRingCapacity = std::size_t{1} << 17;

// Workload entry points.
Result run_gate_small_tcp(const RunConfig& config);
Result run_sweep_bulk_tcp(const RunConfig& config);
Result run_program_churn(const RunConfig& config);
Result run_micromag_validate(const RunConfig& config);

// ---------------------------------------------------------------- inline --

template <typename T, typename Make>
double timed_setups(int reps, T& out, const Make& make) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    out.reset();
    const auto t0 = Clock::now();
    out = make();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

template <typename Run, typename Rate>
auto fastest_window(int windows, const Run& run, const Rate& rate) {
  auto best = run();
  for (int i = 1; i < windows; ++i) {
    auto w = run();
    if (rate(w) > rate(best)) best = std::move(w);
  }
  return best;
}

}  // namespace perfbench
