#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Mean of a histogram's observations between two snapshots (0 if none).
double histogram_delta_mean(const sw::obs::HistogramSnapshot& before,
                            const sw::obs::HistogramSnapshot& after) {
  const std::uint64_t n = after.count - before.count;
  return n > 0 ? (after.sum - before.sum) / static_cast<double>(n) : 0.0;
}

}  // namespace

void Result::fail(const std::string& why) {
  ++failed;
  correct = false;
  // The first few reasons reach the report; the count carries the rest.
  if (failure_notes_ < 5) {
    ++failure_notes_;
    note("FAILED: " + why);
  }
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> metrics{
      {"words_per_s", "words/s"},   {"requests_per_s", "1/s"},
      {"latency_p50_us", "us"},     {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> metrics{
      // net: client-side codec (benchmark-timed) and server spans.
      {"net.client_encode_us", "us"},
      {"net.client_decode_us", "us"},
      {"net.wire_decode_us", "us"},
      {"net.wire_encode_us", "us"},
      {"net.write_queue_us", "us"},
      {"net.bytes_per_word", "bytes"},
      {"net.backpressure_pauses", "count"},
      // net: sweep coordinator shard spans.
      {"net.shard_send_us", "us"},
      {"net.shard_wait_us", "us"},
      {"net.shard_retire_us", "us"},
      {"net.reshards", "count"},
      // serve: admission, queue, lookup.
      {"serve.admission_wait_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.request_latency_us", "us"},
      {"serve.plan_lookup_us", "us"},
      {"serve.shed", "count"},
      {"serve.blocked", "count"},
      // serve: plan cache.
      {"serve.plan_build_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.plan_builds", "count"},
      {"serve.evictions", "count"},
      // wavesim: kernels and program stages.
      {"wavesim.kernel_us", "us"},
      {"wavesim.kernel_ns_per_word", "ns"},
      {"wavesim.kernel_bytes_per_word", "bytes"},
      {"wavesim.stage_us", "us"},
      {"wavesim.f32_detector_share", "ratio"},
      {"wavesim.program_stages_mean", "count"},
      // compile, core, mag.
      {"compile.synth_us", "us"},
      {"compile.lower_us", "us"},
      {"core.design_us", "us"},
      {"core.calibrate_s", "s"},
      {"core.min_margin", "ratio"},
      {"mag.run_s", "s"},
      {"mag.sim_ns_per_host_s", "ns/s"},
      // whole run. The p99 is reported here rather than end to end: it
      // spreads more than a tenth from run to run on a shared host.
      {"latency_p99_us", "us"},
      {"unattributed_pct", "%"},
      {"trace_overhead_pct", "%"},
  };
  return metrics;
}

std::string host_fingerprint() {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "kernel=%s precision=%s nproc=%u avx2=%s avx512=%s build_type=%s "
      "ndebug=%s compiler=%s",
      std::string(sw::wavesim::active_kernel_name()).c_str(),
      std::string(sw::wavesim::precision_name(
                      sw::wavesim::active_precision()))
          .c_str(),
      std::thread::hardware_concurrency(),
      sw::wavesim::kernels::avx2_kernel() != nullptr ? "yes" : "no",
      sw::wavesim::kernels::avx512_kernel() != nullptr ? "yes" : "no",
      PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
      "yes",
#else
      "no",
#endif
      __VERSION__);
  return buf;
}

double peak_rss_mb() {
  // VmHWM rather than getrusage: Linux carries ru_maxrss across execve, so
  // a benchmark started by a larger parent (the Python launcher) would
  // report the parent's peak instead of its own.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const std::string& workload, const RunConfig& config,
                  const Result& result) {
  const auto& catalogue =
      config.traced ? per_layer_metrics() : end_to_end_metrics();
  std::printf("host: %s\n", host_fingerprint().c_str());
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.traced ? 1 : 0);
  for (const auto& line : result.notes) std::printf("  %s\n", line.c_str());
  std::printf("  %-30s %16s  %s\n", "metric", "value", "unit");
  bool finite = true;
  std::string json;
  for (const MetricInfo& m : catalogue) {
    const auto it = result.values.find(m.name);
    double value = it == result.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    std::printf("  %-30s %16.6g  %s%s\n", m.name, value, m.unit,
                it == result.values.end() ? "  (layer not exercised)" : "");
    char item[256];
    std::snprintf(item, sizeof item,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, value, m.unit);
    json += item;
  }
  if (!finite) std::printf("  FAILED: a metric was not finite\n");
  const bool correct = result.correct && finite && result.failed == 0 &&
                       result.attempted > 0;
  std::printf("attempted: %llu  failed: %llu  correct: %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              correct ? "true" : "false");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
}

void LatencySample::add(double us) {
  sum_ += us;
  if (seen_ < kCapacity) {
    samples_[seen_++] = us;
    return;
  }
  // Algorithm R: keep the new sample with probability kCapacity / seen.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t j = rng_ % ++seen_;
  if (j < kCapacity) samples_[j] = us;
}

std::vector<double> LatencySample::sorted() const {
  std::vector<double> out(
      samples_.begin(),
      samples_.begin() + static_cast<std::ptrdiff_t>(
                             std::min<std::uint64_t>(seen_, kCapacity)));
  std::sort(out.begin(), out.end());
  return out;
}

void report_latency(Result& result, const LatencySample& latencies,
                    const std::string& what) {
  const std::vector<double> sorted = latencies.sorted();
  if (sorted.empty()) return;
  const std::size_t n = sorted.size();
  const BasisPoints tail = tail_percentile(n, 9900);
  const BasisPoints highest = tail_percentile(n);
  result.set("latency_p50_us", percentile_sorted(sorted, 5000));
  result.set("latency_p99_us", percentile_sorted(sorted, tail));
  char line[320];
  std::snprintf(line, sizeof line,
                "latency (%s): %llu measured, %zu sampled  p50=%.2f us  "
                "p%g=%.2f us (reported as latency_p99_us)  p%g=%.2f us "
                "(highest with >= 10 beyond)",
                what.c_str(), static_cast<unsigned long long>(latencies.count()),
                n, percentile_sorted(sorted, 5000), tail / 100.0,
                percentile_sorted(sorted, tail), highest / 100.0,
                percentile_sorted(sorted, highest));
  result.note(line);
}

void SpanTotals::add_trace(const sw::obs::TraceContext& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const sw::obs::Span& s = trace.span(i);
    if (s.end_ns == 0 || s.end_ns < s.start_ns) continue;  // left open
    add(s.phase, static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
}

void SpanTotals::add(sw::obs::Phase phase, double us) {
  const auto p = static_cast<std::size_t>(phase);
  sum_us_[p] += us;
  ++count_[p];
}

double SpanTotals::mean_us(sw::obs::Phase phase) const {
  const auto p = static_cast<std::size_t>(phase);
  return count_[p] > 0 ? sum_us_[p] / static_cast<double>(count_[p]) : 0.0;
}

std::uint64_t SpanTotals::count(sw::obs::Phase phase) const {
  return count_[static_cast<std::size_t>(phase)];
}

std::vector<sw::obs::TraceContext> newest_traces(
    const sw::obs::TraceRecorder& recorder, std::uint64_t recorded_at_start) {
  auto traces = recorder.snapshot();
  const std::uint64_t fresh = recorder.recorded_total() - recorded_at_start;
  if (traces.size() > fresh) traces.resize(static_cast<std::size_t>(fresh));
  return traces;
}

void report_service_layers(Result& result,
                           const sw::serve::ServiceStats& before,
                           const sw::serve::ServiceStats& after,
                           const SpanTotals& spans) {
  using sw::obs::Phase;
  result.set("serve.admission_wait_us",
             histogram_delta_mean(before.admission_wait,
                                  after.admission_wait) * 1e6);
  result.set("serve.queue_wait_us",
             histogram_delta_mean(before.queue_wait, after.queue_wait) * 1e6);
  result.set("serve.request_latency_us",
             histogram_delta_mean(before.request_latency,
                                  after.request_latency) * 1e6);
  result.set("serve.plan_lookup_us", spans.mean_us(Phase::kPlanLookup));
  result.set("serve.shed", static_cast<double>(after.shed - before.shed));
  result.set("serve.blocked",
             static_cast<double>(after.blocked - before.blocked));

  const auto hits = after.cache.hits - before.cache.hits;
  const auto misses = after.cache.misses - before.cache.misses;
  result.set("serve.plan_build_us", spans.mean_us(Phase::kPlanBuild));
  result.set("serve.cache_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0);
  result.set("serve.plan_builds", static_cast<double>(misses));
  result.set("serve.evictions", static_cast<double>(after.cache.evictions -
                                                    before.cache.evictions));

  const double kernel_s = after.kernel_exec.sum - before.kernel_exec.sum;
  const double words = after.batch_words.sum - before.batch_words.sum;
  result.set("wavesim.kernel_us",
             histogram_delta_mean(before.kernel_exec, after.kernel_exec) *
                 1e6);
  result.set("wavesim.kernel_ns_per_word",
             words > 0.0 ? kernel_s / words * 1e9 : 0.0);
  result.set("wavesim.stage_us", spans.mean_us(Phase::kStage));
  // wavesim.f32_detector_share stays unset: every workload evaluates at
  // the default f64 precision, so no block-f32 plan is ever built. Plans
  // are built at warm-up, so the program shape is read cumulatively rather
  // than as a window delta.
  const auto& c = after.cache;
  result.set("wavesim.program_stages_mean",
             c.program_builds > 0 ? static_cast<double>(c.program_stages) /
                                        static_cast<double>(c.program_builds)
                                  : 0.0);

  if (spans.count(Phase::kWireDecode) > 0) {
    result.set("net.wire_decode_us", spans.mean_us(Phase::kWireDecode));
    result.set("net.wire_encode_us", spans.mean_us(Phase::kWireEncode));
    result.set("net.write_queue_us", spans.mean_us(Phase::kWriteQueue));
  }
}

double service_attributed_us(const SpanTotals& spans, std::size_t traces) {
  using sw::obs::Phase;
  if (traces == 0) return 0.0;
  double sum = 0.0;
  // kStage spans subdivide kKernel, so they are not added again.
  for (const Phase p : {Phase::kWireDecode, Phase::kAdmission,
                        Phase::kPlanLookup, Phase::kQueue, Phase::kPlanBuild,
                        Phase::kKernel, Phase::kWireEncode,
                        Phase::kWriteQueue}) {
    sum += spans.sum_us(p);
  }
  return sum / static_cast<double>(traces);
}

std::mt19937_64 seeded_rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream)};
  return std::mt19937_64(seq);
}

void fill_random_bits(std::mt19937_64& rng, std::uint8_t* out,
                      std::size_t n) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 64 == 0) word = rng();
    out[i] = static_cast<std::uint8_t>((word >> (i % 64)) & 1u);
  }
}

}  // namespace perfbench
