// Workload sweep_bulk_tcp: the paper's data-parallel sweep as a sharded
// network job. SweepCoordinator::run sends 2^20 words of the 8-channel
// 3-input majority gate — a seed-chosen 1/16 slice of the 2^24-word
// exhaustive space, in seed-scrambled order — as 4096-word shards over two
// connections to one in-process EvalServer (service with two workers).
// Kernel, bulk wire bit-packing and checksums dominate; per-request
// overhead is a few percent of a shard.
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "common.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "net/eval_server.h"
#include "net/sweep_coordinator.h"
#include "serve/service.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace perfbench {
namespace {

constexpr std::size_t kSliceBits = 20;
constexpr std::size_t kSweepWords = std::size_t{1} << kSliceBits;
constexpr std::size_t kShardWords = 4096;
constexpr std::size_t kShards = kSweepWords / kShardWords;
constexpr std::size_t kInputs = 3;
constexpr std::size_t kChannels = 8;
constexpr std::size_t kSlots = kInputs * kChannels;
/// Coordinator trace slots per sweep: every shard plus room for re-shards.
constexpr std::size_t kShardTraceCapacity = 2 * kShards;

struct Setup {
  sw::disp::Waveguide wg = sw::bench::paper_waveguide();
  sw::disp::FvmswDispersion model{wg};
  sw::core::InlineGateDesigner designer{model};
  sw::core::GateLayout layout;
  double design_us = 0.0;
  std::vector<std::uint8_t> matrix;    ///< kSweepWords x kSlots
  std::vector<std::uint8_t> expected;  ///< kSweepWords x kChannels
  std::uint64_t slice = 0;
  std::unique_ptr<sw::serve::EvaluatorService> service;
  std::unique_ptr<sw::net::EvalServer> server;
};

struct Sweep {
  double seconds = 0.0;
  std::size_t failed_shards = 0;
  std::string failure;
  sw::net::SweepReport report;
  std::vector<sw::obs::TraceContext> shard_traces;
};

Sweep run_sweep(const Setup& s) {
  Sweep out;
  // The coordinator's own per-shard recorder is the only public view of a
  // shard's send-to-retire time, so it is on in every run; it costs one
  // locked copy per 4096-word shard.
  sw::obs::TraceRecorder recorder(kShardTraceCapacity);
  sw::net::SweepOptions options;
  options.shard_words = kShardWords;
  options.recorder = &recorder;
  const auto endpoint = s.server->local_endpoint();
  sw::net::SweepCoordinator coordinator({endpoint, endpoint}, options);
  const auto t0 = Clock::now();
  std::vector<std::uint8_t> result;
  try {
    result = coordinator.run(s.layout, s.matrix, kSweepWords, &out.report);
  } catch (const std::exception& e) {
    out.seconds = seconds_since(t0);
    out.failed_shards = kShards;
    out.failure = std::string("sweep aborted: ") + e.what();
    return out;
  }
  out.seconds = seconds_since(t0);
  const std::size_t shard_bytes = kShardWords * kChannels;
  for (std::size_t i = 0; i < kShards; ++i) {
    if (std::memcmp(result.data() + i * shard_bytes,
                    s.expected.data() + i * shard_bytes, shard_bytes) != 0) {
      ++out.failed_shards;
      out.failure = "shard " + std::to_string(i) +
                    " differs from the scalar reference";
    }
  }
  out.shard_traces = recorder.snapshot();
  return out;
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed, bool traced) {
  auto s = std::make_unique<Setup>();
  sw::core::GateSpec spec;
  spec.num_inputs = kInputs;
  spec.frequencies = sw::bench::paper_frequencies();
  const auto t0 = Clock::now();
  s->layout = s->designer.design(spec);
  s->design_us = seconds_since(t0) * 1e6;

  // Word w carries assignment (slice << 20) | (w ^ mask): bit k of the
  // assignment drives slot k (slot = channel * 3 + input).
  auto rng = seeded_rng(seed, /*stream=*/2);
  s->slice = rng() % (std::uint64_t{1} << (kSlots - kSliceBits));
  const std::uint64_t mask = rng() & (kSweepWords - 1);
  s->matrix.resize(kSweepWords * kSlots);
  for (std::size_t w = 0; w < kSweepWords; ++w) {
    const std::uint64_t a = (s->slice << kSliceBits) | (w ^ mask);
    for (std::size_t k = 0; k < kSlots; ++k) {
      s->matrix[w * kSlots + k] = static_cast<std::uint8_t>((a >> k) & 1u);
    }
  }
  const sw::wavesim::WaveEngine engine(s->model, s->wg.material.alpha);
  const sw::core::DataParallelGate gate(s->layout, engine);
  const sw::wavesim::BatchEvaluator reference(
      gate, sw::wavesim::BatchOptions{.num_threads = 1});
  s->expected = reference.evaluate_bits(
      kSweepWords, s->matrix, sw::wavesim::kernels::scalar_kernel());

  sw::serve::ServiceOptions options;
  options.num_threads = 2;
  if (traced) options.trace_capacity = kTracedRingCapacity;
  s->service = std::make_unique<sw::serve::EvaluatorService>(
      s->model, s->wg.material.alpha, options);
  const sw::core::InlineGateDesigner* designer = &s->designer;
  s->server = std::make_unique<sw::net::EvalServer>(
      *s->service,
      [designer](const sw::core::GateSpec& g) { return designer->design(g); },
      sw::net::Endpoint::parse("tcp:127.0.0.1:0"));

  // Warm-up sweep: the server designs the layout, the service builds the
  // plan, the sockets' buffers grow to a shard's size.
  const Sweep warm = run_sweep(*s);
  SW_REQUIRE(warm.failed_shards == 0, "warm-up sweep failed: " + warm.failure);
  return s;
}

/// Shard send-to-retire latency of one coordinator trace (0 if the shard
/// never retired, e.g. its duplicate won).
double shard_latency_us(const sw::obs::TraceContext& t) {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const auto& span = t.span(i);
    if (span.phase == sw::obs::Phase::kShardSend) start = span.start_ns;
    if (span.phase == sw::obs::Phase::kShardRetire) end = span.end_ns;
  }
  return start != 0 && end > start ? static_cast<double>(end - start) / 1e3
                                   : 0.0;
}

struct Window {
  std::size_t sweeps = 0;
  LatencySample latencies;
  std::size_t resharded = 0;
  SpanTotals coordinator_spans;
  std::uint64_t words = 0;
  double sweep_s = 0.0;  ///< summed time inside SweepCoordinator::run
  double seconds = 0.0;

  double words_per_s() const {
    return static_cast<double>(words) / sweep_s;
  }
};

Window run_window(const Setup& s, double seconds, std::size_t max_requests,
                  Result& result) {
  Window w;
  const auto t0 = Clock::now();
  std::size_t sent = 0;
  do {
    const Sweep sweep = run_sweep(s);
    result.attempted += kShards;
    sent += kShards + sweep.report.resharded;
    for (std::size_t i = 0; i < sweep.failed_shards; ++i) {
      result.fail(sweep.failure);
    }
    ++w.sweeps;
    w.sweep_s += sweep.seconds;
    w.words += kSweepWords;
    w.resharded += sweep.report.resharded;
    for (const auto& t : sweep.shard_traces) {
      w.coordinator_spans.add_trace(t);
      const double l = shard_latency_us(t);
      if (l > 0.0) w.latencies.add(l);
    }
  } while (seconds_since(t0) < seconds && sent + 2 * kShards <= max_requests);
  w.seconds = seconds_since(t0);
  return w;
}

}  // namespace

Result run_sweep_bulk_tcp(const RunConfig& config) {
  Result result;
  std::unique_ptr<Setup> setup;
  const double setup_s =
      timed_setups(config.traced ? 1 : config.setup_reps, setup,
                   [&] { return make_setup(config.seed, false); });
  char line[256];
  std::snprintf(line, sizeof line,
                "sweep: %zu words (slice %llu of 16), %zu shards of %zu "
                "words over 2 connections",
                kSweepWords, static_cast<unsigned long long>(setup->slice),
                kShards, kShardWords);
  result.note(line);
  // A traced window stops before the service trace ring could wrap, so its
  // spans cover every shard it sent; that is shorter than --seconds. A
  // traced run's untraced window is one window stopping at the same bound,
  // so the two compare like with like.
  const int windows = config.traced ? 1 : kWindows;
  const Window plain = fastest_window(
      windows,
      [&] {
        return run_window(*setup, config.seconds / windows,
                          config.traced ? kTracedRingCapacity : SIZE_MAX,
                          result);
      },
      [](const Window& w) { return w.words_per_s(); });
  const double words_per_s = plain.words_per_s();
  std::snprintf(line, sizeof line,
                "fastest window: %zu sweeps; words_per_s counts the time "
                "inside SweepCoordinator::run",
                plain.sweeps);
  result.note(line);

  report_latency(result, plain.latencies,
                 "shard send to retire, fastest window");

  if (!config.traced) {
    result.set("setup_s", setup_s);
    result.set("words_per_s", words_per_s);
    result.set("requests_per_s",
               words_per_s / static_cast<double>(kShardWords));
    result.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  setup.reset();
  setup = make_setup(config.seed, true);
  const auto before = setup->service->stats();
  const auto counters_before = setup->server->counters();
  const std::uint64_t ring_start =
      setup->service->trace_recorder().recorded_total();
  const Window traced =
      run_window(*setup, config.seconds, kTracedRingCapacity, result);
  const auto after = setup->service->stats();
  const auto counters_after = setup->server->counters();

  SpanTotals spans;
  const auto traces =
      newest_traces(setup->service->trace_recorder(), ring_start);
  for (const auto& t : traces) spans.add_trace(t);
  report_service_layers(result, before, after, spans);

  using sw::obs::Phase;
  const SpanTotals& cs = traced.coordinator_spans;
  result.set("net.shard_send_us", cs.mean_us(Phase::kShardSend));
  result.set("net.shard_wait_us", cs.mean_us(Phase::kShardWait));
  result.set("net.shard_retire_us", cs.mean_us(Phase::kShardRetire));
  result.set("net.reshards", static_cast<double>(traced.resharded));
  result.set("net.bytes_per_word",
             static_cast<double>(
                 (counters_after.bytes_read - counters_before.bytes_read) +
                 (counters_after.bytes_written -
                  counters_before.bytes_written)) /
                 static_cast<double>(traced.words));
  result.set("net.backpressure_pauses",
             static_cast<double>(counters_after.backpressure_pauses -
                                 counters_before.backpressure_pauses));
  result.set("wavesim.kernel_bytes_per_word",
             static_cast<double>(kSlots + kChannels));
  result.set("core.design_us", setup->design_us);

  const double mean_latency = traced.latencies.mean();
  const double attributed = cs.mean_us(Phase::kShardSend) +
                            cs.mean_us(Phase::kShardRetire) +
                            service_attributed_us(spans, traces.size());
  result.set("unattributed_pct",
             100.0 * (mean_latency - attributed) / mean_latency);
  const double traced_wps = traced.words_per_s();
  result.set("trace_overhead_pct",
             100.0 * (words_per_s - traced_wps) / words_per_s);

  std::snprintf(line, sizeof line,
                "traced window: %zu sweeps in %.2f s, %zu service traces "
                "(ring %zu), mean shard latency %.1f us, attributed %.1f us; "
                "untraced window %.2f s: %.0f vs traced %.0f words/s",
                traced.sweeps, traced.seconds, traces.size(),
                kTracedRingCapacity, mean_latency, attributed, plain.seconds,
                words_per_s, traced_wps);
  result.note(line);
  result.note("wavesim.kernel_bytes_per_word is computed: 24 input slots + "
              "8 output channels per word, one byte each");
  return result;
}

}  // namespace perfbench
