// Experiment E7 — evaluator-service steady-state throughput.
//
// The serving question: a stream of packed word batches arrives for the
// same gate layout — what does plan caching buy over PR 1's per-call
// pattern of reconstructing a BatchEvaluator for every batch? The baseline
// builds a fresh evaluator per call (plan precompute + pool setup each
// time, engine memoisation shared); the service path submits the same batches to a long-lived
// EvaluatorService whose plan cache makes the steady-state cost just the
// packed-bit evaluation. A ≥ 2x floor on the speedup gates CI (the
// acceptance bar of the serving PR); both paths are cross-checked
// bit-for-bit first.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <deque>
#include <random>
#include <vector>

#include "bench_common.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "serve/service.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw;

// Serving shape: many modest batches, not one huge sweep. m = 7 inputs on
// the 8 paper channels makes the per-layout plan (112 steady-phasor
// solves) the dominant per-call cost the cache exists to amortise.
constexpr std::size_t kNumInputs = 7;
constexpr std::size_t kWordsPerBatch = 24;
constexpr std::size_t kBatches = 400;

struct BenchSetup {
  disp::Waveguide wg = bench::paper_waveguide();
  disp::FvmswDispersion model{wg};
  core::InlineGateDesigner designer{model};
  wavesim::WaveEngine engine{model, wg.material.alpha};
  core::GateLayout layout;
  core::DataParallelGate gate;
  std::vector<std::uint8_t> batch;

  BenchSetup()
      : layout([this] {
          core::GateSpec spec;
          spec.num_inputs = kNumInputs;
          spec.frequencies = bench::paper_frequencies();
          return designer.design(spec);
        }()),
        gate(layout, engine) {
    const std::size_t slots =
        layout.spec.frequencies.size() * layout.spec.num_inputs;
    batch.resize(kWordsPerBatch * slots);
    std::mt19937 rng(12345);
    std::bernoulli_distribution coin(0.5);
    for (auto& b : batch) b = coin(rng) ? 1 : 0;
  }
};

const BenchSetup& setup() {
  static const BenchSetup s;
  return s;
}

std::vector<std::uint8_t> run_rebuild_per_call(const BenchSetup& s) {
  // PR 1's per-call shape: a fresh BatchEvaluator (plan + pool) per batch.
  const wavesim::BatchEvaluator evaluator(s.gate);
  return evaluator.evaluate_bits(kWordsPerBatch, s.batch);
}

std::vector<std::uint8_t> run_service_batches(serve::EvaluatorService& svc,
                                              const core::GateLayout& layout,
                                              const BenchSetup& s,
                                              std::size_t batches) {
  // Pipelined client: submit the whole wave, then drain the futures. The
  // admission queue is sized to hold the wave (a throughput client raises
  // the knob; a latency client keeps it small and blocks).
  std::deque<std::future<serve::ResultBatch>> inflight;
  std::vector<std::uint8_t> last;
  for (std::size_t i = 0; i < batches; ++i) {
    inflight.push_back(svc.submit(serve::EvalRequest::for_layout(layout, s.batch, kWordsPerBatch)));
  }
  while (!inflight.empty()) {
    last = inflight.front().get().bits;
    inflight.pop_front();
  }
  return last;
}

void run_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const double words = static_cast<double>(kBatches * kWordsPerBatch);
  std::printf("%zu batches x %zu words, %zu-input %zu-channel majority "
              "layout (plan: %zu phasor pairs)\n\n",
              kBatches, kWordsPerBatch, kNumInputs,
              s.layout.spec.frequencies.size(),
              s.layout.sources.size());

  // Best of three either way (bench::best_of_three_seconds): the floor
  // check gates CI, so one scheduler stall must not read as a regression.
  std::vector<std::uint8_t> rebuilt;
  const double rebuild_s = bench::best_of_three_seconds([&] {
    for (std::size_t i = 0; i < kBatches; ++i) rebuilt = run_rebuild_per_call(s);
  });

  serve::ServiceOptions options;
  options.plan_cache_capacity = 8;
  options.admission.max_queued_requests = kBatches + 8;
  serve::EvaluatorService svc(s.model, s.wg.material.alpha, options);
  // Warm the plan cache once; steady state is what serving measures.
  (void)svc.submit(serve::EvalRequest::for_layout(s.layout, s.batch, kWordsPerBatch)).get();

  std::vector<std::uint8_t> served;
  const double service_s = bench::best_of_three_seconds(
      [&] { served = run_service_batches(svc, s.layout, s, kBatches); });

  const auto stats = svc.stats();
  std::printf("rebuild per call : %8.1f ms  (%10.0f words/s)\n",
              rebuild_s * 1e3, words / rebuild_s);
  std::printf("EvaluatorService : %8.1f ms  (%10.0f words/s, kernel: %s, "
              "precision: %s)\n",
              service_s * 1e3, words / service_s, stats.kernel.c_str(),
              stats.precision.c_str());
  std::printf("speedup          : %8.1fx  (floor: 2x)\n\n",
              rebuild_s / service_s);
  json.add("rebuild_per_call", stats.kernel, stats.precision,
           words / rebuild_s);
  json.add("service_steady_state", stats.kernel, stats.precision,
           words / service_s);

  // Kernel x precision side-by-side on the serving batch shape: the
  // cached-plan steady state runs exactly this evaluate_bits call per
  // request. Both precisions pinned explicitly so the rows mean the same
  // thing on every CI leg.
  {
    const wavesim::BatchEvaluator f64(
        s.gate,
        {.num_threads = 1, .precision = wavesim::Precision::kFloat64});
    const wavesim::BatchEvaluator f32(
        s.gate,
        {.num_threads = 1, .precision = wavesim::Precision::kFloat32});
    SW_REQUIRE(f32.effective_precision() == wavesim::Precision::kFloat32,
               "serving layout unexpectedly rejected the f32 plan");
    const auto time_kernel = [&](const wavesim::BatchEvaluator& evaluator,
                                 const wavesim::kernels::Kernel& kernel) {
      return bench::best_of_three_seconds([&] {
        for (std::size_t i = 0; i < kBatches; ++i) {
          benchmark::DoNotOptimize(
              evaluator.evaluate_bits(kWordsPerBatch, s.batch, kernel));
        }
      });
    };
    const double scalar_s = time_kernel(f64, wavesim::kernels::scalar_kernel());
    const double scalar_f32_s =
        time_kernel(f32, wavesim::kernels::scalar_kernel());
    std::printf("cached-plan evaluate_bits, per kernel (single thread):\n");
    std::printf("scalar f64       : %8.2f ms  (%10.0f words/s)\n",
                scalar_s * 1e3, words / scalar_s);
    std::printf("scalar f32       : %8.2f ms  (%10.0f words/s)\n",
                scalar_f32_s * 1e3, words / scalar_f32_s);
    json.add("serving_batch_shape", "scalar", "f64", words / scalar_s);
    json.add("serving_batch_shape", "scalar", "f32", words / scalar_f32_s);
    if (const auto* avx2 = wavesim::kernels::avx2_kernel()) {
      const double simd_s = time_kernel(f64, *avx2);
      const double simd_f32_s = time_kernel(f32, *avx2);
      std::printf("AVX2 f64         : %8.2f ms  (%10.0f words/s, %.2fx)\n",
                  simd_s * 1e3, words / simd_s, scalar_s / simd_s);
      std::printf("AVX2 f32         : %8.2f ms  (%10.0f words/s, %.2fx over "
                  "f64 AVX2)\n\n",
                  simd_f32_s * 1e3, words / simd_f32_s,
                  simd_s / simd_f32_s);
      json.add("serving_batch_shape", "avx2", "f64", words / simd_s);
      json.add("serving_batch_shape", "avx2", "f32", words / simd_f32_s);
    } else {
      std::printf("AVX2 kernel      : unavailable on this build/host\n\n");
    }
    if (const auto* avx512 = wavesim::kernels::avx512_kernel()) {
      const double simd512_s = time_kernel(f64, *avx512);
      const double simd512_f32_s = time_kernel(f32, *avx512);
      std::printf("AVX-512 f64      : %8.2f ms  (%10.0f words/s, %.2fx)\n",
                  simd512_s * 1e3, words / simd512_s, scalar_s / simd512_s);
      std::printf("AVX-512 f32      : %8.2f ms  (%10.0f words/s, %.2fx over "
                  "f64 AVX-512)\n\n",
                  simd512_f32_s * 1e3, words / simd512_f32_s,
                  simd512_s / simd512_f32_s);
      json.add("serving_batch_shape", "avx512", "f64", words / simd512_s);
      json.add("serving_batch_shape", "avx512", "f32", words / simd512_f32_s);
    } else {
      std::printf("AVX-512 kernel   : unavailable on this build/host\n\n");
    }
  }
  std::printf("cache: %llu hits / %llu misses / %llu evictions; "
              "%llu requests served\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.completed));
  // Phase breakdown from the service's always-on histograms: where a
  // request's lifetime actually went, in the same shape the metrics
  // endpoint exposes — and folded into the bench artifact so the
  // trajectory tracks phase drift, not just the end-to-end rate. The
  // request_latency row is the service's end-to-end latency.
  const auto latest = svc.stats();
  const struct {
    const char* label;
    const sw::obs::HistogramSnapshot& h;
  } phases[] = {
      {"request_latency", latest.request_latency},
      {"admission_wait", latest.admission_wait},
      {"queue_wait", latest.queue_wait},
      {"kernel_exec", latest.kernel_exec},
  };
  std::printf("phase breakdown (mean over all requests):\n");
  for (const auto& p : phases) {
    std::printf("  %-16s %10.1f us  (n=%llu)\n", p.label, p.h.mean() * 1e6,
                static_cast<unsigned long long>(p.h.count));
    json.add_phase("service_steady_state", p.label, p.h.mean(), p.h.count);
  }
  std::printf("\n");

  std::fflush(stdout);
  SW_REQUIRE(served == rebuilt,
             "service results diverged from the rebuild-per-call sweep");
  SW_REQUIRE(stats.cache.hits >= 3 * kBatches,
             "steady-state submissions were expected to hit the plan cache");
  // The acceptance bar: cached-plan steady state at >= 2x the
  // rebuild-per-call baseline, as a hard floor so CI catches regressions.
  SW_REQUIRE(rebuild_s / service_s >= 2.0,
             "service steady state regressed below 2x rebuild-per-call");
}

/// Returns the serving layout with one channel's margin driven to ~0: the
/// last input's source amplitude at `channel` is rescaled so the pattern
/// exciting only that input nearly cancels the rest at the detector. The
/// f32 margin proof must then reject exactly that detector, making an
/// f32-precision service build a block plan (f32 run + one f64 rescue lane)
/// instead of falling back wholesale.
core::GateLayout thin_one_channel(const BenchSetup& s, std::size_t channel) {
  core::GateLayout layout = s.layout;
  const core::DataParallelGate gate(layout, s.engine);
  const wavesim::EvalPlan probe(gate, wavesim::Precision::kFloat64);
  const auto offsets = probe.detector_offsets();
  for (std::size_t d = 0; d < probe.num_detectors(); ++d) {
    if (probe.detector_channels()[d] != channel) continue;
    const std::size_t i = offsets[d];
    const std::size_t n = offsets[d + 1] - offsets[d];
    SW_REQUIRE(n >= 2, "thin-channel fixture expects >= 2 contributions");
    double head = 0.0;
    for (std::size_t k = 0; k + 1 < n; ++k) head += probe.re0()[i + k];
    const double t = head / probe.re0()[i + n - 1];
    const std::uint32_t input = probe.inputs()[i + n - 1];
    for (auto& src : layout.sources) {
      if (src.channel == channel && src.input == input) src.amplitude *= t;
    }
    return layout;
  }
  throw sw::util::Error("no detector found for the thinned channel");
}

/// Steady-state serving of a layout whose f32 plan is a block plan: the
/// detector mix must surface through PlanCacheStats -> ServiceStats -> the
/// bench artifact, and the served bits must equal the all-f64 reference
/// (the proof guarantees the f32 run, the rescue lanes guarantee the rest).
void run_block_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const core::GateLayout thin = thin_one_channel(s, /*channel=*/5);
  const double words = static_cast<double>(kBatches * kWordsPerBatch);

  const core::DataParallelGate gate(thin, s.engine);
  const wavesim::BatchEvaluator f64(
      gate, {.num_threads = 1, .precision = wavesim::Precision::kFloat64});
  const auto want = f64.evaluate_bits(kWordsPerBatch, s.batch);

  serve::ServiceOptions options;
  options.plan_cache_capacity = 8;
  options.admission.max_queued_requests = kBatches + 8;
  options.evaluator_options = {.num_threads = 1,
                               .precision = wavesim::Precision::kFloat32};
  serve::EvaluatorService svc(s.model, s.wg.material.alpha, options);
  (void)svc.submit(serve::EvalRequest::for_layout(thin, s.batch, kWordsPerBatch)).get();  // warm the cache

  std::vector<std::uint8_t> served;
  const double service_s = bench::best_of_three_seconds(
      [&] { served = run_service_batches(svc, thin, s, kBatches); });

  const auto stats = svc.stats();
  std::printf("block-plan serving (1 thinned channel, f32-precision "
              "service):\n");
  std::printf("steady state     : %8.1f ms  (%10.0f words/s, kernel: %s)\n",
              service_s * 1e3, words / service_s, stats.kernel.c_str());
  std::printf("plan mix         : %llu block plan(s), %llu f32 detectors / "
              "%llu f64 rescue detectors\n\n",
              static_cast<unsigned long long>(stats.cache.block_plans),
              static_cast<unsigned long long>(stats.cache.f32_detectors),
              static_cast<unsigned long long>(
                  stats.cache.f64_rescue_detectors));
  std::fflush(stdout);
  SW_REQUIRE(served == want,
             "block-plan serving diverged from the all-f64 reference");
  SW_REQUIRE(stats.cache.block_plans == 1,
             "thinned layout did not build a block plan in the service");
  SW_REQUIRE(stats.cache.f32_detectors == 7 &&
                 stats.cache.f64_rescue_detectors == 1,
             "expected a 7-proved / 1-rescued detector split in the cache");
  json.add_mix("service_block_plan", stats.kernel, "block-f32",
               words / service_s, stats.cache.f32_detectors,
               stats.cache.f64_rescue_detectors);
}

void BM_RebuildPerCall(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_rebuild_per_call(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWordsPerBatch));
}
BENCHMARK(BM_RebuildPerCall);

void BM_ServiceCachedSubmit(benchmark::State& state) {
  const auto& s = setup();
  serve::EvaluatorService svc(s.model, s.wg.material.alpha);
  (void)svc.submit(serve::EvalRequest::for_layout(s.layout, s.batch, kWordsPerBatch)).get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svc.submit(serve::EvalRequest::for_layout(s.layout, s.batch, kWordsPerBatch)).get().bits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWordsPerBatch));
}
BENCHMARK(BM_ServiceCachedSubmit);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== E7: serving throughput — plan cache vs rebuild per call ===\n\n");
  sw::bench::BenchJson json("BENCH_service.json");
  run_experiment(json);
  run_block_experiment(json);
  json.write("bench_service_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
