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
#include "wavesim/eval_program.h"
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
  std::printf("EvaluatorService : %8.1f ms  (%10.0f words/s, kernel: %s)\n",
              service_s * 1e3, words / service_s, stats.kernel.c_str());
  std::printf("speedup          : %8.1fx  (floor: 2x)\n\n",
              rebuild_s / service_s);
  json.add("rebuild_per_call", stats.kernel, "f64", words / rebuild_s);
  json.add("service_steady_state", stats.kernel, "f64", words / service_s);

  // Kernels side by side on the serving batch shape, through the decode
  // the service runs: the layout's one-stage EvalProgram, its tables.
  {
    const wavesim::EvalProgram program(s.layout, s.engine);
    const auto time_kernel = [&](const wavesim::kernels::Kernel& kernel) {
      return bench::best_of_three_seconds([&] {
        for (std::size_t i = 0; i < kBatches; ++i) {
          benchmark::DoNotOptimize(
              program.evaluate_bits(kWordsPerBatch, s.batch, kernel));
        }
      });
    };
    const double scalar_s = time_kernel(wavesim::kernels::scalar_kernel());
    std::printf("cached-program evaluate_bits, per kernel (single thread):\n");
    std::printf("scalar kernel    : %8.2f ms  (%10.0f words/s)\n",
                scalar_s * 1e3, words / scalar_s);
    json.add("serving_batch_shape", "scalar", "table", words / scalar_s);
    if (const auto* avx2 = wavesim::kernels::avx2_kernel()) {
      const double simd_s = time_kernel(*avx2);
      std::printf("AVX2 kernel      : %8.2f ms  (%10.0f words/s, %.2fx)\n",
                  simd_s * 1e3, words / simd_s, scalar_s / simd_s);
      json.add("serving_batch_shape", "avx2", "table", words / simd_s);
    } else {
      std::printf("AVX2 kernel      : unavailable on this build/host\n");
    }
    if (const auto* avx512 = wavesim::kernels::avx512_kernel()) {
      const double simd512_s = time_kernel(*avx512);
      std::printf("AVX-512 kernel   : %8.2f ms  (%10.0f words/s, %.2fx)\n\n",
                  simd512_s * 1e3, words / simd512_s, scalar_s / simd512_s);
      json.add("serving_batch_shape", "avx512", "table", words / simd512_s);
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
  json.write("bench_service_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
