// Experiment E9 — compiled-program evaluation throughput.
//
// The gate-cascade compiler turns an arbitrary truth table into a
// multi-stage EvalProgram that builds one stage artefact (gate + plan) per
// distinct stage GateSpec and gathers each stage's inputs slot by slot,
// deciding every slot's source once per block rather than per word. This
// bench measures what that buys over the pre-compiler serving shape, where
// every batch pays per-stage design + plan construction and materialises
// each stage's inputs by hand:
//   * staged: per batch, for every stage, design the gate, build a
//     one-shot BatchEvaluator and gather its input matrix from the
//     primary word / earlier stage outputs (the MajorityCascade-era
//     client loop);
//   * fused: one long-lived EvalProgram evaluating the same primary
//     matrix end to end.
// Both paths sweep a synthesized 3-input function (0x1B — an arbitrary
// non-special table, so the cascade is a real multi-gate chain) over the
// paper's 8-channel fabric, are cross-checked bit-exact against each
// other and against the Boolean truth table, and the fused path must
// clear 1.5x the staged one — the PR's CI floor, far under the typical
// margin so machine-load noise cannot flake the gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw;

constexpr std::size_t kChannels = 8;
constexpr std::uint16_t kFunctionBits = 0x1B;
// One serving-sized batch per timed call: small enough that the staged
// path's per-batch design + plan builds do not amortise away (the cost
// the compiled program exists to delete), large enough to keep the SIMD
// word loop out of startup noise.
constexpr std::size_t kNumWords = 512;

struct BenchSetup {
  disp::Waveguide wg = bench::paper_waveguide();
  disp::FvmswDispersion model{wg};
  core::InlineGateDesigner designer{model};
  wavesim::WaveEngine engine{model, wg.material.alpha};
  wavesim::ProgramSpec spec = make_spec();
  // The fused artefact: built once, reused per batch (what PlanCache
  // hands the service on a program hit).
  wavesim::EvalProgram program{spec, designer, engine};
  std::vector<std::uint8_t> primary = make_primary(spec);

  static wavesim::ProgramSpec make_spec() {
    compile::Synthesizer synth;
    const auto circuit =
        synth.compile(compile::TruthTable(3, kFunctionBits));
    core::GateSpec base;
    base.num_inputs = 3;
    base.frequencies = bench::paper_frequencies();
    return compile::lower_to_program(circuit, base);
  }

  static std::vector<std::uint8_t> make_primary(
      const wavesim::ProgramSpec& spec) {
    // Channel ch of word w carries assignment (w + ch) % 8: every channel
    // cycles through all eight input patterns, out of phase with its
    // neighbours.
    const std::size_t cols = spec.primary_slot_count();
    std::vector<std::uint8_t> primary(kNumWords * cols);
    for (std::size_t w = 0; w < kNumWords; ++w) {
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        const std::size_t a = (w + ch) % 8;
        for (std::size_t i = 0; i < 3; ++i) {
          primary[w * cols + ch * 3 + i] =
              static_cast<std::uint8_t>((a >> i) & 1);
        }
      }
    }
    return primary;
  }
};

const BenchSetup& setup() {
  static const BenchSetup s;
  return s;
}

/// The pre-compiler client loop: per stage, design + one-shot evaluator +
/// hand-gathered input matrix, intermediates materialised between stages.
std::vector<std::uint8_t> run_staged(const BenchSetup& s) {
  using wavesim::SlotSource;
  const std::size_t n = s.spec.num_channels();
  std::vector<std::vector<std::uint8_t>> stage_bits;
  for (const auto& ss : s.spec.stages) {
    const core::DataParallelGate gate(s.designer.design(ss.gate), s.engine);
    const wavesim::BatchEvaluator evaluator(gate);
    const std::size_t m = ss.gate.num_inputs;
    const std::size_t cols = s.spec.primary_slot_count();
    std::vector<std::uint8_t> packed(kNumWords * n * m);
    for (std::size_t w = 0; w < kNumWords; ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        for (std::size_t k = 0; k < m; ++k) {
          const auto& src = ss.sources[ch * m + k];
          bool v = false;
          switch (src.kind) {
            case SlotSource::Kind::kZero: v = false; break;
            case SlotSource::Kind::kOne: v = true; break;
            case SlotSource::Kind::kPrimary:
              v = s.primary[w * cols + src.index] != 0;
              break;
            case SlotSource::Kind::kStage:
              v = stage_bits[src.stage][w * n + src.index] != 0;
              break;
          }
          packed[w * n * m + ch * m + k] =
              static_cast<std::uint8_t>(v != src.negated);
        }
      }
    }
    stage_bits.push_back(evaluator.evaluate_bits(kNumWords, packed));
  }
  return stage_bits.back();
}

std::vector<std::uint8_t> run_fused(const BenchSetup& s) {
  return s.program.evaluate_bits(kNumWords, s.primary);
}

void run_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const double words = static_cast<double>(kNumWords);
  std::printf("compiled cascade for table 0x%02X: %zu stages, depth %zu, "
              "%zu channels, %zu words/batch\n\n",
              kFunctionBits, s.spec.num_stages(), s.spec.depth(), kChannels,
              kNumWords);

  // Best of three per path: the floor check gates CI, so one scheduler
  // stall must not read as a regression.
  std::vector<std::uint8_t> staged, fused;
  const double staged_s =
      bench::best_of_three_seconds([&] { staged = run_staged(s); });
  const double fused_s =
      bench::best_of_three_seconds([&] { fused = run_fused(s); });

  SW_REQUIRE(fused == staged,
             "fused program diverged from the staged per-stage sweep");
  const compile::TruthTable table(3, kFunctionBits);
  const std::size_t cols = s.spec.primary_slot_count();
  for (std::size_t w = 0; w < kNumWords; ++w) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      std::size_t a = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        a |= static_cast<std::size_t>(s.primary[w * cols + ch * 3 + i]) << i;
      }
      SW_REQUIRE(fused[w * kChannels + ch] == (table.value(a) ? 1 : 0),
                 "compiled program diverged from the Boolean reference");
    }
  }
  SW_REQUIRE(staged_s / fused_s >= 1.5,
             "fused program below 1.5x the staged per-stage path");

  std::printf("staged per-stage loop: %8.2f ms  (%10.0f words/s)\n",
              staged_s * 1e3, words / staged_s);
  std::printf("fused EvalProgram    : %8.2f ms  (%10.0f words/s)\n",
              fused_s * 1e3, words / fused_s);
  std::printf("speedup              : %8.1fx  (CI floor: 1.5x)\n\n",
              staged_s / fused_s);
  std::printf("Outputs cross-checked against the staged sweep and the "
              "Boolean table on all %zu words.\n\n", kNumWords);

  json.add("staged_per_stage", std::string(wavesim::active_kernel_name()),
           std::string(wavesim::precision_name(wavesim::active_precision())),
           words / staged_s);
  json.add("fused_program", std::string(wavesim::active_kernel_name()),
           std::string(wavesim::precision_name(wavesim::active_precision())),
           words / fused_s);
}

void BM_StagedCascadeSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_staged(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNumWords));
}
BENCHMARK(BM_StagedCascadeSweep)->Unit(benchmark::kMillisecond);

void BM_FusedProgramSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fused(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNumWords));
}
BENCHMARK(BM_FusedProgramSweep)->Unit(benchmark::kMillisecond);

// Per-layer number for program builds: one EvalProgram construction of the
// same cascade (each distinct stage GateSpec designed and planned once),
// what a plan-cache miss pays before any stage is shared across programs.
void BM_ProgramBuild(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    const wavesim::EvalProgram program(s.spec, s.designer, s.engine);
    benchmark::DoNotOptimize(&program);
  }
}
BENCHMARK(BM_ProgramBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E9: compiled-program throughput — staged vs fused ===\n\n");
  sw::bench::BenchJson json("BENCH_program.json");
  run_experiment(json);
  json.write("bench_program_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
