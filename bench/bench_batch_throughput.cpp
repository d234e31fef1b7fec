// Experiment E6 — batched gate evaluation throughput.
//
// The multi-frequency gate's whole pitch is parallel evaluation: n channels
// per device pass, and (with BatchEvaluator) many input words per layout.
// This bench sweeps the exhaustive 2^(2n) truth table of the 8-channel
// parallel AND gate two ways:
//   * scalar: a per-word loop over ParallelLogicGate::evaluate, which
//     redoes the dispersion-dependent phasor arithmetic for every word;
//   * batched: ParallelLogicGate::pack_batch feeding a BatchEvaluator,
//     which precomputes the two possible phasor contributions of every
//     source once and fans words across the thread pool.
// It prints both throughputs and the speedup (the PR's acceptance bar is
// >= 4x on a multi-core host; the precompute alone clears that bar even on
// one core), cross-checks that both paths decode identically, and registers
// Google Benchmark timings for regression tracking. Its last section times
// the table decode every served request runs (Kernel::eval_tables) against
// the phasor eval_bits, per rung, at m = 3, 5, 7 and 9 inputs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <complex>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/encoding.h"
#include "core/logic_ops.h"
#include "dispersion/fvmsw.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw;
using core::Bits;

constexpr std::size_t kChannels = 8;

/// All 2^(2n) operand-word pairs of the n-channel truth table, a-word in
/// the low n bits of the pair index, b-word in the high n bits.
struct TruthTable {
  std::vector<Bits> a_words;
  std::vector<Bits> b_words;
};

TruthTable exhaustive_words(std::size_t n) {
  const std::size_t words = std::size_t{1} << n;
  TruthTable t;
  t.a_words.reserve(words * words);
  t.b_words.reserve(words * words);
  for (std::size_t av = 0; av < words; ++av) {
    for (std::size_t bv = 0; bv < words; ++bv) {
      Bits a(n), b(n);
      for (std::size_t ch = 0; ch < n; ++ch) {
        a[ch] = static_cast<std::uint8_t>((av >> ch) & 1u);
        b[ch] = static_cast<std::uint8_t>((bv >> ch) & 1u);
      }
      t.a_words.push_back(std::move(a));
      t.b_words.push_back(std::move(b));
    }
  }
  return t;
}

struct BenchSetup {
  disp::Waveguide wg = bench::paper_waveguide();
  disp::FvmswDispersion model{wg};
  core::InlineGateDesigner designer{model};
  wavesim::WaveEngine engine{model, wg.material.alpha};
  core::ParallelLogicGate gate{core::BooleanOp::kAnd,
                               bench::paper_frequencies(), designer, engine};
  TruthTable table = exhaustive_words(kChannels);
};

const BenchSetup& setup() {
  static const BenchSetup s;
  return s;
}

std::vector<std::vector<std::uint8_t>> run_scalar(const BenchSetup& s) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(s.table.a_words.size());
  for (std::size_t w = 0; w < s.table.a_words.size(); ++w) {
    out.push_back(s.gate.evaluate(s.table.a_words[w], s.table.b_words[w]));
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> run_batched(const BenchSetup& s) {
  // Pack the operands, evaluate on a BatchEvaluator. Plan construction
  // stays inside the timed region, so the batched row is the whole cost of
  // one batched call.
  const wavesim::BatchEvaluator evaluator(s.gate.gate());
  const auto decoded = evaluator.evaluate_bits(
      s.table.a_words.size(),
      s.gate.pack_batch(s.table.a_words, s.table.b_words));
  const std::size_t n = kChannels;
  std::vector<std::vector<std::uint8_t>> out(s.table.a_words.size());
  for (std::size_t w = 0; w < out.size(); ++w) {
    out[w].assign(decoded.begin() + static_cast<std::ptrdiff_t>(w * n),
                  decoded.begin() + static_cast<std::ptrdiff_t>((w + 1) * n));
  }
  return out;
}

void run_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const double words = static_cast<double>(s.table.a_words.size());
  std::printf("8-channel parallel AND, exhaustive truth table: %zu words "
              "(2^16 operand pairs x 8 channels)\n\n",
              s.table.a_words.size());

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto scalar = run_scalar(s);
  const auto t1 = clock::now();
  const double scalar_s = std::chrono::duration<double>(t1 - t0).count();

  // Best of three batched runs: the floor check below gates CI, so one
  // noisy-neighbour stall inside a 10 ms window must not read as a
  // regression.
  std::vector<std::vector<std::uint8_t>> batched;
  const double batch_s =
      bench::best_of_three_seconds([&] { batched = run_batched(s); });

  SW_REQUIRE(scalar == batched, "batch result diverged from scalar sweep");
  // Half the acceptance bar as a hard floor so CI catches a gross batch
  // regression without flaking on machine-load noise (~10x headroom today).
  SW_REQUIRE(scalar_s / batch_s >= 2.0,
             "batch path regressed below 2x over the scalar loop");
  std::printf("scalar per-word loop : %8.1f ms  (%10.0f words/s)\n",
              scalar_s * 1e3, words / scalar_s);
  std::printf("BatchEvaluator       : %8.1f ms  (%10.0f words/s)\n",
              batch_s * 1e3, words / batch_s);
  std::printf("speedup              : %8.1fx  (acceptance bar: 4x)\n\n",
              scalar_s / batch_s);
  std::printf("Outputs cross-checked identical on all %zu words.\n\n",
              scalar.size());
  // The batched row's evaluator uses default options, so it runs at the
  // process-wide precision (f32 on that CI leg).
  json.add("scalar_per_word_loop", "none", "f64", words / scalar_s);
  json.add("batch_evaluator", std::string(wavesim::active_kernel_name()),
           std::string(wavesim::precision_name(wavesim::active_precision())),
           words / batch_s);
}

// ------------------------------------------------------------------------
// Kernel comparison: the same exhaustive packed sweep through (a) a rebuilt
// PR 2-shape AoS inner loop, (b) the scalar SoA kernel, (c) the AVX2 SoA
// kernel where the host supports it. Single-threaded evaluator so the
// ratios measure the kernels, not the pool.

/// PR 2's evaluation shape, reconstructed from the SoA plan: interleaved
/// complex pairs + slot per contribution, complex accumulation per word.
struct AosContribution {
  std::size_t slot;
  std::complex<double> zero, one;
};

std::vector<std::uint8_t> run_aos_reference(
    const wavesim::EvalPlan& plan,
    const std::vector<std::vector<AosContribution>>& detectors,
    const std::vector<std::uint8_t>& packed, std::size_t num_words) {
  const std::size_t stride = plan.slot_count();
  const std::size_t channels = plan.num_channels();
  const auto det_channel = plan.detector_channels();
  std::vector<std::uint8_t> out(num_words * channels);
  for (std::size_t w = 0; w < num_words; ++w) {
    const std::uint8_t* word = packed.data() + w * stride;
    std::uint8_t* row = out.data() + w * channels;
    for (std::size_t d = 0; d < detectors.size(); ++d) {
      std::complex<double> acc{0.0, 0.0};
      for (const auto& c : detectors[d]) {
        acc += word[c.slot] ? c.one : c.zero;
      }
      row[det_channel[d]] = acc.real() < 0.0 ? 1 : 0;
    }
  }
  return out;
}

/// The column kernel's own rate on a packed sweep, without the row edges:
/// the rows become bit-sliced columns once, outside the timing, and only
/// Kernel::eval_bits is timed. Printed under each row-API line with the
/// kernel's input plus output bytes per word, (slots + channels) / 8, so
/// the split between edge and kernel stays visible. The floors below stay
/// on the row API.
void print_column_kernel(const wavesim::kernels::Kernel& kernel,
                         const wavesim::EvalPlan& plan,
                         const std::vector<std::uint8_t>& packed,
                         std::size_t num_words) {
  const std::size_t slots = plan.slot_count();
  const std::size_t stride = wavesim::kernels::column_words(num_words);
  std::vector<std::uint64_t> columns((slots + plan.num_channels()) * stride);
  kernel.to_columns(packed.data(), slots, num_words, slots, columns.data(),
                    stride);
  std::vector<const std::uint64_t*> inputs(slots);
  for (std::size_t j = 0; j < slots; ++j) {
    inputs[j] = columns.data() + j * stride;
  }
  std::uint64_t* outputs = columns.data() + slots * stride;
  const double seconds = bench::best_of_three_seconds([&] {
    kernel.eval_bits(plan, inputs.data(), num_words, outputs, stride);
  });
  std::printf("  column kernel only : %8.2f ms  (%10.0f words/s, %.0f bytes "
              "per word in + out)\n",
              seconds * 1e3, static_cast<double>(num_words) / seconds,
              static_cast<double>(slots + plan.num_channels()) / 8.0);
}

void run_kernel_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  // Single inline thread: kernel-vs-kernel, no pool fan-out in the ratio.
  // Precision pinned to f64 here so the f64 rows of the comparison stay
  // f64 even under an SW_EVAL_PRECISION=f32 CI leg; the f32 section below
  // pins its own.
  const wavesim::BatchEvaluator evaluator(
      s.gate.gate(),
      {.num_threads = 1, .precision = wavesim::Precision::kFloat64});
  const wavesim::EvalPlan& plan = evaluator.plan();
  const std::size_t stride = evaluator.slot_count();
  const std::size_t num_words = s.table.a_words.size();

  // Pack the exhaustive operand sweep (slots per channel: a, b, pin = 0
  // for AND; the pin stays at the zero-initialised value).
  const std::size_t num_inputs = plan.num_inputs();
  std::vector<std::uint8_t> packed(num_words * stride);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      packed[w * stride + ch * num_inputs] = s.table.a_words[w][ch];
      packed[w * stride + ch * num_inputs + 1] = s.table.b_words[w][ch];
    }
  }

  std::vector<std::vector<AosContribution>> aos(plan.num_detectors());
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    const auto offsets = plan.detector_offsets();
    for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
      aos[d].push_back({plan.slots()[i],
                        {plan.re0()[i], plan.im0()[i]},
                        {plan.re1()[i], plan.im1()[i]}});
    }
  }

  std::vector<std::uint8_t> aos_bits, scalar_bits, simd_bits;
  const double aos_s = bench::best_of_three_seconds([&] {
    aos_bits = run_aos_reference(plan, aos, packed, num_words);
  });
  const auto& scalar = wavesim::kernels::scalar_kernel();
  const double scalar_s = bench::best_of_three_seconds([&] {
    scalar_bits = evaluator.evaluate_bits(num_words, packed, scalar);
  });
  SW_REQUIRE(scalar_bits == aos_bits,
             "scalar kernel diverged from the AoS reference decode");
  // Ground the whole comparison in the Boolean truth, not just internal
  // consistency: a packing bug would fool all three loops identically.
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      const std::uint8_t want =
          s.table.a_words[w][ch] & s.table.b_words[w][ch];
      SW_REQUIRE(scalar_bits[w * kChannels + ch] == want,
                 "packed sweep decode diverged from the AND truth table");
    }
  }

  const double words = static_cast<double>(num_words);
  std::printf("packed evaluate_bits, same sweep (single thread):\n");
  std::printf("AoS reference (PR 2) : %8.1f ms  (%10.0f words/s)\n",
              aos_s * 1e3, words / aos_s);
  std::printf("scalar SoA kernel    : %8.1f ms  (%10.0f words/s, %.2fx)\n",
              scalar_s * 1e3, words / scalar_s, aos_s / scalar_s);
  print_column_kernel(scalar, plan, packed, num_words);
  json.add("exhaustive_2^16_sweep", "aos_reference", "f64", words / aos_s);
  json.add("exhaustive_2^16_sweep", "scalar", "f64", words / scalar_s);
  // The portable acceptance bar: the scalar-kernel fallback must not be
  // slower than the PR 2 AoS shape it replaced (parity; the hard floor
  // leaves 10% for machine-load noise since both sides are timed here).
  SW_REQUIRE(aos_s / scalar_s >= 0.9,
             "scalar SoA kernel regressed below the AoS baseline");

  // f32 plan over the same gate: the margin analysis must accept the paper
  // layout (decode margins are orders of magnitude above the f32 error
  // bound), and every decode must stay bit-identical to f64 — that is the
  // fallback's contract, checked here on the full 2^16 sweep.
  const wavesim::BatchEvaluator evaluator_f32(
      s.gate.gate(),
      {.num_threads = 1, .precision = wavesim::Precision::kFloat32});
  SW_REQUIRE(evaluator_f32.effective_precision() ==
                 wavesim::Precision::kFloat32,
             "paper layout unexpectedly rejected the f32 plan");
  std::vector<std::uint8_t> f32_scalar_bits, f32_simd_bits;
  const double f32_scalar_s = bench::best_of_three_seconds([&] {
    f32_scalar_bits =
        evaluator_f32.evaluate_bits(num_words, packed,
                                    wavesim::kernels::scalar_kernel());
  });
  SW_REQUIRE(f32_scalar_bits == scalar_bits,
             "f32 scalar decode diverged from the f64 decode");
  std::printf("scalar SoA f32       : %8.1f ms  (%10.0f words/s, %.2fx)\n",
              f32_scalar_s * 1e3, words / f32_scalar_s,
              aos_s / f32_scalar_s);
  print_column_kernel(scalar, evaluator_f32.plan(), packed, num_words);
  json.add("exhaustive_2^16_sweep", "scalar", "f32", words / f32_scalar_s);

  double f32_avx2_s = 0.0;  // the avx512 section compares against this
  if (const auto* avx2 = wavesim::kernels::avx2_kernel()) {
    const double simd_s = bench::best_of_three_seconds([&] {
      simd_bits = evaluator.evaluate_bits(num_words, packed, *avx2);
    });
    SW_REQUIRE(simd_bits == scalar_bits,
               "AVX2 kernel diverged from the scalar kernel decode");
    std::printf("AVX2 SoA kernel      : %8.1f ms  (%10.0f words/s, %.2fx)\n",
                simd_s * 1e3, words / simd_s, aos_s / simd_s);
    print_column_kernel(*avx2, plan, packed, num_words);
    json.add("exhaustive_2^16_sweep", "avx2", "f64", words / simd_s);
    // Raised floor, applied only where the host verifiably runs AVX2: the
    // SIMD kernel at >= 2x the PR 2 AoS words/s (the acceptance bar).
    SW_REQUIRE(aos_s / simd_s >= 2.0,
               "AVX2 kernel below 2x the AoS baseline on an AVX2 host");

    // f32 AVX2: eight words per register instead of four, half the
    // constant traffic. The acceptance bar of the f32 PR: >= 1.5x the f64
    // AVX2 words/s on the same sweep, with bit-identical decodes.
    const double f32_simd_s = bench::best_of_three_seconds([&] {
      f32_simd_bits = evaluator_f32.evaluate_bits(num_words, packed, *avx2);
    });
    SW_REQUIRE(f32_simd_bits == scalar_bits,
               "f32 AVX2 decode diverged from the f64 decode");
    std::printf("AVX2 SoA f32         : %8.1f ms  (%10.0f words/s, %.2fx, "
                "%.2fx over f64 AVX2)\n",
                f32_simd_s * 1e3, words / f32_simd_s, aos_s / f32_simd_s,
                simd_s / f32_simd_s);
    print_column_kernel(*avx2, evaluator_f32.plan(), packed, num_words);
    json.add("exhaustive_2^16_sweep", "avx2", "f32", words / f32_simd_s);
    SW_REQUIRE(simd_s / f32_simd_s >= 1.5,
               "f32 AVX2 kernel below 1.5x the f64 AVX2 kernel");
    f32_avx2_s = f32_simd_s;
  } else {
    std::printf("AVX2 SoA kernel      : unavailable on this build/host\n");
  }

  if (const auto* avx512 = wavesim::kernels::avx512_kernel()) {
    // AVX-512: 8 doubles / 16 floats per register, mask-register blends.
    std::vector<std::uint8_t> avx512_bits, f32_avx512_bits;
    const double simd512_s = bench::best_of_three_seconds([&] {
      avx512_bits = evaluator.evaluate_bits(num_words, packed, *avx512);
    });
    SW_REQUIRE(avx512_bits == scalar_bits,
               "AVX-512 kernel diverged from the scalar kernel decode");
    std::printf("AVX-512 SoA kernel   : %8.1f ms  (%10.0f words/s, %.2fx)\n",
                simd512_s * 1e3, words / simd512_s, aos_s / simd512_s);
    print_column_kernel(*avx512, plan, packed, num_words);
    json.add("exhaustive_2^16_sweep", "avx512", "f64", words / simd512_s);
    SW_REQUIRE(aos_s / simd512_s >= 2.0,
               "AVX-512 kernel below 2x the AoS baseline on an AVX-512 host");

    const double f32_simd512_s = bench::best_of_three_seconds([&] {
      f32_avx512_bits =
          evaluator_f32.evaluate_bits(num_words, packed, *avx512);
    });
    SW_REQUIRE(f32_avx512_bits == scalar_bits,
               "f32 AVX-512 decode diverged from the f64 decode");
    std::printf("AVX-512 SoA f32      : %8.1f ms  (%10.0f words/s, %.2fx, "
                "%.2fx over f64 AVX-512",
                f32_simd512_s * 1e3, words / f32_simd512_s,
                aos_s / f32_simd512_s, simd512_s / f32_simd512_s);
    if (f32_avx2_s > 0.0) {
      std::printf(", %.2fx over f32 AVX2", f32_avx2_s / f32_simd512_s);
    }
    std::printf(")\n");
    print_column_kernel(*avx512, evaluator_f32.plan(), packed, num_words);
    json.add("exhaustive_2^16_sweep", "avx512", "f32", words / f32_simd512_s);
    // The acceptance bar of the AVX-512 PR: the 16-wide f32 kernel at
    // >= 1.5x the AVX2 f32 words/s on the same sweep. Both sides are timed
    // in this process, so the full bar holds as the CI floor.
    if (f32_avx2_s > 0.0) {
      SW_REQUIRE(f32_avx2_s / f32_simd512_s >= 1.5,
                 "f32 AVX-512 kernel below 1.5x the f32 AVX2 kernel");
    }
  } else {
    std::printf("AVX-512 SoA kernel   : unavailable on this build/host\n");
  }
  std::printf("active kernel        : %s\n\n",
              std::string(wavesim::active_kernel_name()).c_str());
}

// ------------------------------------------------------------------------
// Mixed precision: one thin detector out of eight. The per-detector margin
// proof rejects exactly the thinned channel, so the plan partitions into a
// block-f32 plan — f32 accumulation on the seven proved detectors, f64
// rescue lanes for the thin one — which must land between the all-f64
// floor and the all-f32 ceiling. Acceptance bar: >= 1.3x the all-f64
// plan's words/s on the same sweep.

/// Rescales one channel of the AND fabric so one bit assignment nearly
/// cancels at that channel's detector: with phase-pi contributions being
/// exact negations, scaling the third source by (re0[0] + re0[1]) /
/// re0[2] zeroes that assignment's sum. The f64 decode stays
/// deterministic; the f32 margin proof must refuse exactly this detector.
core::GateLayout thin_one_channel(const BenchSetup& s,
                                  std::size_t channel) {
  core::GateLayout layout = s.gate.layout();
  const core::DataParallelGate gate(layout, s.engine);
  const wavesim::EvalPlan probe(gate, wavesim::Precision::kFloat64);
  const auto offsets = probe.detector_offsets();
  for (std::size_t d = 0; d < probe.num_detectors(); ++d) {
    if (probe.detector_channels()[d] != channel) continue;
    SW_REQUIRE(offsets[d + 1] - offsets[d] == 3,
               "thin-channel fixture expects 3 contributions");
    const std::size_t i = offsets[d];
    const double t =
        (probe.re0()[i] + probe.re0()[i + 1]) / probe.re0()[i + 2];
    const std::uint32_t input = probe.inputs()[i + 2];
    for (auto& src : layout.sources) {
      if (src.channel == channel && src.input == input) src.amplitude *= t;
    }
    return layout;
  }
  throw sw::util::Error("no detector found for the thinned channel");
}

void run_mixed_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  const core::GateLayout thin = thin_one_channel(s, /*channel=*/3);
  const core::DataParallelGate gate(thin, s.engine);
  const wavesim::BatchEvaluator f64(
      gate, {.num_threads = 1, .precision = wavesim::Precision::kFloat64});
  const wavesim::BatchEvaluator block(
      gate, {.num_threads = 1, .precision = wavesim::Precision::kFloat32});
  const wavesim::EvalPlan& plan = block.plan();
  SW_REQUIRE(plan.is_block(),
             "thin-1-of-8 layout did not partition into a block plan");
  SW_REQUIRE(plan.num_f32_detectors() == 7 &&
                 plan.num_f64_rescue_detectors() == 1,
             "expected a 7-proved / 1-rescued detector split");

  // The same packed exhaustive sweep as the kernel comparison.
  const std::size_t stride = f64.slot_count();
  const std::size_t num_inputs = plan.num_inputs();
  const std::size_t num_words = s.table.a_words.size();
  std::vector<std::uint8_t> packed(num_words * stride);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < kChannels; ++ch) {
      packed[w * stride + ch * num_inputs] = s.table.a_words[w][ch];
      packed[w * stride + ch * num_inputs + 1] = s.table.b_words[w][ch];
    }
  }

  std::vector<std::uint8_t> f64_bits, block_bits;
  const double f64_s = bench::best_of_three_seconds(
      [&] { f64_bits = f64.evaluate_bits(num_words, packed); });
  const double block_s = bench::best_of_three_seconds(
      [&] { block_bits = block.evaluate_bits(num_words, packed); });
  SW_REQUIRE(block_bits == f64_bits,
             "block-f32 decode diverged from the all-f64 decode");

  const double words = static_cast<double>(num_words);
  const std::string kernel(wavesim::active_kernel_name());
  std::printf("1-thin-of-8 block plan (%s), same sweep (single thread):\n",
              plan.precision_label().c_str());
  std::printf("all-f64 plan         : %8.1f ms  (%10.0f words/s)\n",
              f64_s * 1e3, words / f64_s);
  std::printf("block-f32 plan       : %8.1f ms  (%10.0f words/s, %.2fx; "
              "bar: 1.3x)\n\n",
              block_s * 1e3, words / block_s, f64_s / block_s);
  json.add("thin_1_of_8_sweep", kernel, "f64", words / f64_s);
  json.add_mix("thin_1_of_8_sweep", kernel, "block-f32", words / block_s,
               plan.num_f32_detectors(), plan.num_f64_rescue_detectors());
  // The acceptance bar only binds where a SIMD kernel actually widens the
  // f32 run; the forced-scalar CI leg still cross-checks the decode above.
  if (kernel != "scalar") {
    SW_REQUIRE(f64_s / block_s >= 1.3,
               "block-f32 plan below 1.3x the all-f64 plan");
  }
}

// ------------------------------------------------------------------------
// Tables: the decode EvalProgram, so every served request, runs on a
// tabulated plan. Per rung and gate width, the column kernel's eval_tables
// next to its phasor eval_bits (f64 plan) on the same 2^16 words' columns,
// with the decodes checked equal: m = 3 is the bench gate above, m = 5, 7
// and 9 are 8-channel majority gates. No floor here: the three f32 floors
// above keep timing the phasor path through BatchEvaluator.

/// Best-of-three seconds per call of `fn`, each timing repeating it until at
/// least 10 ms pass, so a microsecond-scale kernel call is timed over many.
template <typename Fn>
double seconds_per_call(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    if (std::chrono::duration<double>(clock::now() - t0).count() >= 0.01) {
      break;
    }
    reps *= 2;
  }
  return bench::best_of_three_seconds([&] {
           for (std::size_t r = 0; r < reps; ++r) fn();
         }) /
         static_cast<double>(reps);
}

void run_table_experiment(bench::BenchJson& json) {
  const auto& s = setup();
  constexpr std::size_t kWords = std::size_t{1} << 16;
  const std::size_t stride = wavesim::kernels::column_words(kWords);
  std::vector<const wavesim::kernels::Kernel*> rungs{
      &wavesim::kernels::scalar_kernel()};
  if (const auto* avx2 = wavesim::kernels::avx2_kernel()) rungs.push_back(avx2);
  if (const auto* avx512 = wavesim::kernels::avx512_kernel()) {
    rungs.push_back(avx512);
  }
  std::printf("tables vs phasor eval_bits (f64), column kernel only, %zu "
              "words of 8 channels (single thread):\n",
              kWords);
  std::mt19937_64 rng(2026);
  for (const std::size_t m : {3, 5, 7, 9}) {
    core::GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies = bench::paper_frequencies();
    const core::DataParallelGate majority(s.designer.design(spec), s.engine);
    const core::DataParallelGate& gate = m == 3 ? s.gate.gate() : majority;
    const wavesim::EvalPlan plan(gate, wavesim::Precision::kFloat64);
    SW_REQUIRE(plan.tabulated(), "bench gate unexpectedly not tabulated");
    const std::size_t slots = plan.slot_count();
    std::vector<std::uint64_t> columns(slots * stride);
    for (auto& c : columns) c = rng();
    std::vector<const std::uint64_t*> inputs(slots);
    for (std::size_t j = 0; j < slots; ++j) {
      inputs[j] = columns.data() + j * stride;
    }
    std::vector<std::uint64_t> phasor(kChannels * stride);
    std::vector<std::uint64_t> tables(kChannels * stride);
    const std::string name = "column_kernel_m" + std::to_string(m) + "_2^16";
    for (const auto* kernel : rungs) {
      const double bits_s = seconds_per_call([&] {
        kernel->eval_bits(plan, inputs.data(), kWords, phasor.data(), stride);
      });
      const double tables_s = seconds_per_call([&] {
        kernel->eval_tables(plan, inputs.data(), kWords, tables.data(),
                            stride);
      });
      SW_REQUIRE(tables == phasor,
                 "eval_tables diverged from the phasor eval_bits decode");
      std::printf("  m = %zu, %-7s: tables %7.3f ns/word (%3zu muxes), "
                  "eval_bits f64 %7.3f ns/word, %6.1fx\n",
                  m, kernel->name, tables_s * 1e9 / kWords,
                  plan.num_table_muxes(), bits_s * 1e9 / kWords,
                  bits_s / tables_s);
      json.add(name, kernel->name, "table", kWords / tables_s);
      json.add(name, kernel->name, "f64", kWords / bits_s);
    }
  }
  std::printf("\n");
}

void BM_ScalarTruthTableSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_scalar(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.table.a_words.size()));
}
BENCHMARK(BM_ScalarTruthTableSweep)->Unit(benchmark::kMillisecond);

void BM_BatchedTruthTableSweep(benchmark::State& state) {
  const auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batched(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.table.a_words.size()));
}
BENCHMARK(BM_BatchedTruthTableSweep)->Unit(benchmark::kMillisecond);

void BM_BatchedSweepReusedPlan(benchmark::State& state) {
  // Long-lived evaluator over the byte majority fabric: the steady-serving
  // shape, plan built once and reused across batches.
  const auto& s = setup();
  core::GateSpec spec;
  spec.num_inputs = 3;
  spec.frequencies = bench::paper_frequencies();
  const core::DataParallelGate gate(s.designer.design(spec), s.engine);
  const wavesim::BatchEvaluator evaluator(gate);
  const auto patterns = core::all_patterns(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_uniform(patterns));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns.size()));
}
BENCHMARK(BM_BatchedSweepReusedPlan);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E6: batch evaluation throughput — scalar vs batched ===\n\n");
  sw::bench::BenchJson json("BENCH_batch.json");
  run_experiment(json);
  run_kernel_experiment(json);
  run_mixed_experiment(json);
  run_table_experiment(json);
  json.write("bench_batch_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
