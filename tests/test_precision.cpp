// The margin-aware f32 fallback, end to end: a layout whose decode margin
// is artificially thin must be refused single precision at plan build time
// and transparently served from the double plan — by EvalPlan, by
// BatchEvaluator, by PlanCache (whose keys carry the precision bit and
// whose stats count the fallbacks) and by EvaluatorService (whose
// ServiceStats report the configured precision and the per-layout
// verdicts). A paper-margin layout on the same fixtures must keep f32.
//
// The margin proof is per DETECTOR: when only some channels are thin the
// plan partitions into a block-f32 plan (proved detectors accumulate f32,
// rejected ones ride f64 rescue lanes) that must decode bit-identical to
// the all-f64 plan on every kernel, and the detector mix must surface in
// PlanCacheStats / ServiceStats.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "core/logic_ops.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::core;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::EvalPlan;
using sw::wavesim::Precision;

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

struct PrecisionFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  sw::wavesim::WaveEngine engine{model, wg.material.alpha};

  GateLayout majority_layout(std::size_t m, std::size_t n) const {
    GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies.clear();
    for (std::size_t i = 1; i <= n; ++i) {
      spec.frequencies.push_back(1e10 * static_cast<double>(i));
    }
    return designer.design(spec);
  }

  /// Rescales one channel of a 3-input layout so a bit assignment sums to
  /// (nearly) zero at that channel's detector: with phase-pi contributions
  /// being exact negations, scaling the third source's amplitude by
  /// (re0[0] + re0[1]) / re0[2] makes the (0, 0, 1) assignment cancel.
  /// The double plan still decodes deterministically (bit-exact vs the
  /// scalar gate path either way); f32 must refuse exactly that detector
  /// while every other channel keeps its paper margin.
  GateLayout thin_channel(GateLayout layout, std::size_t channel) const {
    const DataParallelGate gate(layout, engine);
    const EvalPlan probe(gate, sw::wavesim::kDefaultFreqTol,
                         Precision::kFloat64);
    const auto offsets = probe.detector_offsets();
    for (std::size_t d = 0; d < probe.num_detectors(); ++d) {
      if (probe.detector_channels()[d] != channel) continue;
      // Three contributions per detector on the majority fabric; map the
      // third back to its source via the plan's input index rather than
      // assuming the source vector's order. Throw (clean test failure)
      // rather than index past the spans if a designer change ever alters
      // the shape.
      if (offsets[d + 1] - offsets[d] != 3) {
        throw sw::util::Error("thin-channel fixture expects 3 contributions");
      }
      const std::size_t i = offsets[d];
      const double t =
          (probe.re0()[i] + probe.re0()[i + 1]) / probe.re0()[i + 2];
      EXPECT_GT(t, 0.0);  // phase-0 contributions are co-phased by design
      const std::uint32_t input = probe.inputs()[i + 2];
      for (auto& s : layout.sources) {
        if (s.channel == channel && s.input == input) s.amplitude *= t;
      }
      return layout;
    }
    throw sw::util::Error("no detector found for the thinned channel");
  }

  /// The single-channel special case the all-or-nothing fallback tests use.
  GateLayout thin_margin_layout() const {
    return thin_channel(majority_layout(3, 1), 0);
  }
};

std::vector<std::uint8_t> random_matrix(std::size_t words, std::size_t slots,
                                        unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::uint8_t> m(words * slots);
  for (auto& b : m) b = coin(rng) ? 1 : 0;
  return m;
}

// ---------------------------------------------------------------- plans --

TEST(MarginFallback, ThinMarginLayoutFallsBackToDouble) {
  const PrecisionFixture fix;
  const GateLayout thin = fix.thin_margin_layout();
  const DataParallelGate gate(thin, fix.engine);

  const EvalPlan plan(gate, sw::wavesim::kDefaultFreqTol,
                      Precision::kFloat32);
  EXPECT_EQ(plan.requested_precision(), Precision::kFloat32);
  EXPECT_EQ(plan.effective_precision(), Precision::kFloat64);
  EXPECT_FALSE(plan.has_f32());
  EXPECT_TRUE(plan.re0_f32().empty());
  EXPECT_FALSE(plan.f32_rejection().empty());
}

TEST(MarginFallback, FallbackEvaluatorDecodesLikeTheDoublePath) {
  const PrecisionFixture fix;
  const GateLayout thin = fix.thin_margin_layout();
  const DataParallelGate gate(thin, fix.engine);

  const BatchEvaluator f32(gate, {.num_threads = 1,
                                  .precision = Precision::kFloat32});
  EXPECT_EQ(f32.effective_precision(), Precision::kFloat64);
  const BatchEvaluator f64(gate, {.num_threads = 1,
                                  .precision = Precision::kFloat64});

  // Every word of the 2^3 sweep, packed; the fallback must make these
  // bitwise equal even on the near-cancelling assignment.
  const auto patterns = all_patterns(3);
  std::vector<std::uint8_t> packed(patterns.size() * f32.slot_count());
  for (std::size_t w = 0; w < patterns.size(); ++w) {
    for (std::size_t in = 0; in < 3; ++in) {
      packed[w * f32.slot_count() + in] = patterns[w][in];
    }
  }
  EXPECT_EQ(f32.evaluate_bits(patterns.size(), packed),
            f64.evaluate_bits(patterns.size(), packed));
  // And both agree with the scalar gate path bit-for-bit.
  for (std::size_t w = 0; w < patterns.size(); ++w) {
    const auto want = gate.evaluate_uniform(patterns[w]);
    const auto got = f32.evaluate_bits(patterns.size(), packed);
    EXPECT_EQ(got[w], want[0].logic) << "word " << w;
  }
}

TEST(MarginFallback, WideMarginLayoutKeepsFloat32) {
  const PrecisionFixture fix;
  const DataParallelGate gate(fix.majority_layout(3, 2), fix.engine);
  const EvalPlan plan(gate, sw::wavesim::kDefaultFreqTol,
                      Precision::kFloat32);
  EXPECT_TRUE(plan.has_f32()) << plan.f32_rejection();
  EXPECT_EQ(plan.effective_precision(), Precision::kFloat32);
}

// ---------------------------------------------------------------- block --

using sw::wavesim::kernels::Kernel;

/// Every kernel available on this build/host, scalar first.
std::vector<const Kernel*> all_kernels() {
  std::vector<const Kernel*> kernels{&sw::wavesim::kernels::scalar_kernel()};
  if (const Kernel* k = sw::wavesim::kernels::avx2_kernel()) {
    kernels.push_back(k);
  }
  if (const Kernel* k = sw::wavesim::kernels::avx512_kernel()) {
    kernels.push_back(k);
  }
  return kernels;
}

/// The exhaustive operand sweep of a logic op packed into the evaluate_bits
/// matrix: binary ops sweep all 2^n x 2^n (a, b) word pairs with the
/// constant input pinned per op (2^16 words at n = 8); unary ops sweep the
/// 2^n a-words.
std::vector<std::uint8_t> exhaustive_op_matrix(BooleanOp op, std::size_t n,
                                               std::size_t num_inputs,
                                               std::size_t* num_words) {
  const bool binary =
      op != BooleanOp::kBuffer && op != BooleanOp::kNot;
  const std::uint8_t pin =
      (op == BooleanOp::kOr || op == BooleanOp::kNor) ? 1 : 0;
  const std::size_t stride = n * num_inputs;
  const std::size_t a_values = std::size_t{1} << n;
  const std::size_t b_values = binary ? a_values : 1;
  *num_words = a_values * b_values;
  std::vector<std::uint8_t> bits(*num_words * stride);
  std::size_t w = 0;
  for (std::size_t av = 0; av < a_values; ++av) {
    for (std::size_t bv = 0; bv < b_values; ++bv, ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        std::uint8_t* slot = bits.data() + w * stride + ch * num_inputs;
        slot[0] = static_cast<std::uint8_t>((av >> ch) & 1u);
        if (binary) {
          slot[1] = static_cast<std::uint8_t>((bv >> ch) & 1u);
          slot[2] = pin;
        }
      }
    }
  }
  return bits;
}

TEST(BlockPrecision, OneThinDetectorYieldsBlockPlan) {
  const PrecisionFixture fix;
  // Thin a middle channel of an 8-channel majority fabric: exactly one
  // detector must lose its f32 grant, and the plan must partition rather
  // than abandon single precision wholesale.
  const GateLayout layout = fix.thin_channel(fix.majority_layout(3, 8), 3);
  const DataParallelGate gate(layout, fix.engine);
  const EvalPlan plan(gate, sw::wavesim::kDefaultFreqTol,
                      Precision::kFloat32);
  const std::size_t nd = plan.num_detectors();
  ASSERT_EQ(nd, 8u);

  EXPECT_TRUE(plan.is_block());
  EXPECT_EQ(plan.num_f32_detectors(), 7u);
  EXPECT_EQ(plan.num_f64_rescue_detectors(), 1u);
  // A block plan is not "all f32": the coarse precision channel keeps its
  // all-or-nothing meaning and the rejection note names the rescue.
  EXPECT_FALSE(plan.has_f32());
  EXPECT_EQ(plan.effective_precision(), Precision::kFloat64);
  EXPECT_NE(plan.f32_rejection().find("rescue"), std::string::npos)
      << plan.f32_rejection();
  EXPECT_EQ(plan.precision_label(), "block-f32(7/8)");

  // The rescued detector is parked at the end of plan order, and it is the
  // thinned channel.
  EXPECT_EQ(plan.detector_channels()[nd - 1], 3u);

  // f32 mirrors cover exactly the proved prefix, entry for entry.
  const std::size_t nf = plan.detector_offsets()[plan.num_f32_detectors()];
  ASSERT_EQ(plan.re0_f32().size(), nf);
  ASSERT_EQ(plan.re1_f32().size(), nf);
  for (std::size_t i = 0; i < nf; ++i) {
    EXPECT_EQ(plan.re0_f32()[i], static_cast<float>(plan.re0()[i]));
    EXPECT_EQ(plan.re1_f32()[i], static_cast<float>(plan.re1()[i]));
  }

  // detector_results() is a permutation: every original result position is
  // produced by exactly one plan-order detector.
  std::vector<unsigned> seen(nd, 0);
  for (const std::size_t r : plan.detector_results()) {
    ASSERT_LT(r, nd);
    ++seen[r];
  }
  for (const unsigned count : seen) EXPECT_EQ(count, 1u);

  // The SoA invariant survives the permutation.
  for (std::size_t i = 0; i < plan.num_contributions(); ++i) {
    EXPECT_EQ(plan.slots()[i],
              plan.channels()[i] * plan.num_inputs() + plan.inputs()[i]);
  }
}

TEST(BlockPrecision, BlockDecodesBitIdenticalToDoubleOnEveryOp) {
  // The block acceptance bar: with one channel thinned, the f32-requested
  // plan (block on n > 1 binary fabrics, full fallback at n = 1) must
  // decode bit-identical to the all-f64 plan on every kernel over the
  // exhaustive operand sweep — the full 2^16 words on binary ops at n = 8.
  const PrecisionFixture fix;
  const auto kernels = all_kernels();
  for (const std::size_t n : {1ul, 4ul, 8ul}) {
    for (const BooleanOp op :
         {BooleanOp::kAnd, BooleanOp::kOr, BooleanOp::kNand, BooleanOp::kNor,
          BooleanOp::kBuffer, BooleanOp::kNot}) {
      std::vector<double> freqs;
      for (std::size_t i = 1; i <= n; ++i) {
        freqs.push_back(1e10 * static_cast<double>(i));
      }
      const ParallelLogicGate logic(op, freqs, fix.designer, fix.engine);
      const bool binary = logic.data_inputs() == 2;
      // Unary fabrics have single-contribution detectors (nothing to
      // cancel), so only binary layouts get a thin channel; their sweep
      // still pins the block machinery against the full-f32 path.
      GateLayout layout = logic.layout();
      if (binary) layout = fix.thin_channel(std::move(layout), n / 2);
      const DataParallelGate gate(layout, fix.engine);
      const BatchEvaluator f64(
          gate, {.num_threads = 1, .precision = Precision::kFloat64});
      const BatchEvaluator f32(
          gate, {.num_threads = 1, .precision = Precision::kFloat32});
      if (binary && n > 1) {
        ASSERT_TRUE(f32.plan().is_block())
            << boolean_op_name(op) << " n=" << n << ": "
            << f32.plan().f32_rejection();
        ASSERT_EQ(f32.plan().num_f64_rescue_detectors(), 1u);
      }
      std::size_t num_words = 0;
      const auto bits = exhaustive_op_matrix(op, n, layout.spec.num_inputs,
                                             &num_words);
      const auto want = f64.evaluate_bits(num_words, bits);
      for (const Kernel* k : kernels) {
        EXPECT_EQ(f32.evaluate_bits(num_words, bits, *k), want)
            << boolean_op_name(op) << " n=" << n << " kernel " << k->name;
      }
    }
  }
}

TEST(BlockPrecision, MixedKernelOddWordCountsExerciseTheTails) {
  // eval_bits runs the f32 detectors and the f64 rescue detectors with
  // DIFFERENT group widths (8/16 floats vs 4/8 doubles per register), so a
  // word count leaves different padding in each run. Word counts around
  // those groups, the 32-word steps and the 64-word column u64s must decode
  // on every kernel exactly like the all-f64 plan.
  const PrecisionFixture fix;
  const GateLayout layout = fix.thin_channel(fix.majority_layout(3, 8), 5);
  const DataParallelGate gate(layout, fix.engine);
  const BatchEvaluator evaluator(
      gate, {.num_threads = 1, .precision = Precision::kFloat32});
  const BatchEvaluator f64(
      gate, {.num_threads = 1, .precision = Precision::kFloat64});
  ASSERT_TRUE(evaluator.plan().is_block());
  const auto kernels = all_kernels();
  const std::size_t stride = evaluator.slot_count();
  for (const std::size_t words :
       {1ul, 3ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul, 63ul,
        64ul, 65ul, 127ul, 128ul, 129ul, 4097ul}) {
    const auto packed = random_matrix(words, stride, /*seed=*/71 + words);
    const auto want = f64.evaluate_bits(
        words, packed, sw::wavesim::kernels::scalar_kernel());
    for (const Kernel* k : kernels) {
      EXPECT_EQ(evaluator.evaluate_bits(words, packed, *k), want)
          << words << " words, kernel " << k->name;
    }
  }
}

TEST(BlockPrecision, AllDetectorsRejectedDegeneratesToTheDoublePlan) {
  // Thin EVERY channel: no detector earns f32, so the block plan must
  // degenerate to exactly the f64 plan — no mirrors, no permutation, the
  // fallback counters (not the block ones) take the build.
  const PrecisionFixture fix;
  GateLayout layout = fix.majority_layout(3, 4);
  for (std::size_t ch = 0; ch < 4; ++ch) {
    layout = fix.thin_channel(std::move(layout), ch);
  }
  const DataParallelGate gate(layout, fix.engine);
  const EvalPlan plan(gate, sw::wavesim::kDefaultFreqTol,
                      Precision::kFloat32);
  EXPECT_FALSE(plan.is_block());
  EXPECT_FALSE(plan.has_f32());
  EXPECT_EQ(plan.num_f32_detectors(), 0u);
  EXPECT_EQ(plan.num_f64_rescue_detectors(), 4u);
  EXPECT_TRUE(plan.re0_f32().empty());
  EXPECT_EQ(plan.effective_precision(), Precision::kFloat64);
  EXPECT_EQ(plan.precision_label(), "f64");
  EXPECT_NE(plan.f32_rejection().find("double plan"), std::string::npos)
      << plan.f32_rejection();

  // Plan order is untouched: detector_results() is the identity.
  const auto results = plan.detector_results();
  for (std::size_t d = 0; d < results.size(); ++d) {
    EXPECT_EQ(results[d], d);
  }

  // And it decodes exactly like a plan that never asked for f32.
  const BatchEvaluator fallback(
      gate, {.num_threads = 1, .precision = Precision::kFloat32});
  const BatchEvaluator f64(
      gate, {.num_threads = 1, .precision = Precision::kFloat64});
  const auto matrix = random_matrix(128, fallback.slot_count(), /*seed=*/17);
  for (const Kernel* k : all_kernels()) {
    EXPECT_EQ(fallback.evaluate_bits(128, matrix, *k),
              f64.evaluate_bits(128, matrix, *k))
        << "kernel " << k->name;
  }
}

// ---------------------------------------------------------------- cache --

TEST(PlanCachePrecision, KeysCarryThePrecisionBit) {
  const PrecisionFixture fix;
  sw::serve::PlanCache cache(fix.engine, 8,
                             {.num_threads = 1,
                              .precision = Precision::kFloat64});
  const GateLayout layout = fix.majority_layout(3, 2);

  const auto f64 = cache.get_or_build(layout, Precision::kFloat64);
  EXPECT_FALSE(f64.hit);
  const auto f32 = cache.get_or_build(layout, Precision::kFloat32);
  EXPECT_FALSE(f32.hit) << "f32 lookup must not alias the f64 entry";
  EXPECT_NE(f64.program.get(), f32.program.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(f64.program->stage_plan(0).effective_precision(),
            Precision::kFloat64);
  EXPECT_EQ(f32.program->stage_plan(0).effective_precision(),
            Precision::kFloat32);

  // Repeat lookups hit their own precision's entry.
  EXPECT_TRUE(cache.get_or_build(layout, Precision::kFloat64).hit);
  EXPECT_TRUE(cache.get_or_build(layout, Precision::kFloat32).hit);
  EXPECT_EQ(cache.try_get(layout, Precision::kFloat32).get(),
            f32.program.get());
  EXPECT_EQ(cache.try_get(layout, Precision::kFloat64).get(),
            f64.program.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.f32_plans, 1u);
  EXPECT_EQ(stats.f32_fallbacks, 0u);
}

TEST(PlanCachePrecision, FallbacksAreCountedPerBuild) {
  const PrecisionFixture fix;
  sw::serve::PlanCache cache(fix.engine, 8,
                             {.num_threads = 1,
                              .precision = Precision::kFloat32});
  EXPECT_EQ(cache.default_precision(), Precision::kFloat32);

  const auto wide = cache.get_or_build(fix.majority_layout(3, 2));
  const auto thin = cache.get_or_build(fix.thin_margin_layout());
  EXPECT_EQ(wide.program->stage_plan(0).effective_precision(),
            Precision::kFloat32);
  EXPECT_EQ(thin.program->stage_plan(0).effective_precision(),
            Precision::kFloat64);
  EXPECT_FALSE(thin.program->stage_plan(0).f32_rejection().empty());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.f32_plans, 1u);
  EXPECT_EQ(stats.f32_fallbacks, 1u);
}

TEST(PlanCachePrecision, BlockBuildsAndDetectorMixAreCounted) {
  const PrecisionFixture fix;
  sw::serve::PlanCache cache(fix.engine, 8,
                             {.num_threads = 1,
                              .precision = Precision::kFloat32});

  // Three f32-requested builds, one per verdict: all proved, a 7/8 block,
  // and an all-rejected fallback.
  const auto wide = cache.get_or_build(fix.majority_layout(3, 2));
  const auto block = cache.get_or_build(
      fix.thin_channel(fix.majority_layout(3, 8), 2));
  const auto thin = cache.get_or_build(fix.thin_margin_layout());

  EXPECT_TRUE(wide.program->stage_plan(0).has_f32());
  ASSERT_TRUE(block.program->stage_plan(0).is_block());
  EXPECT_EQ(block.program->stage_plan(0).num_f32_detectors(), 7u);
  EXPECT_EQ(block.program->stage_plan(0).num_f64_rescue_detectors(), 1u);
  EXPECT_EQ(block.program->precision_label(), "block-f32(7/8)");
  EXPECT_FALSE(thin.program->stage_plan(0).has_f32());

  const auto stats = cache.stats();
  // Each f32-requested build lands in exactly one of the three counters.
  EXPECT_EQ(stats.f32_plans, 1u);
  EXPECT_EQ(stats.block_plans, 1u);
  EXPECT_EQ(stats.f32_fallbacks, 1u);
  // The detector mix sums across every f32-requested build: 2 + 7 proved,
  // 1 + 1 rescued.
  EXPECT_EQ(stats.f32_detectors, 9u);
  EXPECT_EQ(stats.f64_rescue_detectors, 2u);
}

// -------------------------------------------------------------- service --

TEST(ServicePrecision, TransparentFallbackSurfacesInStats) {
  const PrecisionFixture fix;
  sw::serve::ServiceOptions options;
  options.evaluator_options.precision = Precision::kFloat32;
  sw::serve::EvaluatorService svc(fix.model, fix.wg.material.alpha, options);

  // Wide-margin layout: served at f32, decodes bit-identical to the
  // double reference.
  const GateLayout wide = fix.majority_layout(3, 2);
  const DataParallelGate wide_gate(wide, fix.engine);
  const BatchEvaluator reference(wide_gate,
                                 {.num_threads = 1,
                                  .precision = Precision::kFloat64});
  const auto matrix = random_matrix(64, reference.slot_count(), /*seed=*/9);
  EXPECT_EQ(svc.submit(sw::serve::EvalRequest::for_layout(wide, matrix, 64)).get().bits,
            reference.evaluate_bits(64, matrix));

  // Thin-margin layout: the service transparently serves the double plan.
  const GateLayout thin = fix.thin_margin_layout();
  const DataParallelGate thin_gate(thin, fix.engine);
  const auto patterns = all_patterns(3);
  std::vector<std::uint8_t> packed(patterns.size() * 3);
  for (std::size_t w = 0; w < patterns.size(); ++w) {
    for (std::size_t in = 0; in < 3; ++in) {
      packed[w * 3 + in] = patterns[w][in];
    }
  }
  const auto thin_bits =
      svc.submit(sw::serve::EvalRequest::for_layout(thin, packed, patterns.size())).get().bits;
  for (std::size_t w = 0; w < patterns.size(); ++w) {
    EXPECT_EQ(thin_bits[w], thin_gate.evaluate_uniform(patterns[w])[0].logic)
        << "word " << w;
  }

  const auto stats = svc.stats();
  EXPECT_EQ(stats.precision, "f32");
  EXPECT_EQ(stats.cache.f32_plans, 1u);
  EXPECT_EQ(stats.cache.f32_fallbacks, 1u);
}

TEST(ServicePrecision, BlockPlanMixSurfacesInStats) {
  const PrecisionFixture fix;
  sw::serve::ServiceOptions options;
  options.evaluator_options.precision = Precision::kFloat32;
  options.evaluator_options.num_threads = 1;
  sw::serve::EvaluatorService svc(fix.model, fix.wg.material.alpha, options);

  // A block layout served end to end decodes exactly like the all-f64
  // reference...
  const GateLayout layout =
      fix.thin_channel(fix.majority_layout(3, 8), 6);
  const DataParallelGate gate(layout, fix.engine);
  const BatchEvaluator reference(
      gate, {.num_threads = 1, .precision = Precision::kFloat64});
  const auto matrix = random_matrix(96, reference.slot_count(), /*seed=*/23);
  EXPECT_EQ(svc.submit(sw::serve::EvalRequest::for_layout(layout, matrix, 96)).get().bits,
            reference.evaluate_bits(96, matrix));

  // ...and the per-detector mix is visible in the service stats.
  const auto stats = svc.stats();
  EXPECT_EQ(stats.precision, "f32");
  EXPECT_EQ(stats.cache.block_plans, 1u);
  EXPECT_EQ(stats.cache.f32_detectors, 7u);
  EXPECT_EQ(stats.cache.f64_rescue_detectors, 1u);
}

TEST(ServicePrecision, DefaultPrecisionFollowsTheProcessChoice) {
  const PrecisionFixture fix;
  sw::serve::EvaluatorService svc(fix.model, fix.wg.material.alpha);
  EXPECT_EQ(svc.stats().precision,
            std::string(sw::wavesim::precision_name(
                sw::wavesim::active_precision())));
}

}  // namespace
