// Kernel-layer coverage: the SoA EvalPlan, the scalar/AVX2/AVX-512
// evaluation kernels, and the runtime dispatch. The load-bearing property
// is bit-exact equivalence — every kernel must decode exactly like the
// scalar gate path (DataParallelGate::evaluate) on every BooleanOp,
// including the full 2^16 operand sweep at n = 8 and word counts that
// exercise each kernel's word grouping (4/8 doubles, 8/16 floats), its
// padded last group and the 64-word column boundaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <random>
#include <string>
#include <vector>

#include "column_model.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "core/logic_ops.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "serve/plan_cache.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::core;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::EvalPlan;
using sw::wavesim::kernels::avx2_kernel;
using sw::wavesim::kernels::avx512_kernel;
using sw::wavesim::kernels::Kernel;
using sw::wavesim::kernels::scalar_kernel;
using sw::wavesim::kernels::select_kernel;

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

std::vector<double> channel_frequencies(std::size_t n) {
  std::vector<double> f;
  for (std::size_t i = 1; i <= n; ++i) {
    f.push_back(1e10 * static_cast<double>(i));
  }
  return f;
}

struct KernelFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  sw::wavesim::WaveEngine engine{model, wg.material.alpha};

  DataParallelGate majority_gate(std::size_t m, std::size_t n) const {
    GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies = channel_frequencies(n);
    return DataParallelGate(designer.design(spec), engine);
  }
};

/// Packs the exhaustive operand sweep of a ParallelLogicGate into the
/// evaluate_bits matrix: binary ops sweep all 2^n x 2^n (a, b) word pairs
/// with the constant input pinned per op; unary ops sweep the 2^n a-words.
struct PackedSweep {
  std::size_t num_words = 0;
  std::vector<std::uint8_t> bits;           ///< num_words x slot_count
  std::vector<Bits> a_words, b_words;       ///< operands, per word
};

PackedSweep exhaustive_sweep(const ParallelLogicGate& logic, std::size_t n) {
  const std::size_t m = logic.layout().spec.num_inputs;
  const std::size_t stride = n * m;
  const bool binary = logic.data_inputs() == 2;
  // AND/NAND pin the third input to 0, OR/NOR to 1 (MAJ synthesis).
  const std::uint8_t pin =
      (logic.op() == BooleanOp::kOr || logic.op() == BooleanOp::kNor) ? 1 : 0;

  const std::size_t a_values = std::size_t{1} << n;
  const std::size_t b_values = binary ? a_values : 1;
  PackedSweep sweep;
  sweep.num_words = a_values * b_values;
  sweep.bits.resize(sweep.num_words * stride);
  sweep.a_words.reserve(sweep.num_words);
  sweep.b_words.reserve(sweep.num_words);
  std::size_t w = 0;
  for (std::size_t av = 0; av < a_values; ++av) {
    for (std::size_t bv = 0; bv < b_values; ++bv, ++w) {
      Bits a(n), b(n);
      for (std::size_t ch = 0; ch < n; ++ch) {
        a[ch] = static_cast<std::uint8_t>((av >> ch) & 1u);
        b[ch] = static_cast<std::uint8_t>((bv >> ch) & 1u);
        std::uint8_t* slot = sweep.bits.data() + w * stride + ch * m;
        slot[0] = a[ch];
        if (binary) {
          slot[1] = b[ch];
          slot[2] = pin;
        }
      }
      sweep.a_words.push_back(std::move(a));
      sweep.b_words.push_back(std::move(b));
    }
  }
  return sweep;
}

constexpr BooleanOp kAllOps[] = {BooleanOp::kAnd,    BooleanOp::kOr,
                                 BooleanOp::kNand,   BooleanOp::kNor,
                                 BooleanOp::kBuffer, BooleanOp::kNot};

/// Every kernel this build and host run, the scalar reference first. On a
/// host with VBMI and GFNI that includes the AVX-512 table of hosts without
/// them, whose converters are the AVX2 ones.
std::vector<const Kernel*> available_kernels() {
  std::vector<const Kernel*> kernels{&scalar_kernel()};
  if (const Kernel* avx2 = avx2_kernel()) kernels.push_back(avx2);
  if (const Kernel* avx512 = avx512_kernel()) {
    kernels.push_back(avx512);
    const Kernel* without_vbmi =
        sw::wavesim::kernels::detail::avx512_kernel_candidate(false);
    if (without_vbmi != avx512) kernels.push_back(without_vbmi);
  }
  return kernels;
}

/// Word counts at the column edges: around the vector groups (4/8/16
/// words), the kernels' 32-word steps and the 64-word column u64s, plus a
/// batch of several 1024-word blocks with a 1-word tail.
constexpr std::size_t kEdgeWordCounts[] = {1,  3,  7,   8,   9,   15,
                                           16, 17, 31,  32,  33,  63,
                                           64, 65, 127, 128, 129, 4097};

/// Layouts of 12 slots (not a multiple of 8), 24 (the paper's gate) and 72
/// (more than 64, so more than one pack chunk per row): (inputs, channels).
constexpr std::pair<std::size_t, std::size_t> kEdgeLayouts[] = {
    {3, 4}, {3, 8}, {9, 8}};

/// The decoded bits of the scalar kernel's ChannelResult loop, which reads
/// the rows directly and shares no code with the column path: the
/// reference every kernel's evaluate_bits must equal.
std::vector<std::uint8_t> row_reference(const EvalPlan& plan,
                                        std::size_t words,
                                        const std::vector<std::uint8_t>& rows) {
  const std::size_t detectors = plan.num_detectors();
  std::vector<ChannelResult> results(words * detectors);
  scalar_kernel().eval_channels(plan, rows.data(), 0, words, results.data());
  std::vector<std::uint8_t> bits(words * plan.num_channels());
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t d = 0; d < detectors; ++d) {
      const ChannelResult& r = results[w * detectors + d];
      bits[w * plan.num_channels() + r.channel] = r.logic;
    }
  }
  return bits;
}

/// Checks every available kernel's evaluate_bits against the row reference
/// on random rows of `max_byte`-bounded bytes (1: canonical 0/1 bits; 255:
/// any nonzero byte is a set bit) at every edge word count. The column
/// entry the service runs (the same gate as a one-stage EvalProgram, on
/// the rows' columns) must decode the same bits, with zero padding.
void expect_kernels_match_rows(const BatchEvaluator& evaluator,
                               unsigned max_byte, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<unsigned> byte(0, max_byte);
  const sw::wavesim::EvalProgram program(
      evaluator.gate().layout(), evaluator.gate().engine(),
      {.num_threads = 1,
       .precision = evaluator.plan().requested_precision()});
  const std::size_t n = evaluator.plan().num_channels();
  for (const std::size_t words : kEdgeWordCounts) {
    std::vector<std::uint8_t> packed(words * evaluator.slot_count());
    for (auto& b : packed) b = static_cast<std::uint8_t>(byte(rng));
    const auto want = row_reference(evaluator.plan(), words, packed);
    const auto primary =
        sw::testing::columns_of(packed, words, evaluator.slot_count());
    for (const Kernel* k : available_kernels()) {
      EXPECT_EQ(evaluator.evaluate_bits(words, packed, *k), want)
          << evaluator.slot_count() << " slots, " << words << " words, "
          << evaluator.plan().precision_label() << ", kernel " << k->name;
      const auto columns = program.evaluate_columns(words, primary, *k);
      EXPECT_EQ(sw::testing::rows_of(columns, words, n), want)
          << "column entry, " << evaluator.slot_count() << " slots, "
          << words << " words, " << program.precision_label() << ", kernel "
          << k->name;
      EXPECT_EQ(sw::testing::columns_of(want, words, n), columns)
          << "column padding, " << words << " words, kernel " << k->name;
    }
  }
}

// --------------------------------------------------------------- dispatch --

TEST(KernelDispatch, ScalarKernelIsAlwaysAvailable) {
  EXPECT_STREQ(scalar_kernel().name, "scalar");
  EXPECT_EQ(&select_kernel("scalar"), &scalar_kernel());
}

TEST(KernelDispatch, Avx2SelectionMatchesAvailability) {
  if (const Kernel* k = avx2_kernel()) {
    EXPECT_STREQ(k->name, "avx2");
    EXPECT_EQ(&select_kernel("avx2"), k);
  } else {
    EXPECT_THROW(select_kernel("avx2"), sw::util::Error);
  }
}

TEST(KernelDispatch, Avx512SelectionMatchesAvailability) {
  if (const Kernel* k = avx512_kernel()) {
    EXPECT_STREQ(k->name, "avx512");
    EXPECT_EQ(&select_kernel("avx512"), k);
  } else {
    // A build without the codegen (or a host without the instructions)
    // must fail loudly on a forced avx512 — never fall back silently.
    try {
      select_kernel("avx512");
      FAIL() << "expected sw::util::Error";
    } catch (const sw::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("avx512"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("unavailable"), std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelDispatch, UnknownNamesAreRejected) {
  EXPECT_THROW(select_kernel(""), sw::util::Error);
  EXPECT_THROW(select_kernel("sse2"), sw::util::Error);
  EXPECT_THROW(select_kernel("AVX2"), sw::util::Error);  // names are exact
  // The unknown-name error enumerates the accepted names straight from the
  // dispatch table, so it can never drift from the kernels that exist.
  try {
    select_kernel("avx1024");
    FAIL() << "expected sw::util::Error";
  } catch (const sw::util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'scalar'"), std::string::npos) << what;
    EXPECT_NE(what.find("'avx2'"), std::string::npos) << what;
    EXPECT_NE(what.find("'avx512'"), std::string::npos) << what;
  }
}

TEST(KernelDispatch, BadEnvOverrideFailsLoudlyAndNamesTheVariable) {
  // The bad-SW_EVAL_KERNEL path must be a hard error that names the
  // variable — never a silent scalar fallback that reads as a perf
  // regression later. kernel_from_env is exactly the function
  // active_kernel() feeds the environment value through, so exercising it
  // directly covers the env path without fighting the process-wide cache.
  try {
    sw::wavesim::kernels::kernel_from_env("sclar");  // the classic typo
    FAIL() << "expected sw::util::Error";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("SW_EVAL_KERNEL"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("sclar"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(sw::wavesim::kernels::kernel_from_env(""), sw::util::Error);
  // Valid names pass through to the same kernels select_kernel returns.
  EXPECT_EQ(&sw::wavesim::kernels::kernel_from_env("scalar"),
            &scalar_kernel());
  // SW_EVAL_KERNEL=avx512 is a valid name everywhere; on builds/hosts
  // without the kernel it must fail loudly naming the variable, not fall
  // back to a slower kernel.
  if (const Kernel* k = avx512_kernel()) {
    EXPECT_EQ(&sw::wavesim::kernels::kernel_from_env("avx512"), k);
  } else {
    try {
      sw::wavesim::kernels::kernel_from_env("avx512");
      FAIL() << "expected sw::util::Error";
    } catch (const sw::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("SW_EVAL_KERNEL"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PrecisionDispatch, ParseAndEnvOverride) {
  using sw::wavesim::parse_precision;
  using sw::wavesim::Precision;
  EXPECT_EQ(parse_precision("f64"), Precision::kFloat64);
  EXPECT_EQ(parse_precision("f32"), Precision::kFloat32);
  EXPECT_THROW(parse_precision(""), sw::util::Error);
  EXPECT_THROW(parse_precision("auto"), sw::util::Error);  // not forceable
  EXPECT_THROW(parse_precision("F32"), sw::util::Error);   // names are exact
  EXPECT_THROW(parse_precision("double"), sw::util::Error);

  // The env wrapper names the variable, like the kernel one.
  try {
    sw::wavesim::precision_from_env("f16");
    FAIL() << "expected sw::util::Error";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("SW_EVAL_PRECISION"),
              std::string::npos)
        << e.what();
  }

  // Resolution honours the process-wide choice and passes explicit
  // requests through untouched.
  const Precision active = sw::wavesim::active_precision();
  if (const char* env = std::getenv("SW_EVAL_PRECISION"); env && *env) {
    EXPECT_EQ(active, parse_precision(env));
  } else {
    EXPECT_EQ(active, Precision::kFloat64);
  }
  EXPECT_EQ(sw::wavesim::resolve_precision(Precision::kAuto), active);
  EXPECT_EQ(sw::wavesim::resolve_precision(Precision::kFloat32),
            Precision::kFloat32);
  EXPECT_EQ(sw::wavesim::resolve_precision(Precision::kFloat64),
            Precision::kFloat64);
}

TEST(KernelDispatch, ActiveKernelHonoursOverrideOrPicksBest) {
  const std::string active(sw::wavesim::active_kernel_name());
  // The forced-scalar CI job runs the whole suite under
  // SW_EVAL_KERNEL=scalar; with no override the best supported kernel wins.
  if (const char* env = std::getenv("SW_EVAL_KERNEL"); env && *env) {
    EXPECT_EQ(active, std::string(env));
  } else {
    EXPECT_EQ(active, avx512_kernel() != nullptr
                          ? "avx512"
                          : (avx2_kernel() != nullptr ? "avx2" : "scalar"));
  }
  // The cached choice is stable.
  EXPECT_EQ(std::string(sw::wavesim::active_kernel_name()), active);
}

// -------------------------------------------------------------- plan shape --

TEST(EvalPlan, MirrorsLayoutStructure) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  const EvalPlan plan(gate);

  EXPECT_EQ(plan.num_channels(), 4u);
  EXPECT_EQ(plan.num_inputs(), 3u);
  EXPECT_EQ(plan.slot_count(), 12u);
  EXPECT_EQ(plan.num_detectors(), gate.layout().detectors.size());

  const auto offsets = plan.detector_offsets();
  ASSERT_EQ(offsets.size(), plan.num_detectors() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), plan.num_contributions());
  for (std::size_t d = 0; d + 1 < offsets.size(); ++d) {
    EXPECT_LE(offsets[d], offsets[d + 1]);
  }
  ASSERT_EQ(plan.re0().size(), plan.num_contributions());
  ASSERT_EQ(plan.im0().size(), plan.num_contributions());
  ASSERT_EQ(plan.re1().size(), plan.num_contributions());
  ASSERT_EQ(plan.im1().size(), plan.num_contributions());
  ASSERT_EQ(plan.slots().size(), plan.num_contributions());
  for (std::size_t i = 0; i < plan.num_contributions(); ++i) {
    EXPECT_LT(plan.slots()[i], plan.slot_count());
    EXPECT_EQ(plan.slots()[i],
              plan.channels()[i] * plan.num_inputs() + plan.inputs()[i]);
  }
  for (const std::size_t ch : plan.detector_channels()) {
    EXPECT_LT(ch, plan.num_channels());
  }
}

TEST(EvalPlan, ArraysAreCacheLineAligned) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 8);
  const EvalPlan plan(gate);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.re0().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.im0().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.re1().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.im1().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.slots().data()) % 64, 0u);
}

TEST(EvalPlan, SharedPlanMustMatchTheGate) {
  const KernelFixture fix;
  const auto gate3 = fix.majority_gate(3, 4);
  const auto gate5 = fix.majority_gate(5, 4);
  auto plan3 = std::make_shared<const EvalPlan>(gate3);
  EXPECT_THROW(BatchEvaluator(gate5, plan3, {}), sw::util::Error);
  EXPECT_THROW(BatchEvaluator(gate3, nullptr, {}), sw::util::Error);
  EXPECT_THROW(BatchEvaluator(gate3, plan3, {.freq_tol = 1e-3}),
               sw::util::Error);
  // A matching share works and evaluates identically to a rebuilt plan.
  const BatchEvaluator shared(gate3, plan3, {});
  EXPECT_EQ(&shared.plan(), plan3.get());
  const BatchEvaluator rebuilt(gate3);
  const auto patterns = all_patterns(3);
  const auto a = shared.evaluate_uniform(patterns);
  const auto b = rebuilt.evaluate_uniform(patterns);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::size_t ch = 0; ch < a[w].size(); ++ch) {
      EXPECT_EQ(a[w][ch].logic, b[w][ch].logic);
      EXPECT_EQ(a[w][ch].phase, b[w][ch].phase);
    }
  }
}

TEST(EvalPlan, Float32ArraysAndMarginMetadata) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 8);

  const EvalPlan f64(gate, sw::wavesim::kDefaultFreqTol,
                     sw::wavesim::Precision::kFloat64);
  EXPECT_EQ(f64.requested_precision(), sw::wavesim::Precision::kFloat64);
  EXPECT_EQ(f64.effective_precision(), sw::wavesim::Precision::kFloat64);
  EXPECT_FALSE(f64.has_f32());
  EXPECT_TRUE(f64.re0_f32().empty());
  EXPECT_TRUE(f64.f32_rejection().empty());  // nothing was rejected

  const EvalPlan f32(gate, sw::wavesim::kDefaultFreqTol,
                     sw::wavesim::Precision::kFloat32);
  ASSERT_TRUE(f32.has_f32()) << f32.f32_rejection();
  EXPECT_EQ(f32.effective_precision(), sw::wavesim::Precision::kFloat32);
  ASSERT_EQ(f32.re0_f32().size(), f32.num_contributions());
  ASSERT_EQ(f32.re1_f32().size(), f32.num_contributions());
  for (std::size_t i = 0; i < f32.num_contributions(); ++i) {
    EXPECT_EQ(f32.re0_f32()[i], static_cast<float>(f32.re0()[i]));
    EXPECT_EQ(f32.re1_f32()[i], static_cast<float>(f32.re1()[i]));
  }
  // The margin analysis publishes its numbers: a real margin, a nonzero
  // error bound and plenty of head-room between them on a paper layout.
  EXPECT_GT(f32.min_decode_margin(), 0.0);
  EXPECT_GT(f32.f32_error_bound(), 0.0);
  EXPECT_GT(f32.min_decode_margin(), 8.0 * f32.f32_error_bound());
  EXPECT_TRUE(f32.f32_rejection().empty());
}

TEST(EvalPlan, SharedPlanPrecisionMustMatchTheOptions) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  auto f32 = std::make_shared<const EvalPlan>(
      gate, sw::wavesim::kDefaultFreqTol, sw::wavesim::Precision::kFloat32);
  // A plan built at one precision cannot back an evaluator asked for the
  // other: silently serving it would misreport effective_precision().
  EXPECT_THROW(
      BatchEvaluator(gate, f32,
                     {.precision = sw::wavesim::Precision::kFloat64}),
      sw::util::Error);
  const BatchEvaluator ok(gate, f32,
                          {.precision = sw::wavesim::Precision::kFloat32});
  EXPECT_EQ(&ok.plan(), f32.get());
}

TEST(EvalPlan, PlanCacheServesTheSoAPlanItBuilt) {
  const KernelFixture fix;
  sw::serve::PlanCache cache(fix.engine, 4);
  GateSpec spec;
  spec.num_inputs = 3;
  spec.frequencies = channel_frequencies(4);
  const auto layout = fix.designer.design(spec);
  const auto lookup = cache.get_or_build(layout);
  ASSERT_NE(lookup.program, nullptr);
  ASSERT_EQ(lookup.program->num_stages(), 1u);
  // A hit hands back the same program and its one stage's SoA plan — the
  // same objects, no rebuild and no conversion.
  const auto hit = cache.get_or_build(layout);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.program, lookup.program);
  EXPECT_EQ(&hit.program->stage_plan(0), &lookup.program->stage_plan(0));
  EXPECT_EQ(cache.try_get(layout), lookup.program);
}

// ------------------------------------------------------------ equivalence --

/// Decodes `sweep` through `kernel` and checks every word against the
/// scalar gate path (ParallelLogicGate::evaluate) and the Boolean
/// reference.
void expect_kernel_matches_scalar_gate(const ParallelLogicGate& logic,
                                       const BatchEvaluator& evaluator,
                                       const PackedSweep& sweep,
                                       const Kernel& kernel, std::size_t n) {
  const auto bits =
      evaluator.evaluate_bits(sweep.num_words, sweep.bits, kernel);
  ASSERT_EQ(bits.size(), sweep.num_words * n);
  for (std::size_t w = 0; w < sweep.num_words; ++w) {
    const auto want = logic.evaluate(sweep.a_words[w], sweep.b_words[w]);
    for (std::size_t ch = 0; ch < n; ++ch) {
      ASSERT_EQ(bits[w * n + ch], want[ch])
          << boolean_op_name(logic.op()) << " kernel " << kernel.name
          << " word " << w << " channel " << ch;
      ASSERT_EQ(want[ch] != 0,
                boolean_op_eval(logic.op(), sweep.a_words[w][ch] != 0,
                                sweep.b_words[w][ch] != 0))
          << "scalar gate path diverged from the Boolean reference";
    }
  }
}

TEST(KernelEquivalence, EveryOpExhaustiveAtEveryWidth) {
  const KernelFixture fix;
  // n = 8 on binary ops is the full 2^16-word sweep of the acceptance
  // criteria; n = 1 exercises single-detector plans, n = 4 the mid size.
  for (const std::size_t n : {1ul, 4ul, 8ul}) {
    for (const BooleanOp op : kAllOps) {
      const ParallelLogicGate logic(op, channel_frequencies(n), fix.designer,
                                    fix.engine);
      const BatchEvaluator evaluator(logic.gate());
      const PackedSweep sweep = exhaustive_sweep(logic, n);
      expect_kernel_matches_scalar_gate(logic, evaluator, sweep,
                                        scalar_kernel(), n);
      if (const Kernel* avx2 = avx2_kernel()) {
        expect_kernel_matches_scalar_gate(logic, evaluator, sweep, *avx2, n);
      }
      if (const Kernel* avx512 = avx512_kernel()) {
        expect_kernel_matches_scalar_gate(logic, evaluator, sweep, *avx512,
                                          n);
      }
    }
  }
}

TEST(KernelEquivalence, Float32DecodesBitIdenticalOnEveryOp) {
  // The acceptance bar of the f32 plan: decodes bit-identical to f64 on
  // every BooleanOp at n = 1/4/8, including the full 2^16 operand sweep —
  // guaranteed per layout by the plan's build-time margin analysis, which
  // must accept f32 for every designed (paper-margin) layout here.
  const KernelFixture fix;
  for (const std::size_t n : {1ul, 4ul, 8ul}) {
    for (const BooleanOp op : kAllOps) {
      const ParallelLogicGate logic(op, channel_frequencies(n), fix.designer,
                                    fix.engine);
      const BatchEvaluator f64(logic.gate(),
                               {.precision = sw::wavesim::Precision::kFloat64});
      const BatchEvaluator f32(logic.gate(),
                               {.precision = sw::wavesim::Precision::kFloat32});
      ASSERT_EQ(f32.effective_precision(), sw::wavesim::Precision::kFloat32)
          << boolean_op_name(op) << " n=" << n << ": margin analysis "
          << "unexpectedly rejected f32: " << f32.plan().f32_rejection();
      const PackedSweep sweep = exhaustive_sweep(logic, n);
      const auto want =
          f64.evaluate_bits(sweep.num_words, sweep.bits, scalar_kernel());
      EXPECT_EQ(f32.evaluate_bits(sweep.num_words, sweep.bits,
                                  scalar_kernel()),
                want)
          << boolean_op_name(op) << " n=" << n << " (f32 scalar)";
      if (const Kernel* avx2 = avx2_kernel()) {
        EXPECT_EQ(f32.evaluate_bits(sweep.num_words, sweep.bits, *avx2), want)
            << boolean_op_name(op) << " n=" << n << " (f32 avx2)";
      }
      if (const Kernel* avx512 = avx512_kernel()) {
        EXPECT_EQ(f32.evaluate_bits(sweep.num_words, sweep.bits, *avx512),
                  want)
            << boolean_op_name(op) << " n=" << n << " (f32 avx512)";
      }
    }
  }
}

TEST(KernelEquivalence, Float32OddWordCountsExerciseTheWideTails) {
  // The f32 run groups EIGHT words per register on AVX2 and SIXTEEN on
  // AVX-512, and a last partial group runs on the column padding: every
  // edge word count on every layout must still decode like the rows do.
  // test_precision's block-f32 test runs the same word counts through a
  // plan with both runs.
  const KernelFixture fix;
  for (const auto& [m, n] : kEdgeLayouts) {
    const auto gate = fix.majority_gate(m, n);
    const BatchEvaluator evaluator(
        gate,
        {.num_threads = 1, .precision = sw::wavesim::Precision::kFloat32});
    ASSERT_EQ(evaluator.effective_precision(),
              sw::wavesim::Precision::kFloat32)
        << m << "x" << n << ": " << evaluator.plan().f32_rejection();
    expect_kernels_match_rows(evaluator, 1, static_cast<unsigned>(53 + m + n));
  }
}

TEST(KernelEquivalence, ActiveKernelMatchesScalarKernel) {
  const KernelFixture fix;
  const ParallelLogicGate logic(BooleanOp::kAnd, channel_frequencies(8),
                                fix.designer, fix.engine);
  const BatchEvaluator evaluator(logic.gate());
  const PackedSweep sweep = exhaustive_sweep(logic, 8);
  EXPECT_EQ(evaluator.evaluate_bits(sweep.num_words, sweep.bits),
            evaluator.evaluate_bits(sweep.num_words, sweep.bits,
                                    scalar_kernel()));
}

TEST(KernelEquivalence, OddWordCountsExerciseTheVectorTail) {
  // The f64 run groups 4 (AVX2) or 8 (AVX-512) words per register inside
  // 16- or 32-word steps, and the converters work in 64-word column u64s;
  // a partial group runs on the padding, whose bits the row edge drops.
  const KernelFixture fix;
  for (const auto& [m, n] : kEdgeLayouts) {
    const auto gate = fix.majority_gate(m, n);
    const BatchEvaluator evaluator(
        gate,
        {.num_threads = 1, .precision = sw::wavesim::Precision::kFloat64});
    expect_kernels_match_rows(evaluator, 1, static_cast<unsigned>(31 + m + n));
  }
}

TEST(KernelEquivalence, NonCanonicalBytesDecodeIdentically) {
  // evaluate_bits documents a bit per byte but never validates the values;
  // the scalar reference treats any nonzero byte as a set bit, and every
  // converter must agree (a pack keyed on bit 0 alone would silently
  // decode 2, 4, 0x80... as zeros), in both precisions.
  const KernelFixture fix;
  for (const auto precision :
       {sw::wavesim::Precision::kFloat64, sw::wavesim::Precision::kFloat32}) {
    for (const auto& [m, n] : kEdgeLayouts) {
      const auto gate = fix.majority_gate(m, n);
      const BatchEvaluator evaluator(
          gate, {.num_threads = 1, .precision = precision});
      expect_kernels_match_rows(evaluator, 255,
                                static_cast<unsigned>(41 + m + n));
    }
  }
}

TEST(KernelEquivalence, ThreadedChunkingDoesNotChangeDecodes) {
  // Pool chunks split at whole 64-word column u64s. These word and thread
  // counts would put a word-split chunk boundary inside a u64 (203 / 3 =
  // 67.7, 1000 / 7 = 142.9, ...); decodes are per word and must not move.
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  std::mt19937 rng(37);
  std::bernoulli_distribution coin(0.5);
  const BatchEvaluator single(gate, {.num_threads = 1});
  for (const std::size_t words : {203ul, 1000ul, 4097ul}) {
    std::vector<std::uint8_t> packed(words * single.slot_count());
    for (auto& b : packed) b = coin(rng) ? 1 : 0;
    for (const Kernel* k : available_kernels()) {
      const auto want = single.evaluate_bits(words, packed, *k);
      for (const std::size_t threads : {2ul, 3ul, 5ul, 7ul}) {
        const BatchEvaluator pooled(gate, {.num_threads = threads});
        EXPECT_EQ(pooled.evaluate_bits(words, packed, *k), want)
            << words << " words, " << threads << " threads, kernel "
            << k->name;
      }
    }
  }
}

// -------------------------------------------------------------- validation --

TEST(EvaluateBitsValidation, RejectsShapeMismatch) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 2);
  const BatchEvaluator evaluator(gate);
  const std::vector<std::uint8_t> packed(evaluator.slot_count() * 2);
  EXPECT_THROW(evaluator.evaluate_bits(1, packed), sw::util::Error);
  EXPECT_THROW(evaluator.evaluate_bits(3, packed), sw::util::Error);
  EXPECT_NO_THROW(evaluator.evaluate_bits(2, packed));
}

TEST(EvaluateBitsValidation, GuardsWordCountOverflow) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 2);
  const BatchEvaluator evaluator(gate);
  ASSERT_EQ(evaluator.slot_count(), 6u);
  // num_words * slot_count wraps around size_t; without the guard the
  // wrapped product could even equal bits.size() and drive the kernel far
  // out of bounds. Must throw a clear error, not allocate or crash.
  const std::vector<std::uint8_t> tiny(4);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(evaluator.evaluate_bits(huge, tiny), sw::util::Error);
  // A wrapping product that lands exactly on bits.size(): (2^64 / 8) * 8
  // + 4 distinct words would wrap; pick num_words so num_words * 6 wraps
  // to tiny.size() modulo 2^64.
  const std::size_t wrap =
      (std::numeric_limits<std::size_t>::max() / 6) + 1;  // 6 * wrap wraps
  EXPECT_THROW(evaluator.evaluate_bits(wrap, tiny), sw::util::Error);
}

TEST(EvaluateBitsValidation, ChannelResultPathGuardsWordCountOverflow) {
  // The kernelised evaluate_with packs num_words x slot_count bytes; a
  // wrapping product must throw before it can size a tiny buffer and
  // drive the packing loop far out of bounds.
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 2);
  const BatchEvaluator evaluator(gate);
  const auto accessor = [](std::size_t, std::size_t, std::size_t) {
    return std::uint8_t{0};
  };
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW(evaluator.evaluate_with(huge, accessor), sw::util::Error);
  const std::size_t wrap =
      (std::numeric_limits<std::size_t>::max() / 6) + 1;  // 6 * wrap wraps
  EXPECT_THROW(evaluator.evaluate_with(wrap, accessor), sw::util::Error);
}

}  // namespace
