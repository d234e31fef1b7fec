// Kernel-layer coverage: the SoA EvalPlan and its decision diagrams, the
// scalar/AVX2/AVX-512 kernels, the phasor reference (kernels::eval_bits)
// and the runtime dispatch. The load-bearing property is bit-exact
// equivalence — every rung's table decode and the phasor sum must decode
// exactly like the scalar gate path (DataParallelGate::evaluate) on every
// BooleanOp, including the full 2^16 operand sweep at n = 8, near-cancelling
// thin-margin sums, and word counts that exercise each kernel's vector
// groups (4/8 column u64s), its padded last group and the 64-word column
// boundaries — and every diagram must be the reduced ordered diagram of the
// enumeration oracle (tests/table_model.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "column_model.h"
#include "table_model.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "core/logic_ops.h"
#include "core/scalability.h"
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

  /// The designed n-channel m-input layout with the paper's graded drive
  /// levels (core::damping_compensation): every detector then decodes
  /// MAJ_m.
  DataParallelGate compensated_gate(std::size_t m, std::size_t n) const {
    const GateLayout layout = majority_gate(m, n).layout();
    return DataParallelGate(
        with_drive_levels(layout, damping_compensation(layout, engine)),
        engine);
  }

  /// Rescales one channel of a 3-input layout so a bit assignment sums to
  /// (nearly) zero at that channel's detector: with phase-pi contributions
  /// being exact negations, scaling the third source's amplitude by
  /// (re0[0] + re0[1]) / re0[2] makes the (0, 0, 1) assignment cancel.
  /// Every other channel keeps its paper margin.
  GateLayout thin_channel(GateLayout layout, std::size_t channel) const {
    const DataParallelGate gate(layout, engine);
    const EvalPlan probe(gate);
    const auto offsets = probe.detector_offsets();
    for (std::size_t d = 0; d < probe.num_detectors(); ++d) {
      if (probe.detector_channels()[d] != channel) continue;
      // Map the third contribution back to its source via the plan's slot
      // (channel * m + input) rather than the source vector's order, and
      // fail cleanly if a designer change ever alters the detector's shape.
      if (offsets[d + 1] - offsets[d] != 3) {
        throw sw::util::Error("thin-channel fixture expects 3 contributions");
      }
      const std::size_t i = offsets[d];
      const double t =
          (probe.re0()[i] + probe.re0()[i + 1]) / probe.re0()[i + 2];
      EXPECT_GT(t, 0.0);  // phase-0 contributions are co-phased by design
      const std::size_t input = probe.slots()[i + 2] % probe.num_inputs();
      for (auto& s : layout.sources) {
        if (s.channel == channel && s.input == input) s.amplitude *= t;
      }
      return layout;
    }
    throw sw::util::Error("no detector found for the thinned channel");
  }

  /// The near-cancelling fixtures: the 1-channel gate thinned, channel 3
  /// of 8 thinned, and all 4 channels of 4 thinned.
  std::vector<DataParallelGate> thin_margin_gates() const {
    GateLayout all_thin = majority_gate(3, 4).layout();
    for (std::size_t ch = 0; ch < 4; ++ch) {
      all_thin = thin_channel(std::move(all_thin), ch);
    }
    std::vector<DataParallelGate> gates;
    gates.emplace_back(thin_channel(majority_gate(3, 1).layout(), 0), engine);
    gates.emplace_back(thin_channel(majority_gate(3, 8).layout(), 3), engine);
    gates.emplace_back(std::move(all_thin), engine);
    return gates;
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

/// The decoded bits of the physics path, DataParallelGate::evaluate, on
/// each row (nonzero byte = 1): it shares no code with any kernel, so it is
/// the reference every kernel's evaluate_bits must equal.
std::vector<std::uint8_t> row_reference(const DataParallelGate& gate,
                                        std::size_t words,
                                        const std::vector<std::uint8_t>& rows) {
  const std::size_t n = gate.layout().spec.frequencies.size();
  const std::size_t m = gate.layout().spec.num_inputs;
  std::vector<std::uint8_t> bits(words * n);
  std::vector<Bits> inputs(n, Bits(m));
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (std::size_t in = 0; in < m; ++in) {
        inputs[ch][in] = rows[(w * n + ch) * m + in] != 0 ? 1 : 0;
      }
    }
    for (const ChannelResult& r : gate.evaluate(inputs)) {
      bits[w * n + r.channel] = r.logic;
    }
  }
  return bits;
}

/// Checks every available kernel's table decode, through the same gate as
/// a one-stage EvalProgram, against the row reference on random rows of
/// `max_byte`-bounded bytes (1: canonical 0/1 bits; 255: any nonzero byte
/// is a set bit) at every edge word count: the row API (the kernel's edge
/// converters around eval_tables) and the column entry the service runs,
/// with zero padding. The evaluator's phasor sum must decode the same.
void expect_kernels_match_rows(const BatchEvaluator& evaluator,
                               unsigned max_byte, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<unsigned> byte(0, max_byte);
  const sw::wavesim::EvalProgram program(evaluator.gate().layout(),
                                         evaluator.gate().engine());
  const std::size_t n = evaluator.plan().num_channels();
  for (const std::size_t words : kEdgeWordCounts) {
    std::vector<std::uint8_t> packed(words * evaluator.slot_count());
    for (auto& b : packed) b = static_cast<std::uint8_t>(byte(rng));
    const auto want = row_reference(evaluator.gate(), words, packed);
    EXPECT_EQ(evaluator.evaluate_bits(words, packed), want)
        << "phasor sum, " << evaluator.slot_count() << " slots, " << words
        << " words";
    const auto primary =
        sw::testing::columns_of(packed, words, evaluator.slot_count());
    for (const Kernel* k : available_kernels()) {
      EXPECT_EQ(program.evaluate_bits(words, packed, *k), want)
          << evaluator.slot_count() << " slots, " << words << " words, kernel "
          << k->name;
      const auto columns = program.evaluate_columns(words, primary, *k);
      EXPECT_EQ(sw::testing::rows_of(columns, words, n), want)
          << "column entry, " << evaluator.slot_count() << " slots, "
          << words << " words, kernel " << k->name;
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
  ASSERT_EQ(plan.re1().size(), plan.num_contributions());
  ASSERT_EQ(plan.slots().size(), plan.num_contributions());
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    const std::size_t ch = plan.detector_channels()[d];
    EXPECT_LT(ch, plan.num_channels());
    // A detector reads the sources of its own channel's frequency: slot
    // channel * m + input.
    for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
      EXPECT_LT(plan.slots()[i], plan.slot_count());
      EXPECT_EQ(plan.slots()[i] / plan.num_inputs(), ch);
    }
  }
}

TEST(EvalPlan, ArraysAreCacheLineAligned) {
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 8);
  const EvalPlan plan(gate);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.re0().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.re1().data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plan.slots().data()) % 64, 0u);
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

/// Checks `bits`, the decode of `sweep` by `path`, word by word against
/// the scalar gate path (ParallelLogicGate::evaluate) and the Boolean
/// reference.
void expect_sweep_matches_scalar_gate(const ParallelLogicGate& logic,
                                      const std::vector<std::uint8_t>& bits,
                                      const PackedSweep& sweep,
                                      const std::string& path, std::size_t n) {
  ASSERT_EQ(bits.size(), sweep.num_words * n);
  for (std::size_t w = 0; w < sweep.num_words; ++w) {
    const auto want = logic.evaluate(sweep.a_words[w], sweep.b_words[w]);
    for (std::size_t ch = 0; ch < n; ++ch) {
      ASSERT_EQ(bits[w * n + ch], want[ch])
          << boolean_op_name(logic.op()) << ", " << path << ", word " << w
          << " channel " << ch;
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
  // Every rung decodes through its tables, the phasor sum once.
  for (const std::size_t n : {1ul, 4ul, 8ul}) {
    for (const BooleanOp op : kAllOps) {
      const ParallelLogicGate logic(op, channel_frequencies(n), fix.designer,
                                    fix.engine);
      const BatchEvaluator evaluator(logic.gate());
      const sw::wavesim::EvalProgram program(logic.layout(), fix.engine);
      const PackedSweep sweep = exhaustive_sweep(logic, n);
      expect_sweep_matches_scalar_gate(
          logic, evaluator.evaluate_bits(sweep.num_words, sweep.bits), sweep,
          "phasor sum", n);
      for (const Kernel* k : available_kernels()) {
        expect_sweep_matches_scalar_gate(
            logic, program.evaluate_bits(sweep.num_words, sweep.bits, *k),
            sweep, std::string("tables on ") + k->name, n);
      }
    }
  }
}

TEST(KernelEquivalence, ActiveKernelMatchesScalarKernel) {
  const KernelFixture fix;
  const ParallelLogicGate logic(BooleanOp::kAnd, channel_frequencies(8),
                                fix.designer, fix.engine);
  const BatchEvaluator evaluator(logic.gate());
  const sw::wavesim::EvalProgram program(logic.layout(), fix.engine);
  const PackedSweep sweep = exhaustive_sweep(logic, 8);
  const auto want = evaluator.evaluate_bits(sweep.num_words, sweep.bits,
                                            scalar_kernel());
  EXPECT_EQ(evaluator.evaluate_bits(sweep.num_words, sweep.bits), want);
  EXPECT_EQ(program.evaluate_bits(sweep.num_words, sweep.bits), want);
}

TEST(KernelEquivalence, OddWordCountsExerciseTheVectorTail) {
  // The table decode groups 4 (AVX2) or 8 (AVX-512) column u64s per
  // register, and the converters work in 64-word column u64s; a partial
  // group runs on the padding, whose bits the row edge drops.
  const KernelFixture fix;
  for (const auto& [m, n] : kEdgeLayouts) {
    const auto gate = fix.majority_gate(m, n);
    const BatchEvaluator evaluator(gate, {.num_threads = 1});
    expect_kernels_match_rows(evaluator, 1, static_cast<unsigned>(31 + m + n));
  }
}

TEST(KernelEquivalence, NonCanonicalBytesDecodeIdentically) {
  // evaluate_bits documents a bit per byte but never validates the values;
  // the scalar reference treats any nonzero byte as a set bit, and every
  // converter must agree (a pack keyed on bit 0 alone would silently
  // decode 2, 4, 0x80... as zeros).
  const KernelFixture fix;
  for (const auto& [m, n] : kEdgeLayouts) {
    const auto gate = fix.majority_gate(m, n);
    const BatchEvaluator evaluator(gate, {.num_threads = 1});
    expect_kernels_match_rows(evaluator, 255,
                              static_cast<unsigned>(41 + m + n));
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

TEST(KernelEquivalence, ThinMarginSumsDecodeAlikeOnEveryRung) {
  // The near-cancelling fixtures through every rung's eval_tables (a
  // one-stage EvalProgram's column entry), against the phasor eval_bits on
  // the same columns at every edge word count; eval_bits is itself pinned
  // to the row reference, which shares no code with it.
  const KernelFixture fix;
  std::mt19937 rng(79);
  std::bernoulli_distribution coin(0.5);
  for (const DataParallelGate& gate : fix.thin_margin_gates()) {
    const EvalPlan plan(gate);
    const sw::wavesim::EvalProgram program(gate.layout(), gate.engine());
    const std::size_t slots = plan.slot_count();
    const std::size_t n = plan.num_channels();
    for (const std::size_t words : kEdgeWordCounts) {
      std::vector<std::uint8_t> rows(words * slots);
      for (auto& b : rows) b = coin(rng) ? 1 : 0;
      const auto primary = sw::testing::columns_of(rows, words, slots);
      const std::size_t stride = sw::wavesim::kernels::column_words(words);
      std::vector<const std::uint64_t*> inputs(slots);
      for (std::size_t j = 0; j < slots; ++j) {
        inputs[j] = primary.data() + j * stride;
      }
      std::vector<std::uint64_t> phasor(n * stride);
      sw::wavesim::kernels::eval_bits(plan, inputs.data(), words,
                                      phasor.data(), stride);
      const auto want = sw::testing::rows_of(phasor, words, n);
      ASSERT_EQ(want, row_reference(gate, words, rows))
          << n << " channels, " << words << " words";
      for (const Kernel* k : available_kernels()) {
        EXPECT_EQ(sw::testing::rows_of(
                      program.evaluate_columns(words, primary, *k), words, n),
                  want)
            << "eval_tables, " << n << " channels, " << words
            << " words, kernel " << k->name;
      }
    }
  }
}

// ------------------------------------------------------------------ tables --

/// The 8-channel widths the oracle checks exhaustively.
constexpr std::size_t kOracleWidths[] = {3, 5, 7, 9, 11, 13, 15};

TEST(TableDecode, EveryAssignmentMatchesTheGateOnEveryTestedLayout) {
  // Exhaustive: every detector of the edge layouts and of the m = 5 gate,
  // every assignment of its slots, read through its diagram.
  const KernelFixture fix;
  std::vector<std::pair<std::size_t, std::size_t>> layouts(
      std::begin(kEdgeLayouts), std::end(kEdgeLayouts));
  layouts.emplace_back(5, 8);
  for (const auto& [m, n] : layouts) {
    const auto gate = fix.majority_gate(m, n);
    sw::testing::expect_tables_match_gate(gate, EvalPlan(gate));
  }
}

TEST(TableDecode, DiagramsAreTheOraclesReducedDiagrams) {
  // Every detector's diagram against the enumeration oracle: the same
  // verdict on all 2^k assignments and as many muxes as the reduced ordered
  // diagram of the oracle's table, on the edge layouts, the thin-margin
  // fixtures and the 8-channel gates at m = 3..15, as designed and with the
  // paper's drive levels.
  const KernelFixture fix;
  for (const auto& [m, n] : kEdgeLayouts) {
    sw::testing::expect_diagrams_match_oracle(
        EvalPlan(fix.majority_gate(m, n)));
  }
  for (const DataParallelGate& gate : fix.thin_margin_gates()) {
    sw::testing::expect_diagrams_match_oracle(EvalPlan(gate));
  }
  for (const std::size_t m : kOracleWidths) {
    sw::testing::expect_diagrams_match_oracle(
        EvalPlan(fix.majority_gate(m, 8)));
    sw::testing::expect_diagrams_match_oracle(
        EvalPlan(fix.compensated_gate(m, 8)));
  }
}

TEST(TableDecode, BuilderIsExactWhereSumsLandOnBounds) {
  // Small integer multiples of the least subnormal add exactly, and their
  // keys are consecutive integers, so partial sums sit on every preimage
  // bound and coincide across paths: a bound one ulp out puts a sum in the
  // wrong sub-function (a wrong verdict), one ulp in splits a sub-function
  // (a mux more than the oracle's). Whole numbers add exactly too, with
  // bounds a few ulps apart; zeros, equal constants (a slot that cannot
  // change the verdict) and -0.0 are in the mix.
  std::mt19937_64 rng(83);
  std::uniform_int_distribution<int> pick(-6, 6);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (std::size_t trial = 0; trial < 400; ++trial) {
    const std::size_t k = 1 + trial % 10;
    const double unit = trial % 2 == 0 ? tiny : 1.0;
    std::vector<double> re0(k), re1(k);
    std::vector<std::uint32_t> slots(k);
    for (std::size_t c = 0; c < k; ++c) {
      re0[c] = pick(rng) * unit;
      re1[c] = trial % 7 == 0 && c % 3 == 1 ? re0[c] : pick(rng) * unit;
      if (re0[c] == 0.0 && trial % 3 == 0) re0[c] = -0.0;
      slots[c] = static_cast<std::uint32_t>(3 * k - 2 * c);
    }
    const auto diagram = sw::wavesim::build_diagram(re0, re1, slots);
    ASSERT_TRUE(diagram.has_value());
    const auto oracle = sw::testing::tabulate_detector({re0, re1, slots});
    ASSERT_EQ(sw::testing::diagram_table(*diagram, slots), oracle.bits)
        << "trial " << trial;
    ASSERT_EQ(diagram->muxes.size(), sw::testing::reduced_size(oracle))
        << "trial " << trial;
  }
}

TEST(ThinMarginTables, DiagramsDecodeEveryThinAssignmentExactly) {
  // A table sums the f64 constants as eval_bits does, so it holds at any
  // margin: every assignment of the thin-margin fixtures, the
  // near-cancelling one of each thinned detector included, exhaustive
  // against the gate.
  const KernelFixture fix;
  for (const DataParallelGate& gate : fix.thin_margin_gates()) {
    sw::testing::expect_tables_match_gate(gate, EvalPlan(gate));
  }
}

TEST(TableDecode, TwoContributionsOnOneSlotAreOneVariable) {
  // A validated layout drives each slot from one source, so a diagram's
  // variables are its contributions and the builder refuses a slot read
  // twice rather than decode it. The case is built from a detector's own
  // contributions: the paper gate's detector 0 plus a fourth contribution,
  // channel 1's first, read by the slot of its first. Without the fourth
  // the builder makes the oracle's diagram.
  const KernelFixture fix;
  const auto gate = fix.majority_gate(3, 8);
  const EvalPlan plan(gate);
  const auto offsets = plan.detector_offsets();
  ASSERT_EQ(offsets[1], 3u);
  std::vector<double> re0(plan.re0().begin(), plan.re0().begin() + 3);
  std::vector<double> re1(plan.re1().begin(), plan.re1().begin() + 3);
  std::vector<std::uint32_t> slots(plan.slots().begin(),
                                   plan.slots().begin() + 3);
  const auto distinct = sw::wavesim::build_diagram(re0, re1, slots);
  ASSERT_TRUE(distinct.has_value());
  EXPECT_EQ(sw::testing::diagram_table(*distinct, slots),
            sw::testing::tabulate_detector({re0, re1, slots}).bits);

  re0.push_back(plan.re0()[offsets[1]]);
  re1.push_back(plan.re1()[offsets[1]]);
  slots.push_back(slots[0]);
  EXPECT_THROW(sw::wavesim::build_diagram(re0, re1, slots), sw::util::Error);
}

TEST(TableDecode, MajorityDiagramsShareCofactors) {
  // A majority of m inputs is (m + 1)^2 / 4 muxes once cofactors are
  // shared (a full mux tree would be 2^m - 1). With the paper's drive
  // levels every detector of the 8-channel gate is MAJ_m at every odd width
  // up to 31, so each diagram has exactly that many.
  const KernelFixture fix;
  for (std::size_t m = 3; m <= 31; m += 2) {
    const EvalPlan plan(fix.compensated_gate(m, 8));
    ASSERT_TRUE(plan.tabulated()) << "MAJ" << m;
    for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
      EXPECT_EQ(plan.table_muxes(d).size(), (m + 1) * (m + 1) / 4)
          << "MAJ" << m << ", detector " << d;
    }
  }
}

TEST(TableDecode, CompensatedWideMajoritiesMatchTheSum) {
  // Past the oracle widths, compensated 8-channel gates at m = 17..31: each
  // detector's diagram against the f64 sum in plan order, on every
  // assignment up to m = 21 and on a seeded sample of 4,096 at every width.
  const KernelFixture fix;
  std::mt19937_64 rng(89);
  for (std::size_t m = 17; m <= 31; m += 2) {
    const EvalPlan plan(fix.compensated_gate(m, 8));
    ASSERT_TRUE(plan.tabulated()) << "MAJ" << m;
    for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
      const auto c = sw::testing::detector_contributions(plan, d);
      const auto diagram = sw::testing::plan_diagram(plan, d);
      if (m <= 21) {
        EXPECT_EQ(sw::testing::diagram_table(diagram, c.slots),
                  sw::testing::tabulate_detector(c).bits)
            << "MAJ" << m << ", detector " << d;
      }
      for (std::size_t w = 0; w < 64; ++w) {
        std::vector<std::uint64_t> column(plan.slot_count());
        for (const std::uint32_t slot : c.slots) column[slot] = rng();
        std::uint64_t want = 0;
        for (std::size_t b = 0; b < 64; ++b) {
          double sum = 0.0;
          for (std::size_t i = 0; i < c.slots.size(); ++i) {
            sum += ((column[c.slots[i]] >> b) & 1) != 0 ? c.re1[i] : c.re0[i];
          }
          want |= std::uint64_t{sum < 0.0} << b;
        }
        ASSERT_EQ(sw::testing::read_diagram_64(
                      diagram, [&](std::uint32_t s) { return column[s]; }),
                  want)
            << "MAJ" << m << ", detector " << d << ", sample word " << w;
      }
    }
  }
}

TEST(TableDecode, WireSizedDetectorsAreRefusedBeforeAnySearch) {
  // A v2 spec may put up to 2^20 slots on one detector, so the builder must
  // not recurse once per slot: one reading more slots than kMaxTableMuxes
  // is over budget before any search. Here only the last of 2^20
  // contributions can flip the verdict. At the budget the same shape
  // builds, one level per contribution, to the one mux that matters.
  const std::size_t kWire = std::size_t{1} << 20;
  std::vector<double> re0(kWire, 0.0);
  std::vector<double> re1(kWire, 0.0);
  std::vector<std::uint32_t> slots(kWire);
  for (std::size_t c = 0; c < kWire; ++c) {
    slots[c] = static_cast<std::uint32_t>(c);
  }
  re0.back() = 1.0;
  re1.back() = -1.0;
  EXPECT_FALSE(sw::wavesim::build_diagram(re0, re1, slots).has_value());

  const std::size_t k = sw::wavesim::kMaxTableMuxes;
  const std::span<const double> tail0 = std::span(re0).last(k);
  const std::span<const double> tail1 = std::span(re1).last(k);
  const std::span<const std::uint32_t> tail_slots = std::span(slots).last(k);
  const auto diagram = sw::wavesim::build_diagram(tail0, tail1, tail_slots);
  ASSERT_TRUE(diagram.has_value());
  ASSERT_EQ(diagram->muxes.size(), 1u);
  EXPECT_EQ(diagram->muxes[0].slot, slots.back());
  EXPECT_EQ(diagram->muxes[0].lo, 0u);
  EXPECT_EQ(diagram->muxes[0].hi, 1u);
}

TEST(TableDecode, EvalTablesMatchesScalarEvalBitsWithDirtyPadding) {
  // Every rung's eval_tables against the phasor eval_bits on the same
  // columns. Each slot column is its own exactly-sized allocation with
  // random bits past num_words too, so a read past column_words shows
  // under ASan and padding bits must not leak into a verdict. Besides the
  // edge word counts, counts whose last vector of 4 (AVX2) or 8 (AVX-512)
  // column u64s holds 1..7 of them, after whole vectors and after a whole
  // 16-u64 tile, run the masked loads and stores.
  constexpr std::size_t kTileWordCounts[] = {320, 577, 703, 960, 1025, 1600};
  std::vector<std::size_t> word_counts(std::begin(kEdgeWordCounts),
                                       std::end(kEdgeWordCounts));
  word_counts.insert(word_counts.end(), std::begin(kTileWordCounts),
                     std::end(kTileWordCounts));
  const KernelFixture fix;
  std::mt19937_64 rng(71);
  for (const auto& [m, n] : kEdgeLayouts) {
    const auto gate = fix.majority_gate(m, n);
    const EvalPlan plan(gate);
    ASSERT_TRUE(plan.tabulated());
    for (const std::size_t words : word_counts) {
      const std::size_t stride = sw::wavesim::kernels::column_words(words);
      std::vector<std::vector<std::uint64_t>> columns(plan.slot_count());
      std::vector<const std::uint64_t*> inputs;
      for (auto& column : columns) {
        column.resize(stride);
        for (auto& u : column) u = rng();
        inputs.push_back(column.data());
      }
      std::vector<std::uint64_t> want(n * stride, rng());
      sw::wavesim::kernels::eval_bits(plan, inputs.data(), words, want.data(),
                                      stride);
      for (const Kernel* k : available_kernels()) {
        std::vector<std::uint64_t> got(n * stride, rng());
        k->eval_tables(plan, inputs.data(), words, got.data(), stride);
        for (std::size_t w = 0; w < words; ++w) {
          for (std::size_t ch = 0; ch < n; ++ch) {
            const std::size_t at = ch * stride + w / 64;
            ASSERT_EQ((got[at] >> (w % 64)) & 1, (want[at] >> (w % 64)) & 1)
                << m << "x" << n << ", " << words << " words, kernel "
                << k->name << ", word " << w << ", channel " << ch;
          }
        }
      }
    }
  }
}

/// The one-channel 10 GHz majority gate at m = 17, as designed: without
/// graded drive levels its detector is no majority, and its reduced
/// diagram has 784 muxes, past kMaxTableMuxes.
DataParallelGate over_budget_gate(const KernelFixture& fix) {
  return fix.majority_gate(17, 1);
}

TEST(TableDecode, LayoutWiderThanTheTablesStaysOnThePhasorSum) {
  // Two layouts wider than 11 inputs. A designed 13-input layout is
  // tabulated, priced in muxes and bit-exact on every rung. An
  // over-budget one (its diagram past kMaxTableMuxes, by the oracle) keeps
  // no diagrams: EvalProgram refuses it naming the budget, and only the
  // phasor sum decodes it, still bit-exact with the row reference.
  const KernelFixture fix;
  std::mt19937 rng(73);
  std::bernoulli_distribution coin(0.5);
  const auto wide = fix.majority_gate(13, 2);
  const EvalPlan plan(wide);
  EXPECT_TRUE(plan.tabulated());
  const sw::wavesim::EvalProgram program(wide.layout(), wide.engine());
  EXPECT_EQ(program.kernel_work(100), 2 * plan.num_table_muxes());
  for (const std::size_t words : {1ul, 63ul, 65ul, 1100ul}) {
    std::vector<std::uint8_t> rows(words * plan.slot_count());
    for (auto& b : rows) b = coin(rng) ? 1 : 0;
    const auto want = row_reference(wide, words, rows);
    const auto primary =
        sw::testing::columns_of(rows, words, plan.slot_count());
    for (const Kernel* k : available_kernels()) {
      EXPECT_EQ(sw::testing::rows_of(program.evaluate_columns(words, primary,
                                                              *k),
                                     words, 2),
                want)
          << words << " words, kernel " << k->name;
    }
  }

  const auto over = over_budget_gate(fix);
  const EvalPlan over_plan(over);
  ASSERT_GT(sw::testing::reduced_size(sw::testing::tabulate_detector(
                sw::testing::detector_contributions(over_plan, 0))),
            sw::wavesim::kMaxTableMuxes);
  EXPECT_FALSE(over_plan.tabulated());
  EXPECT_EQ(over_plan.num_table_muxes(), 0u);
  try {
    const sw::wavesim::EvalProgram refused(over.layout(), over.engine());
    FAIL() << "expected the stage to be refused";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxTableMuxes"), std::string::npos)
        << e.what();
  }
  const BatchEvaluator evaluator(over, {.num_threads = 1});
  for (const std::size_t words : {1ul, 65ul, 1100ul}) {
    std::vector<std::uint8_t> rows(words * evaluator.slot_count());
    for (auto& b : rows) b = coin(rng) ? 1 : 0;
    EXPECT_EQ(evaluator.evaluate_bits(words, rows),
              row_reference(over, words, rows))
        << words << " words";
  }
}

TEST(TableDecode, KernelWorkSaturatesInsteadOfWrapping) {
  const KernelFixture fix;
  const auto tabulated = fix.majority_gate(3, 8);
  const sw::wavesim::EvalProgram program(tabulated.layout(),
                                         tabulated.engine());
  // The paper gate: 32 muxes per 64 words.
  EXPECT_EQ(program.kernel_work(4096), 64u * 32u);
  EXPECT_EQ(program.kernel_work(24), 32u);
  EXPECT_EQ(program.kernel_work(0), 0u);
  // column_words(SIZE_MAX) without the wrap of num_words + 63.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(program.kernel_work(kMax), (kMax / 64 + 1) * 32);
  // More than 64 muxes: column_words(SIZE_MAX) x muxes passes SIZE_MAX.
  const auto wider = fix.majority_gate(7, 8);
  const sw::wavesim::EvalProgram saturating(wider.layout(), wider.engine());
  ASSERT_GT(saturating.stage_plan(0).num_table_muxes(), 64u);
  EXPECT_EQ(saturating.kernel_work(kMax), kMax);
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

}  // namespace
