// Synthesis correctness: every truth table the compiler accepts must come
// back as a majority chain computing exactly that function (exhaustively for
// n <= 3, sampled plus structured specials for n = 4), and lowering a chain
// to an EvalProgram must be bit-exact against both the Boolean reference and
// the per-stage physics path (MajorityCascade) on every channel. The
// program's column cascade is pinned on every slot source kind,
// non-canonical input bytes and partial blocks, and so is the one-stage
// program a single gate becomes; seeded random tables run the whole trip on
// every kernel (ProgramDifferential).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "column_model.h"
#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/cascade.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "serve/eval_request.h"
#include "serve/service.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using sw::compile::CompiledCircuit;
using sw::compile::NpnClass;
using sw::compile::Synthesizer;
using sw::compile::TruthTable;
using sw::core::Bits;
using sw::core::GateSpec;
using sw::core::InlineGateDesigner;
using sw::core::MajorityCascade;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::EvalProgram;
using sw::wavesim::ProgramSpec;
using sw::wavesim::WaveEngine;

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

struct CompileFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  WaveEngine engine{model, wg.material.alpha};

  GateSpec base_spec(std::size_t n) const {
    GateSpec spec;
    spec.num_inputs = 3;
    spec.frequencies = channel_frequencies(n);
    return spec;
  }
};

// --------------------------------------------------------------------------
// TruthTable mechanics

TEST(TruthTable, FromStringMsbFirst) {
  // Column is listed from assignment 2^n-1 down to 0.
  const TruthTable maj = TruthTable::from_string("11101000");
  EXPECT_EQ(maj.num_inputs(), 3u);
  EXPECT_EQ(maj.bits(), 0xE8u);
  EXPECT_FALSE(maj.value(0b000));
  EXPECT_FALSE(maj.value(0b001));
  EXPECT_TRUE(maj.value(0b011));
  EXPECT_TRUE(maj.value(0b111));
}

TEST(TruthTable, CofactorSplitsShannon) {
  const TruthTable maj(3, 0xE8);
  // MAJ(a,b,1) = OR(a,b); MAJ(a,b,0) = AND(a,b), splitting on input 2.
  EXPECT_EQ(maj.cofactor(2, true).bits(), 0b1110u);
  EXPECT_EQ(maj.cofactor(2, false).bits(), 0b1000u);
}

TEST(TruthTable, NpnTransformRoundTrip) {
  for (std::uint32_t bits = 0; bits < 256; ++bits) {
    const TruthTable t(3, static_cast<std::uint16_t>(bits));
    const NpnClass cls = sw::compile::npn_canonicalize(t);
    // The stored transform maps t to its representative.
    EXPECT_EQ(cls.transform.apply(t), cls.representative);
    // Canonicalisation is idempotent across the class.
    EXPECT_EQ(sw::compile::npn_canonicalize(cls.representative).representative,
              cls.representative);
  }
}

// --------------------------------------------------------------------------
// Synthesis: exhaustive and sampled equivalence

void expect_compiles_exactly(Synthesizer& synth, const TruthTable& t) {
  const CompiledCircuit circuit = synth.compile(t);
  ASSERT_EQ(circuit.num_inputs, t.num_inputs());
  ASSERT_FALSE(circuit.nodes.empty());
  EXPECT_EQ(circuit.table(), t) << "n=" << t.num_inputs()
                                << " bits=" << t.bits();
  EXPECT_EQ(circuit.depth, sw::compile::circuit_depth(circuit));
  EXPECT_EQ(circuit.function, t);
  // Topological discipline: fanins reference strictly earlier nodes.
  for (std::size_t i = 0; i < circuit.nodes.size(); ++i) {
    for (const sw::compile::Literal& lit : circuit.nodes[i].in) {
      if (lit.kind == sw::compile::Literal::Kind::kNode) {
        EXPECT_LT(lit.index, i);
      }
      if (lit.kind == sw::compile::Literal::Kind::kInput) {
        EXPECT_LT(lit.index, circuit.num_inputs);
      }
    }
  }
}

TEST(Synthesizer, ExhaustiveUpToThreeInputs) {
  Synthesizer synth;
  for (std::size_t n = 1; n <= 3; ++n) {
    const std::uint32_t tables = 1u << (1u << n);
    for (std::uint32_t bits = 0; bits < tables; ++bits) {
      expect_compiles_exactly(synth, TruthTable(n, static_cast<std::uint16_t>(bits)));
    }
  }
  // 2 + 16 + 256 top-level requests collapse onto a handful of NPN classes
  // (Shannon cofactors recurse through compile(), so requests may exceed the
  // top-level count).
  EXPECT_GT(synth.stats().memo_hits, 0u);
  EXPECT_GE(synth.stats().requests, 2u + 16u + 256u);
}

TEST(Synthesizer, SampledFourInputTables) {
  Synthesizer synth;
  // Structured specials first: parity, majority-like, mux.
  expect_compiles_exactly(synth, TruthTable(4, 0x6996));  // XOR4
  expect_compiles_exactly(synth, TruthTable(4, 0xE8E8));  // MAJ3(a,b,c)
  expect_compiles_exactly(synth, TruthTable(4, 0xF888));  // MAJ-ish threshold
  expect_compiles_exactly(synth, TruthTable(4, 0xCACA));  // MUX(a, b, c)
  expect_compiles_exactly(synth, TruthTable(4, 0x0000));  // const 0
  expect_compiles_exactly(synth, TruthTable(4, 0xFFFF));  // const 1
  // Deterministic LCG sample over the 65536-table space.
  std::uint32_t x = 0x12345u;
  for (int i = 0; i < 300; ++i) {
    x = x * 1664525u + 1013904223u;
    expect_compiles_exactly(synth, TruthTable(4, static_cast<std::uint16_t>(x >> 16)));
  }
  EXPECT_GT(synth.stats().exact + synth.stats().decomposed, 0u);
}

TEST(Synthesizer, KnownMinimalChains) {
  Synthesizer synth;
  // One gate suffices for MAJ, AND, OR (free constants).
  EXPECT_EQ(synth.compile(TruthTable(3, 0xE8)).nodes.size(), 1u);
  EXPECT_EQ(synth.compile(TruthTable(2, 0b1000)).nodes.size(), 1u);
  EXPECT_EQ(synth.compile(TruthTable(2, 0b1110)).nodes.size(), 1u);
  // XOR2 needs exactly 3 majority gates (no MAJ chain of 2 computes it).
  EXPECT_EQ(synth.compile(TruthTable(2, 0b0110)).nodes.size(), 3u);
  // NAND and NOR are one gate with a free output complement.
  EXPECT_EQ(synth.compile(TruthTable(2, 0b0111)).nodes.size(), 1u);
  EXPECT_EQ(synth.compile(TruthTable(2, 0b0001)).nodes.size(), 1u);
}

TEST(Synthesizer, MemoSharesNpnClasses) {
  Synthesizer synth;
  synth.compile(TruthTable(2, 0b1000));  // AND
  const std::size_t after_first = synth.memo_size();
  synth.compile(TruthTable(2, 0b1110));  // OR = NPN-equivalent to AND
  synth.compile(TruthTable(2, 0b0111));  // NAND
  synth.compile(TruthTable(2, 0b0010));  // a AND NOT b
  EXPECT_EQ(synth.memo_size(), after_first);
  EXPECT_EQ(synth.stats().memo_hits, 3u);
}

// --------------------------------------------------------------------------
// Lowering: EvalProgram vs Boolean reference on every channel

TEST(Lowering, ProgramMatchesReferenceExhaustively) {
  const CompileFixture fix;
  Synthesizer synth;
  const std::size_t n = 4;
  const std::array<std::uint16_t, 5> functions = {
      0x96,  // XOR3 (parity)
      0xE8,  // MAJ3
      0xCA,  // MUX(a2; a1, a0)
      0x1B,  // random-ish
      0x80,  // AND3
  };
  for (const std::uint16_t bits : functions) {
    const TruthTable t(3, bits);
    const CompiledCircuit circuit = synth.compile(t);
    const ProgramSpec spec = sw::compile::lower_to_program(circuit, fix.base_spec(n));
    EXPECT_EQ(spec.num_stages(), circuit.nodes.size());
    EXPECT_EQ(spec.depth(), circuit.depth);
    const EvalProgram program(spec, fix.designer, fix.engine);

    // Words cover all 8 assignments; channel ch carries assignment
    // (w + ch) % 8 so channels exercise independent data.
    const std::size_t num_words = 8;
    std::vector<std::uint8_t> packed(num_words * program.num_primary_slots());
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        const std::size_t a = (w + ch) % 8;
        for (std::size_t i = 0; i < 3; ++i) {
          packed[w * program.num_primary_slots() + ch * 3 + i] =
              static_cast<std::uint8_t>((a >> i) & 1);
        }
      }
    }
    const auto out = program.evaluate_bits(num_words, packed);
    ASSERT_EQ(out.size(), num_words * n);
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        const std::size_t a = (w + ch) % 8;
        EXPECT_EQ(out[w * n + ch], t.value(a) ? 1 : 0)
            << "bits=" << bits << " w=" << w << " ch=" << ch;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Program vs per-stage physics: the full adder at n in {1, 4, 8}

// Build the paper's 3-gate majority full adder as a ProgramSpec:
//   carry = MAJ(a, b, cin); t = MAJ(a, b, !cin); sum = MAJ(!carry, t, cin).
ProgramSpec full_adder_program(const GateSpec& base) {
  using sw::compile::MajNode;
  CompiledCircuit circuit;
  circuit.num_inputs = 3;
  circuit.nodes.push_back(MajNode{{sw::compile::input_lit(0),
                                   sw::compile::input_lit(1),
                                   sw::compile::input_lit(2)}});
  circuit.nodes.push_back(MajNode{{sw::compile::input_lit(0),
                                   sw::compile::input_lit(1),
                                   sw::compile::input_lit(2, true)}});
  circuit.nodes.push_back(MajNode{{sw::compile::node_lit(0, true),
                                   sw::compile::node_lit(1),
                                   sw::compile::input_lit(2)}});
  circuit.depth = sw::compile::circuit_depth(circuit);
  return sw::compile::lower_to_program(circuit, base);
}

void expect_program_matches_physics(const CompileFixture& fix, std::size_t n,
                                    std::size_t num_words) {
  const EvalProgram program(full_adder_program(fix.base_spec(n)),
                            fix.designer, fix.engine);

  MajorityCascade cascade(channel_frequencies(n), fix.designer, fix.engine);
  const auto fa = sw::core::build_full_adder(cascade);
  ASSERT_EQ(cascade.num_gates(), program.num_stages());

  // Deterministic word stream: word w, channel ch carries assignment
  // (w * 3 + ch * 5 + (w >> 6)) % 8 — covers all assignments per channel
  // for any num_words >= 8 and differs across channels.
  std::vector<std::uint8_t> packed(num_words * program.num_primary_slots());
  std::vector<std::size_t> assignment(num_words * n);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      const std::size_t a = (w * 3 + ch * 5 + (w >> 6)) % 8;
      assignment[w * n + ch] = a;
      for (std::size_t i = 0; i < 3; ++i) {
        packed[w * program.num_primary_slots() + ch * 3 + i] =
            static_cast<std::uint8_t>((a >> i) & 1);
      }
    }
  }
  const auto all = program.evaluate_all_bits(num_words, packed);
  ASSERT_EQ(all.size(), num_words * program.num_stages() * n);

  // Physics oracle: evaluate each distinct assignment per channel once via
  // the per-stage gate path and compare each stage's verdicts.
  for (std::size_t a = 0; a < 8; ++a) {
    std::vector<Bits> primary(3, Bits(n));
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        primary[i][ch] = static_cast<std::uint8_t>((a >> i) & 1);
      }
    }
    const auto signals = cascade.evaluate(primary);
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        if (assignment[w * n + ch] != a) continue;
        for (std::size_t s = 0; s < program.num_stages(); ++s) {
          EXPECT_EQ(all[w * program.num_stages() * n + s * n + ch],
                    signals[3 + s][ch])
              << "n=" << n << " w=" << w << " ch=" << ch << " stage=" << s;
        }
      }
    }
  }
  // Spot-check the named full-adder outputs against arithmetic.
  const std::size_t n_stages = program.num_stages();
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      const std::size_t a = assignment[w * n + ch];
      const int ones = ((a >> 0) & 1) + ((a >> 1) & 1) + ((a >> 2) & 1);
      EXPECT_EQ(all[w * n_stages * n + 0 * n + ch], ones >= 2 ? 1 : 0);
      EXPECT_EQ(all[w * n_stages * n + 2 * n + ch], ones & 1);
    }
  }
  (void)fa;
}

TEST(ProgramPhysics, FullAdderOneChannel) {
  const CompileFixture fix;
  expect_program_matches_physics(fix, 1, 8);
}

TEST(ProgramPhysics, FullAdderFourChannels) {
  const CompileFixture fix;
  expect_program_matches_physics(fix, 4, 4096);
}

TEST(ProgramPhysics, FullAdderEightChannelFullSweep) {
  const CompileFixture fix;
  expect_program_matches_physics(fix, 8, 65536);
}

// --------------------------------------------------------------------------
// The column cascade: every slot source kind, non-canonical input bytes,
// partial blocks

/// A cascade exercising every slot source: constants (one of them a
/// negated kOne), plain and negated primary columns, plain and negated
/// stage outputs, and an inverted-output stage.
ProgramSpec gather_program(const GateSpec& base) {
  using sw::compile::MajNode;
  CompiledCircuit circuit;
  circuit.num_inputs = 3;
  circuit.nodes.push_back(MajNode{{sw::compile::input_lit(0),
                                   sw::compile::input_lit(1),
                                   sw::compile::const_zero()}});
  circuit.nodes.push_back(MajNode{{sw::compile::input_lit(0, true),
                                   sw::compile::input_lit(2),
                                   sw::compile::const_one()},
                                  /*invert_output=*/true});
  circuit.nodes.push_back(MajNode{{sw::compile::node_lit(0),
                                   sw::compile::node_lit(1, true),
                                   sw::compile::input_lit(2)}});
  circuit.depth = sw::compile::circuit_depth(circuit);
  ProgramSpec spec = sw::compile::lower_to_program(circuit, base);
  // Same drive bit, other encoding: pinned phase pi flipped back to 0.
  for (auto& src : spec.stages[0].sources) {
    if (src.kind == sw::wavesim::SlotSource::Kind::kZero) {
      src = {sw::wavesim::SlotSource::Kind::kOne, 0, 0, true};
      break;
    }
  }
  return spec;
}

/// Per-stage reference: each stage run by its own BatchEvaluator on an
/// input matrix gathered word by word. Returns words x (stages x n), the
/// evaluate_all_bits layout.
std::vector<std::uint8_t> per_stage_reference(
    const CompileFixture& fix, const ProgramSpec& spec, std::size_t num_words,
    const std::vector<std::uint8_t>& primary) {
  using sw::wavesim::SlotSource;
  const std::size_t n = spec.num_channels();
  const std::size_t cols = spec.primary_slot_count();
  const std::size_t width = spec.num_stages() * n;
  std::vector<std::uint8_t> all(num_words * width);
  for (std::size_t s = 0; s < spec.num_stages(); ++s) {
    const auto& stage = spec.stages[s];
    const sw::core::DataParallelGate gate(fix.designer.design(stage.gate),
                                          fix.engine);
    const sw::wavesim::BatchEvaluator evaluator(gate, {.num_threads = 1});
    const std::size_t slots = stage.sources.size();
    std::vector<std::uint8_t> packed(num_words * slots);
    for (std::size_t w = 0; w < num_words; ++w) {
      for (std::size_t j = 0; j < slots; ++j) {
        const SlotSource& src = stage.sources[j];
        bool v = src.kind == SlotSource::Kind::kOne;
        if (src.kind == SlotSource::Kind::kPrimary) {
          v = primary[w * cols + src.index] != 0;
        } else if (src.kind == SlotSource::Kind::kStage) {
          v = all[w * width + src.stage * n + src.index] != 0;
        }
        packed[w * slots + j] = static_cast<std::uint8_t>(v != src.negated);
      }
    }
    const auto out = evaluator.evaluate_bits(num_words, packed);
    for (std::size_t w = 0; w < num_words; ++w) {
      std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(w * n), n,
                  all.begin() + static_cast<std::ptrdiff_t>(w * width + s * n));
    }
  }
  return all;
}

TEST(ProgramGather, NonCanonicalBytesAndPartialBlocksMatchPerStageReference) {
  const CompileFixture fix;
  const std::size_t n = 4;
  const ProgramSpec spec = gather_program(fix.base_spec(n));
  const std::size_t cols = spec.primary_slot_count();
  const std::size_t stages = spec.num_stages();
  sw::serve::EvaluatorService service(fix.model, fix.wg.material.alpha);
  // Blocks end at 1024-word boundaries inside the larger batches.
  const EvalProgram program(spec, fix.designer, fix.engine);

  // The one-stage paths over the same primary columns: a single MAJ gate
  // whose slot j reads primary column j, as a hand-built ProgramSpec and as
  // an EvalProgram over the designed layout, plus layout requests through
  // a service of their own. All are one-stage programs and must match the
  // gate's scalar-kernel BatchEvaluator on the canonical matrix.
  const sw::core::GateLayout layout = fix.designer.design(fix.base_spec(n));
  ASSERT_EQ(layout.spec.num_inputs * n, cols);
  ProgramSpec identity;
  identity.num_primary_inputs = layout.spec.num_inputs;
  identity.stages.push_back({layout.spec, {}});
  for (std::uint32_t j = 0; j < cols; ++j) {
    identity.stages[0].sources.push_back(
        {sw::wavesim::SlotSource::Kind::kPrimary, 0, j, false});
  }
  const EvalProgram identity_program(identity, fix.designer, fix.engine);
  const EvalProgram layout_program(layout, fix.engine);
  // One stage whose sources are not the identity (a pinned constant, a
  // negated column): it reads a constant column and a complemented copy.
  ProgramSpec first_stage = spec;
  first_stage.stages.resize(1);
  const EvalProgram first_program(first_stage, fix.designer, fix.engine);
  const sw::core::DataParallelGate gate(layout, fix.engine);
  const sw::wavesim::BatchEvaluator gate_reference(gate, {.num_threads = 1});
  sw::serve::EvaluatorService layout_service(fix.model,
                                             fix.wg.material.alpha);
  std::mt19937 rng(97);
  for (const std::size_t words : {1u, 8u, 1023u, 1025u, 2049u}) {
    std::vector<std::uint8_t> canonical(words * cols);
    for (auto& b : canonical) b = static_cast<std::uint8_t>(rng() & 1);
    // Every nonzero byte means 1: encode the ones as 1, 2, 0x80 or 0xFF.
    std::vector<std::uint8_t> raw = canonical;
    const std::uint8_t ones[] = {1, 2, 0x80, 0xFF};
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != 0) raw[i] = ones[i % 4];
    }
    const auto reference = per_stage_reference(fix, spec, words, canonical);
    std::vector<std::uint8_t> last(words * n);
    std::vector<std::uint8_t> first(words * n);
    for (std::size_t w = 0; w < words; ++w) {
      std::copy_n(reference.begin() +
                      static_cast<std::ptrdiff_t>((w * stages + stages - 1) * n),
                  n, last.begin() + static_cast<std::ptrdiff_t>(w * n));
      std::copy_n(reference.begin() + static_cast<std::ptrdiff_t>(w * stages * n),
                  n, first.begin() + static_cast<std::ptrdiff_t>(w * n));
    }
    EXPECT_EQ(program.evaluate_all_bits(words, raw), reference)
        << words << " words";
    EXPECT_EQ(program.evaluate_bits(words, raw), last) << words << " words";
    EXPECT_EQ(program.evaluate_bits(words, canonical), last)
        << words << " words";
    const auto served =
        service.submit(sw::serve::EvalRequest::for_program(spec, raw, words))
            .get();
    EXPECT_EQ(served.bits, last) << words << " words";
    EXPECT_EQ(first_program.evaluate_bits(words, raw), first)
        << words << " words";

    const auto gate_bits = gate_reference.evaluate_bits(
        words, canonical, sw::wavesim::kernels::scalar_kernel());
    for (const EvalProgram* program : {&identity_program, &layout_program}) {
      EXPECT_EQ(program->evaluate_all_bits(words, raw), gate_bits)
          << words << " words";
      EXPECT_EQ(program->evaluate_bits(words, raw), gate_bits)
          << words << " words";
    }
    const auto gate_served =
        layout_service
            .submit(sw::serve::EvalRequest::for_layout(layout, raw, words))
            .get();
    EXPECT_EQ(gate_served.bits, gate_bits) << words << " words";
    EXPECT_EQ(gate_served.num_stages, 1u);
    EXPECT_EQ(gate_served.depth, 1u);
  }
  // A layout target is one program entry, but neither a ProgramSpec build
  // nor a designed stage.
  const auto cache = layout_service.stats().cache;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.program_builds, 0u);
  EXPECT_EQ(cache.stage_builds, 0u);
}

// --------------------------------------------------------------------------
// Differential: seeded random 2-, 3- and 4-input tables through synthesis,
// lowering and EvalProgram, on every kernel, against the table and against
// each stage's gate evaluated alone.

/// Stage artefacts shared by every program of a differential run, one per
/// GateSpec, so hundreds of programs design only a handful of gates.
struct StageCache {
  const CompileFixture& fix;
  std::vector<std::pair<GateSpec,
                        std::shared_ptr<const sw::wavesim::EvalStage>>>
      stages;

  std::shared_ptr<const sw::wavesim::EvalStage> get(const GateSpec& gate) {
    for (const auto& [key, stage] : stages) {
      if (key == gate) return stage;
    }
    stages.push_back({gate, std::make_shared<const sw::wavesim::EvalStage>(
                                gate, fix.designer, fix.engine)});
    return stages.back().second;
  }
};

struct DifferentialCase {
  TruthTable table;
  ProgramSpec spec;
};

/// 240 seeded tables, 80 each of 2, 3 and 4 inputs, lowered onto `n`
/// channels.
std::vector<DifferentialCase> differential_cases(const CompileFixture& fix,
                                                 std::size_t n) {
  Synthesizer synth;
  std::mt19937 rng(2109);
  std::vector<DifferentialCase> cases;
  for (std::size_t arity = 2; arity <= 4; ++arity) {
    for (std::size_t i = 0; i < 80; ++i) {
      const auto bits = static_cast<std::uint16_t>(
          rng() & ((std::uint32_t{1} << (std::size_t{1} << arity)) - 1));
      const TruthTable table(arity, bits);
      cases.push_back({table, sw::compile::lower_to_program(
                                  synth.compile(table), fix.base_spec(n))});
    }
  }
  return cases;
}

/// Word w, channel ch applies assignment (w + 3 ch) mod 2^arity, so every
/// channel sees every assignment and no two neighbouring channels agree.
std::vector<std::uint8_t> differential_inputs(std::size_t arity,
                                              std::size_t n,
                                              std::size_t words) {
  std::vector<std::uint8_t> primary(words * n * arity);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t ch = 0; ch < n; ++ch) {
      const std::size_t a = (w + 3 * ch) % (std::size_t{1} << arity);
      for (std::size_t i = 0; i < arity; ++i) {
        primary[(w * n + ch) * arity + i] =
            static_cast<std::uint8_t>((a >> i) & 1);
      }
    }
  }
  return primary;
}

/// Each stage's gate alone, on its inputs repacked by hand from the
/// primary rows and the earlier stages' outputs: the per-stage physics
/// path, in the evaluate_all_bits layout.
std::vector<std::uint8_t> stage_by_stage(
    StageCache& cache, const ProgramSpec& spec, std::size_t words,
    const std::vector<std::uint8_t>& primary) {
  using sw::wavesim::SlotSource;
  const std::size_t n = spec.num_channels();
  const std::size_t cols = spec.primary_slot_count();
  const std::size_t width = spec.num_stages() * n;
  std::vector<std::uint8_t> all(words * width);
  for (std::size_t s = 0; s < spec.num_stages(); ++s) {
    const auto stage = cache.get(spec.stages[s].gate);
    const sw::wavesim::BatchEvaluator evaluator(stage->gate(),
                                                {.num_threads = 1});
    const auto& sources = spec.stages[s].sources;
    std::vector<std::uint8_t> packed(words * sources.size());
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t j = 0; j < sources.size(); ++j) {
        const SlotSource& src = sources[j];
        bool v = src.kind == SlotSource::Kind::kOne;
        if (src.kind == SlotSource::Kind::kPrimary) {
          v = primary[w * cols + src.index] != 0;
        } else if (src.kind == SlotSource::Kind::kStage) {
          v = all[w * width + src.stage * n + src.index] != 0;
        }
        packed[w * sources.size() + j] =
            static_cast<std::uint8_t>(v != src.negated);
      }
    }
    const auto out = evaluator.evaluate_bits(
        words, packed, sw::wavesim::kernels::scalar_kernel());
    for (std::size_t w = 0; w < words; ++w) {
      std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(w * n), n,
                  all.begin() + static_cast<std::ptrdiff_t>(w * width + s * n));
    }
  }
  return all;
}

std::vector<const sw::wavesim::kernels::Kernel*> available_kernels() {
  std::vector<const sw::wavesim::kernels::Kernel*> kernels{
      &sw::wavesim::kernels::scalar_kernel()};
  if (const auto* k = sw::wavesim::kernels::avx2_kernel()) kernels.push_back(k);
  if (const auto* k = sw::wavesim::kernels::avx512_kernel()) {
    kernels.push_back(k);
  }
  return kernels;
}

TEST(ProgramDifferential, RandomTablesCoverNegatedAndConstantSources) {
  // The sample must exercise the interconnect the cascade resolves into
  // column pointers: negated primary and stage sources (complemented
  // copies) and pinned constants, negated or not.
  const CompileFixture fix;
  std::size_t negated = 0;
  std::size_t constants = 0;
  std::size_t stage_sources = 0;
  for (const auto& c : differential_cases(fix, 1)) {
    for (const auto& stage : c.spec.stages) {
      for (const auto& src : stage.sources) {
        using Kind = sw::wavesim::SlotSource::Kind;
        negated += src.negated && (src.kind == Kind::kPrimary ||
                                   src.kind == Kind::kStage);
        constants += src.kind == Kind::kZero || src.kind == Kind::kOne;
        stage_sources += src.kind == Kind::kStage;
      }
    }
  }
  EXPECT_GT(negated, 0u);
  EXPECT_GT(constants, 0u);
  EXPECT_GT(stage_sources, 0u);
}

TEST(ProgramDifferential, LastStageDecodesTheTableOnEveryKernel) {
  const CompileFixture fix;
  const std::size_t n = 8;
  const std::size_t words = 67;  // a partial second column u64
  StageCache cache{fix, {}};
  const auto kernels = available_kernels();
  for (const auto& c : differential_cases(fix, n)) {
    const std::size_t arity = c.table.num_inputs();
    const auto primary = differential_inputs(arity, n, words);
    const EvalProgram program(
        c.spec, [&](const GateSpec& gate) { return cache.get(gate); });
    const auto primary_columns = sw::testing::columns_of(
        primary, words, program.num_primary_slots());
    for (const auto* k : kernels) {
      const auto out = program.evaluate_bits(words, primary, *k);
      ASSERT_EQ(out.size(), words * n);
      // The column entry the service runs decodes the same bits.
      const auto columns = program.evaluate_columns(words, primary_columns, *k);
      ASSERT_EQ(columns, sw::testing::columns_of(out, words, n))
          << "column entry, table " << c.table.bits() << "/" << arity
          << " kernel " << k->name;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::size_t ch = 0; ch < n; ++ch) {
          const std::size_t a = (w + 3 * ch) % (std::size_t{1} << arity);
          ASSERT_EQ(out[w * n + ch], c.table.value(a) ? 1 : 0)
              << "table " << c.table.bits() << "/" << arity << " kernel "
              << k->name << " w=" << w << " ch=" << ch;
        }
      }
    }
  }
}

TEST(ProgramDifferential, EveryStageMatchesItsGateAlone) {
  // evaluate_all_bits against the per-stage physics path, at two word
  // counts that end inside a column u64.
  const CompileFixture fix;
  const std::size_t n = 4;
  StageCache cache{fix, {}};
  const auto kernels = available_kernels();
  for (const auto& c : differential_cases(fix, n)) {
    for (const std::size_t words : {67ul, 1000ul}) {
      const auto primary =
          differential_inputs(c.table.num_inputs(), n, words);
      const auto want = stage_by_stage(cache, c.spec, words, primary);
      const EvalProgram program(
          c.spec, [&](const GateSpec& gate) { return cache.get(gate); });
      // The last stage's columns, for the column entry.
      std::vector<std::uint8_t> last(words * n);
      for (std::size_t w = 0; w < words; ++w) {
        std::copy_n(want.begin() + static_cast<std::ptrdiff_t>(
                                       (w + 1) * c.spec.num_stages() * n - n),
                    n, last.begin() + static_cast<std::ptrdiff_t>(w * n));
      }
      const auto last_columns = sw::testing::columns_of(last, words, n);
      const auto primary_columns = sw::testing::columns_of(
          primary, words, program.num_primary_slots());
      for (const auto* k : kernels) {
        ASSERT_EQ(program.evaluate_all_bits(words, primary, *k), want)
            << "table " << c.table.bits() << "/" << c.table.num_inputs()
            << " kernel " << k->name << " " << words << " words";
        ASSERT_EQ(program.evaluate_columns(words, primary_columns, *k),
                  last_columns)
            << "column entry, table " << c.table.bits() << "/"
            << c.table.num_inputs() << " kernel " << k->name << " " << words
            << " words";
      }
    }
  }
}

// --------------------------------------------------------------------------
// ProgramSpec validation

TEST(ProgramSpec, ValidateRejectsMalformedPrograms) {
  const CompileFixture fix;
  ProgramSpec empty;
  empty.num_primary_inputs = 1;
  EXPECT_THROW(empty.validate(), sw::util::Error);

  ProgramSpec good = full_adder_program(fix.base_spec(2));
  good.validate();

  ProgramSpec forward = good;
  forward.stages[0].sources[0] = {sw::wavesim::SlotSource::Kind::kStage, 2, 0,
                                  false};
  EXPECT_THROW(forward.validate(), sw::util::Error);

  ProgramSpec overread = good;
  overread.stages[0].sources[0] = {sw::wavesim::SlotSource::Kind::kPrimary, 0,
                                   99, false};
  EXPECT_THROW(overread.validate(), sw::util::Error);

  ProgramSpec ragged = good;
  ragged.stages[1].sources.pop_back();
  EXPECT_THROW(ragged.validate(), sw::util::Error);
}

}  // namespace
