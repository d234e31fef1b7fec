// Exhaustive truth tables for every derived Boolean op at n in {1, 4, 8}
// channels: all 2^(2n) operand-word pairs (2^n for unary ops) must agree
// with boolean_op_eval on every channel. The 8-channel sweeps run through
// the batch path so the whole 65k-word table stays cheap; batch/scalar
// equivalence is pinned separately in test_batch_evaluator.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/encoding.h"
#include "core/logic_ops.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::core;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::WaveEngine;

constexpr BooleanOp kAllOps[] = {BooleanOp::kAnd,    BooleanOp::kOr,
                                 BooleanOp::kNand,   BooleanOp::kNor,
                                 BooleanOp::kBuffer, BooleanOp::kNot};

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

std::vector<double> channel_frequencies(std::size_t n) {
  std::vector<double> f;
  for (std::size_t i = 1; i <= n; ++i) f.push_back(1e10 * static_cast<double>(i));
  return f;
}

Bits word_bits(std::uint32_t value, std::size_t n) {
  Bits bits(n);
  for (std::size_t ch = 0; ch < n; ++ch) {
    bits[ch] = static_cast<std::uint8_t>((value >> ch) & 1u);
  }
  return bits;
}

bool is_unary(BooleanOp op) {
  return op == BooleanOp::kBuffer || op == BooleanOp::kNot;
}

/// Check one gate against the reference for every word pair in the batch
/// results (word index encodes a in the low n bits, b in the high n bits).
void check_against_reference(
    BooleanOp op, std::size_t n,
    const std::vector<Bits>& a_words, const std::vector<Bits>& b_words,
    const std::vector<std::vector<std::uint8_t>>& outputs) {
  ASSERT_EQ(outputs.size(), a_words.size());
  for (std::size_t w = 0; w < outputs.size(); ++w) {
    ASSERT_EQ(outputs[w].size(), n);
    for (std::size_t ch = 0; ch < n; ++ch) {
      const bool a = a_words[w][ch] != 0;
      const bool b = is_unary(op) ? false : b_words[w][ch] != 0;
      EXPECT_EQ(outputs[w][ch],
                static_cast<std::uint8_t>(boolean_op_eval(op, a, b)))
          << boolean_op_name(op) << " n=" << n << " word=" << w
          << " channel=" << ch;
    }
  }
}

class ExhaustiveTruthTable : public ::testing::TestWithParam<std::size_t> {
 protected:
  Waveguide wg_ = paper_waveguide();
  FvmswDispersion model_{wg_};
  InlineGateDesigner designer_{model_};
  WaveEngine engine_{model_, wg_.material.alpha};
};

TEST_P(ExhaustiveTruthTable, EveryOpMatchesReferenceOnAllWords) {
  const std::size_t n = GetParam();
  const std::uint32_t words = 1u << n;

  for (const auto op : kAllOps) {
    const ParallelLogicGate gate(op, channel_frequencies(n), designer_,
                                 engine_);
    EXPECT_EQ(gate.data_inputs(), is_unary(op) ? 1u : 2u);

    // Enumerate every operand combination: 2^n a-words x 2^n b-words for
    // binary ops, 2^n a-words for unary ones.
    std::vector<Bits> a_words, b_words;
    for (std::uint32_t av = 0; av < words; ++av) {
      if (is_unary(op)) {
        a_words.push_back(word_bits(av, n));
      } else {
        for (std::uint32_t bv = 0; bv < words; ++bv) {
          a_words.push_back(word_bits(av, n));
          b_words.push_back(word_bits(bv, n));
        }
      }
    }

    if (n >= 8) {
      // 2^(2n) words: sweep through the batch path — pack_batch feeding a
      // held BatchEvaluator.
      const sw::wavesim::BatchEvaluator evaluator(gate.gate());
      const auto decoded =
          evaluator.evaluate_bits(a_words.size(),
                                  gate.pack_batch(a_words, b_words));
      std::vector<std::vector<std::uint8_t>> outputs(a_words.size());
      for (std::size_t w = 0; w < outputs.size(); ++w) {
        outputs[w].assign(
            decoded.begin() + static_cast<std::ptrdiff_t>(w * n),
            decoded.begin() + static_cast<std::ptrdiff_t>((w + 1) * n));
      }
      check_against_reference(op, n, a_words, b_words, outputs);
    } else {
      // Small tables: exercise the scalar path directly.
      std::vector<std::vector<std::uint8_t>> outputs;
      outputs.reserve(a_words.size());
      for (std::size_t w = 0; w < a_words.size(); ++w) {
        outputs.push_back(
            gate.evaluate(a_words[w], is_unary(op) ? Bits{} : b_words[w]));
      }
      check_against_reference(op, n, a_words, b_words, outputs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, ExhaustiveTruthTable,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// The in-gate self-check must agree with the exhaustive sweep above.
TEST(ExhaustiveTruthTableSelfCheck, VerifyPassesForEveryOp) {
  const auto wg = paper_waveguide();
  const FvmswDispersion model(wg);
  const InlineGateDesigner designer(model);
  const WaveEngine engine(model, wg.material.alpha);
  for (const auto op : kAllOps) {
    const ParallelLogicGate gate(op, channel_frequencies(4), designer, engine);
    EXPECT_NO_THROW(gate.verify()) << boolean_op_name(op);
  }
}

}  // namespace
