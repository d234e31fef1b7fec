#include "core/logic_ops.h"

#include <memory>

#include "util/error.h"

namespace sw::core {

const char* boolean_op_name(BooleanOp op) {
  switch (op) {
    case BooleanOp::kAnd: return "and";
    case BooleanOp::kOr: return "or";
    case BooleanOp::kNand: return "nand";
    case BooleanOp::kNor: return "nor";
    case BooleanOp::kBuffer: return "buffer";
    case BooleanOp::kNot: return "not";
  }
  return "unknown";
}

bool boolean_op_eval(BooleanOp op, bool a, bool b) {
  switch (op) {
    case BooleanOp::kAnd: return a && b;
    case BooleanOp::kOr: return a || b;
    case BooleanOp::kNand: return !(a && b);
    case BooleanOp::kNor: return !(a || b);
    case BooleanOp::kBuffer: return a;
    case BooleanOp::kNot: return !a;
  }
  SW_ASSERT(false, "unhandled op");
}

ParallelLogicGate::ParallelLogicGate(BooleanOp op,
                                     std::vector<double> frequencies,
                                     const InlineGateDesigner& designer,
                                     const sw::wavesim::WaveEngine& engine)
    : op_(op) {
  SW_REQUIRE(!frequencies.empty(), "need at least one channel");
  GateSpec spec;
  spec.frequencies = std::move(frequencies);
  const std::size_t n = spec.frequencies.size();

  bool inverted = false;
  switch (op) {
    case BooleanOp::kAnd:
      pinned_value_ = 0; has_pin_ = true; break;
    case BooleanOp::kOr:
      pinned_value_ = 1; has_pin_ = true; break;
    case BooleanOp::kNand:
      pinned_value_ = 0; has_pin_ = true; inverted = true; break;
    case BooleanOp::kNor:
      pinned_value_ = 1; has_pin_ = true; inverted = true; break;
    case BooleanOp::kBuffer:
      data_inputs_ = 1; break;
    case BooleanOp::kNot:
      data_inputs_ = 1; inverted = true; break;
  }
  spec.num_inputs = has_pin_ ? 3 : data_inputs_;
  if (inverted) spec.invert_output.assign(n, 1);

  gate_ = std::make_unique<DataParallelGate>(designer.design(spec), engine);
}

std::vector<std::uint8_t> ParallelLogicGate::evaluate(const Bits& a,
                                                      const Bits& b) const {
  const std::size_t n = layout().spec.frequencies.size();
  SW_REQUIRE(a.size() == n, "operand a must have one bit per channel");
  SW_REQUIRE(data_inputs_ == 1 || b.size() == n,
             "operand b must have one bit per channel");

  std::vector<Bits> inputs(n);
  for (std::size_t ch = 0; ch < n; ++ch) {
    Bits bits;
    bits.push_back(a[ch]);
    if (data_inputs_ == 2) bits.push_back(b[ch]);
    if (has_pin_) bits.push_back(pinned_value_);
    inputs[ch] = std::move(bits);
  }
  const auto results = gate_->evaluate(inputs);
  std::vector<std::uint8_t> out(n);
  for (const auto& r : results) out[r.channel] = r.logic;
  return out;
}

std::vector<std::uint8_t> ParallelLogicGate::pack_batch(
    const std::vector<Bits>& a_words, const std::vector<Bits>& b_words) const {
  const std::size_t n = layout().spec.frequencies.size();
  const std::size_t words = a_words.size();
  SW_REQUIRE(data_inputs_ == 1 || b_words.size() == words,
             "need one b word per a word");
  for (std::size_t w = 0; w < words; ++w) {
    SW_REQUIRE(a_words[w].size() == n,
               "operand a must have one bit per channel");
    SW_REQUIRE(data_inputs_ == 1 || b_words[w].size() == n,
               "operand b must have one bit per channel");
  }

  // Pack the operands into the gate's flat slot matrix. Input slot layout
  // per channel (see evaluate()): slot 0 = a, slot 1 = b for binary ops,
  // last slot = the pinned constant when present.
  const std::size_t m = layout().spec.num_inputs;
  const std::size_t stride = n * m;
  std::vector<std::uint8_t> packed(words * stride);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint8_t* row = packed.data() + w * stride;
    for (std::size_t ch = 0; ch < n; ++ch) {
      row[ch * m] = a_words[w][ch];
      if (data_inputs_ == 2) row[ch * m + 1] = b_words[w][ch];
      if (has_pin_) row[ch * m + m - 1] = pinned_value_;
    }
  }
  return packed;
}

void ParallelLogicGate::verify() const {
  const std::size_t n = layout().spec.frequencies.size();
  const std::size_t combos = data_inputs_ == 1 ? 2 : 4;
  for (std::size_t v = 0; v < combos; ++v) {
    const bool a = (v & 1) != 0;
    const bool b = (v & 2) != 0;
    const Bits wa(n, static_cast<std::uint8_t>(a));
    const Bits wb(n, static_cast<std::uint8_t>(b));
    const auto out = evaluate(wa, wb);
    const auto want = static_cast<std::uint8_t>(boolean_op_eval(op_, a, b));
    for (std::size_t ch = 0; ch < n; ++ch) {
      SW_REQUIRE(out[ch] == want,
                 std::string("derived gate violates ") +
                     boolean_op_name(op_));
    }
  }
}

}  // namespace sw::core
