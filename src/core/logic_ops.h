// Derived Boolean operations on the majority fabric.
//
// A 3-input majority gate with one input pinned to a constant realises
// AND / OR, and the in-line structure's half-wavelength output placement
// complements for free:
//
//   AND(a, b)  = MAJ(a, b, 0)          NAND(a, b) = !MAJ(a, b, 0)
//   OR(a, b)   = MAJ(a, b, 1)          NOR(a, b)  = !MAJ(a, b, 1)
//   NOT(a)     = inverted buffer (single source, half-integer port)
//
// This is the standard majority-logic synthesis trick the spin-wave
// literature leans on (Khitun & Wang 2011); here it is a thin, tested layer
// over DataParallelGate so every derived gate inherits the n-channel data
// parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "wavesim/wave_engine.h"

namespace sw::core {

enum class BooleanOp : std::uint8_t {
  kAnd,
  kOr,
  kNand,
  kNor,
  kBuffer,  ///< 1-input pass-through
  kNot,     ///< 1-input complement (inverted output port)
};

const char* boolean_op_name(BooleanOp op);

/// Reference semantics of the op (for tests and verification).
bool boolean_op_eval(BooleanOp op, bool a, bool b);

/// An n-channel data-parallel gate computing `op` on every channel.
/// Built as a majority gate with a pinned third input where needed and an
/// inverted output port for the complementing variants.
class ParallelLogicGate {
 public:
  /// Design the gate for the given channel frequencies.
  ParallelLogicGate(BooleanOp op, std::vector<double> frequencies,
                    const InlineGateDesigner& designer,
                    const sw::wavesim::WaveEngine& engine);

  BooleanOp op() const { return op_; }
  const GateLayout& layout() const { return gate_->layout(); }

  /// The underlying majority fabric. Batched callers build a
  /// sw::wavesim::EvalProgram over its layout once (the table decode) or a
  /// sw::wavesim::BatchEvaluator over it (the phasor-sum reference) and
  /// feed it pack_batch() matrices (input slots per channel: 0 = a, 1 = b
  /// for binary ops, last = the pinned constant).
  const DataParallelGate& gate() const { return *gate_; }

  /// Data inputs per channel: 2 bits for binary ops, 1 for buffer/not.
  std::size_t data_inputs() const { return data_inputs_; }

  /// Evaluate with per-channel operand words a and b (b ignored for unary
  /// ops). Sizes must equal the channel count.
  std::vector<std::uint8_t> evaluate(const Bits& a, const Bits& b) const;

  /// Pack per-word operand pairs into the flat num_words x slot_count bit
  /// matrix of gate()'s slot layout (slot 0 = a, slot 1 = b for binary
  /// ops, last slot = the pinned constant): the input an EvalProgram or
  /// BatchEvaluator over gate() — or a serve::EvalRequest — evaluates.
  /// b_words may be empty for unary ops.
  std::vector<std::uint8_t> pack_batch(const std::vector<Bits>& a_words,
                                       const std::vector<Bits>& b_words) const;

  /// Exhaustive check over all operand combinations on every channel;
  /// throws on any mismatch with boolean_op_eval.
  void verify() const;

 private:
  BooleanOp op_;
  std::size_t data_inputs_ = 2;
  std::uint8_t pinned_value_ = 0;  ///< constant third input (binary ops)
  bool has_pin_ = false;
  std::unique_ptr<DataParallelGate> gate_;
};

}  // namespace sw::core
