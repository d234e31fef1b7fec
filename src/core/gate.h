// DataParallelGate: functional evaluation of an in-line multi-frequency
// gate on the analytic wave engine. This is the fast model used for design
// exploration, property tests and the scalability study; the micromagnetic
// runner (micromag_gate.h) is the ground-truth counterpart.
#pragma once

#include <vector>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate_design.h"
#include "wavesim/wave_engine.h"

namespace sw::core {

/// Decoded output of one frequency channel.
struct ChannelResult {
  std::size_t channel = 0;
  std::uint8_t logic = 0;   ///< decoded output bit (inversion included)
  double phase = 0.0;       ///< absolute detected phase [rad]
  double amplitude = 0.0;   ///< detected amplitude [arb]
  double margin = 0.0;      ///< phase decision margin in [0, 1]
};

class DataParallelGate {
 public:
  /// The engine must outlive the gate.
  DataParallelGate(GateLayout layout, const sw::wavesim::WaveEngine& engine);

  const GateLayout& layout() const { return layout_; }
  const sw::wavesim::WaveEngine& engine() const { return *engine_; }

  /// Evaluate the gate: `inputs[channel]` holds the m bits applied to that
  /// channel's sources (inputs.size() == #channels, each of size m).
  /// Decoding uses the ideal fixed transmit reference (phase 0), so an
  /// inverted detector physically reads the complemented value.
  std::vector<ChannelResult> evaluate(
      const std::vector<Bits>& inputs) const;

  /// Convenience: apply the same m-bit pattern to every channel.
  std::vector<ChannelResult> evaluate_uniform(const Bits& pattern) const;

  /// Expected (reference Boolean) output of a channel for the given bits:
  /// MAJ for odd m, complemented when the channel's detector is inverted.
  std::uint8_t expected_majority(std::size_t channel,
                                 const Bits& pattern) const;

  /// Exhaustively verify every channel against MAJ over all 2^m uniform
  /// patterns; returns the worst margin seen (negative never happens —
  /// throws on a logic mismatch instead).
  double verify_majority_truth_table() const;

  /// Wave sources (drive list) corresponding to an input assignment; used
  /// by the micromagnetic bridge and the benches.
  std::vector<sw::wavesim::WaveSource> drive_list(
      const std::vector<Bits>& inputs) const;

 private:
  GateLayout layout_;
  const sw::wavesim::WaveEngine* engine_;
};

}  // namespace sw::core
