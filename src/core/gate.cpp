#include "core/gate.h"

#include <algorithm>
#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace sw::core {

DataParallelGate::DataParallelGate(GateLayout layout,
                                   const sw::wavesim::WaveEngine& engine)
    : layout_(std::move(layout)), engine_(&engine) {
  layout_.validate();
}

std::vector<sw::wavesim::WaveSource> DataParallelGate::drive_list(
    const std::vector<Bits>& inputs) const {
  const std::size_t n = layout_.spec.frequencies.size();
  const std::size_t m = layout_.spec.num_inputs;
  SW_REQUIRE(inputs.size() == n, "need one bit vector per channel");
  for (const auto& bits : inputs) {
    SW_REQUIRE(bits.size() == m, "each channel needs m bits");
  }
  std::vector<sw::wavesim::WaveSource> out;
  out.reserve(layout_.sources.size());
  for (const auto& s : layout_.sources) {
    sw::wavesim::WaveSource w;
    w.x = s.x;
    w.frequency = layout_.spec.frequencies[s.channel];
    w.phase = phase_of_bit(inputs[s.channel][s.input] != 0);
    w.amplitude = s.amplitude;
    out.push_back(w);
  }
  return out;
}

std::vector<ChannelResult> DataParallelGate::evaluate(
    const std::vector<Bits>& inputs) const {
  const auto sources = drive_list(inputs);
  std::vector<ChannelResult> results;
  results.reserve(layout_.detectors.size());
  for (const auto& det : layout_.detectors) {
    const double f = layout_.spec.frequencies[det.channel];
    const auto phasor = engine_->steady_phasor(sources, det.x, f);
    const auto decision = decide_phase(phasor, kPhaseZero);
    ChannelResult r;
    r.channel = det.channel;
    r.logic = decision.logic;
    r.phase = decision.phase;
    r.amplitude = decision.amplitude;
    r.margin = decision.margin;
    results.push_back(r);
  }
  return results;
}

std::vector<ChannelResult> DataParallelGate::evaluate_uniform(
    const Bits& pattern) const {
  const std::vector<Bits> inputs(layout_.spec.frequencies.size(), pattern);
  return evaluate(inputs);
}

std::uint8_t DataParallelGate::expected_majority(std::size_t channel,
                                                 const Bits& pattern) const {
  SW_REQUIRE(channel < layout_.detectors.size(), "channel out of range");
  const bool maj = majority(pattern);
  const bool inv = layout_.detectors[channel].inverted;
  return static_cast<std::uint8_t>(maj != inv);
}

double DataParallelGate::verify_majority_truth_table() const {
  const std::size_t m = layout_.spec.num_inputs;
  SW_REQUIRE(m % 2 == 1, "majority verification needs odd input count");
  double worst = 1.0;
  for (const auto& pattern : all_patterns(m)) {
    const auto results = evaluate_uniform(pattern);
    for (const auto& r : results) {
      const auto want = expected_majority(r.channel, pattern);
      SW_REQUIRE(r.logic == want, "majority truth table violated");
      worst = std::min(worst, r.margin);
    }
  }
  return worst;
}

}  // namespace sw::core
