#include "wavesim/batch_evaluator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/detector.h"
#include "core/encoding.h"
#include "util/error.h"

namespace sw::wavesim {

BatchEvaluator::BatchEvaluator(const sw::core::DataParallelGate& gate,
                               BatchOptions options)
    : BatchEvaluator(gate,
                     std::make_shared<const EvalPlan>(gate, options.freq_tol,
                                                      options.precision),
                     options) {}

BatchEvaluator::BatchEvaluator(const sw::core::DataParallelGate& gate,
                               std::shared_ptr<const EvalPlan> plan,
                               BatchOptions options)
    : gate_(&gate), plan_(std::move(plan)), pool_(options.num_threads) {
  SW_REQUIRE(plan_ != nullptr, "shared evaluation plan must not be null");
  SW_REQUIRE(plan_->freq_tol() == options.freq_tol,
             "shared plan was built with a different freq_tol");
  SW_REQUIRE(plan_->requested_precision() ==
                 resolve_precision(options.precision),
             "shared plan was built with a different precision");
  const auto& spec = gate.layout().spec;
  SW_REQUIRE(plan_->num_channels() == spec.frequencies.size() &&
                 plan_->num_inputs() == spec.num_inputs,
             "shared plan does not match the gate's layout shape");
}

template <typename BitFn>
std::vector<std::vector<sw::core::ChannelResult>> BatchEvaluator::run(
    std::size_t num_words, const BitFn& bit) const {
  const EvalPlan& plan = *plan_;
  const auto channels = plan.channels();
  const auto inputs = plan.inputs();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t detectors = plan.num_detectors();
  const kernels::Kernel& kernel = kernels::active_kernel();
  // Same overflow guards as evaluate_bits: the packed matrix and the flat
  // result buffer sizes are both num_words products and must not wrap.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  SW_REQUIRE(stride == 0 || num_words <= kMax / stride,
             "num_words x slot_count() overflows size_t");
  SW_REQUIRE(detectors == 0 || num_words <= kMax / detectors,
             "num_words x detector count overflows size_t");

  // Kernelised ChannelResult path: pack the accessor's bits into the
  // row-major kernel matrix (only the slots some contribution actually
  // reads — untouched slots stay 0 and are invisible to the kernels), then
  // run the same SoA accumulation as evaluate_bits, with the full complex
  // pair and decide_phase. Workers pack and evaluate disjoint row ranges,
  // so one pass over the pool covers both stages.
  std::vector<std::uint8_t> packed(num_words * stride, 0);
  std::vector<sw::core::ChannelResult> flat(num_words * detectors);
  std::vector<std::vector<sw::core::ChannelResult>> out(num_words);
  pool_.parallel_for(num_words, [&](std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) {
      std::uint8_t* row = packed.data() + w * stride;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        row[slots[i]] = bit(w, channels[i], inputs[i]);
      }
    }
    kernel.eval_channels(plan, packed.data(), begin, end, flat.data());
    // Each worker owns rows [begin, end): wrap them into the nested result
    // here instead of a second sequential pass over the whole batch.
    for (std::size_t w = begin; w < end; ++w) {
      out[w].assign(
          flat.begin() + static_cast<std::ptrdiff_t>(w * detectors),
          flat.begin() + static_cast<std::ptrdiff_t>((w + 1) * detectors));
    }
  });
  return out;
}

std::vector<std::vector<sw::core::ChannelResult>> BatchEvaluator::evaluate(
    std::span<const std::vector<sw::core::Bits>> batch) const {
  const std::size_t n = plan_->num_channels();
  const std::size_t m = plan_->num_inputs();
  for (const auto& word : batch) {
    SW_REQUIRE(word.size() == n, "each word needs one bit vector per channel");
    for (const auto& bits : word) {
      SW_REQUIRE(bits.size() == m, "each channel needs m bits");
    }
  }
  return run(batch.size(),
             [&batch](std::size_t w, std::size_t ch, std::size_t in) {
               return batch[w][ch][in];
             });
}

std::vector<std::vector<sw::core::ChannelResult>>
BatchEvaluator::evaluate_uniform(std::span<const sw::core::Bits> patterns) const {
  const std::size_t m = plan_->num_inputs();
  for (const auto& p : patterns) {
    SW_REQUIRE(p.size() == m, "each pattern needs m bits");
  }
  return run(patterns.size(),
             [&patterns](std::size_t w, std::size_t, std::size_t in) {
               return patterns[w][in];
             });
}

std::vector<std::vector<sw::core::ChannelResult>> BatchEvaluator::evaluate_with(
    std::size_t num_words, const BitAccessor& bit) const {
  SW_REQUIRE(static_cast<bool>(bit), "bit accessor must be callable");
  return run(num_words, bit);
}

std::vector<std::uint8_t> BatchEvaluator::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_bits(num_words, bits, kernels::active_kernel());
}

std::vector<std::uint8_t> BatchEvaluator::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  const std::size_t slots = plan_->slot_count();
  const std::size_t channels = plan_->num_channels();
  // Guard both products before forming them: a num_words large enough to
  // wrap num_words * slots could otherwise pass the shape check against a
  // tiny span and index far out of bounds.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  SW_REQUIRE(slots == 0 || num_words <= kMax / slots,
             "num_words x slot_count() overflows size_t");
  SW_REQUIRE(channels == 0 || num_words <= kMax / channels,
             "num_words x channel count overflows size_t");
  SW_REQUIRE(bits.size() == num_words * slots,
             "packed bit matrix must be num_words x slot_count");

  // Block-wise through columns: each block's rows become slot columns, the
  // kernel writes channel columns, and those go back to rows.
  std::vector<std::uint8_t> out(num_words * channels);
  detail::for_each_block(
      pool_, num_words, slots + channels, slots,
      [&](std::size_t begin, std::size_t end, std::uint64_t* columns,
          std::size_t stride, const std::uint64_t** inputs) {
        const std::size_t words = end - begin;
        for (std::size_t j = 0; j < slots; ++j) {
          inputs[j] = columns + j * stride;
        }
        std::uint64_t* outputs = columns + slots * stride;
        kernel.to_columns(bits.data() + begin * slots, slots, words, slots,
                          columns, stride);
        kernel.eval_bits(*plan_, inputs, words, outputs, stride);
        kernel.to_rows(outputs, stride, words, channels,
                       out.data() + begin * channels, channels);
      });
  return out;
}

}  // namespace sw::wavesim
