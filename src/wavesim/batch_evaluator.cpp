#include "wavesim/batch_evaluator.h"

#include <limits>

#include "util/error.h"

namespace sw::wavesim {

BatchEvaluator::BatchEvaluator(const sw::core::DataParallelGate& gate,
                               BatchOptions options)
    : gate_(&gate), plan_(gate), pool_(options.num_threads) {}

std::vector<std::uint8_t> BatchEvaluator::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_bits(num_words, bits, kernels::active_kernel());
}

std::vector<std::uint8_t> BatchEvaluator::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  const std::size_t slots = plan_.slot_count();
  const std::size_t channels = plan_.num_channels();
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
  // phasor sum writes channel columns, and those go back to rows.
  std::vector<std::uint8_t> out(num_words * channels);
  const auto block = [&](std::size_t begin, std::size_t end,
                         std::uint64_t* columns, std::size_t stride,
                         const std::uint64_t** inputs) {
    const std::size_t words = end - begin;
    for (std::size_t j = 0; j < slots; ++j) {
      inputs[j] = columns + j * stride;
    }
    std::uint64_t* outputs = columns + slots * stride;
    kernel.to_columns(bits.data() + begin * slots, slots, words, slots,
                      columns, stride);
    kernels::eval_bits(plan_, inputs, words, outputs, stride);
    kernel.to_rows(outputs, stride, words, channels,
                   out.data() + begin * channels, channels);
  };
  pool_.parallel_for(kernels::column_words(num_words),
                     [&](std::size_t first_group, std::size_t last_group) {
                       detail::for_each_block(num_words, first_group,
                                              last_group, slots + channels,
                                              slots, block);
                     });
  return out;
}

}  // namespace sw::wavesim
