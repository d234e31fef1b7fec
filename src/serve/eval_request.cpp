#include "serve/eval_request.h"

#include <limits>

#include "util/error.h"
#include "wavesim/kernels/kernel.h"

namespace sw::serve {

namespace {

/// The row edge: a caller's num_words x slots byte matrix as slot columns.
std::vector<std::uint64_t> rows_to_columns(std::span<const std::uint8_t> rows,
                                           std::size_t num_words,
                                           std::size_t slots) {
  SW_REQUIRE(slots > 0, "request target has no input slots");
  // A wrapping product must fail here, before admission could charge a
  // near-SIZE_MAX word count.
  SW_REQUIRE(num_words <= std::numeric_limits<std::size_t>::max() / slots,
             "num_words x slot_count overflows size_t");
  SW_REQUIRE(rows.size() == num_words * slots,
             "packed bit matrix must be num_words x slot_count");
  const std::size_t col_words = sw::wavesim::kernels::column_words(num_words);
  std::vector<std::uint64_t> columns(slots * col_words);
  sw::wavesim::kernels::active_kernel().to_columns(
      rows.data(), slots, num_words, slots, columns.data(), col_words);
  return columns;
}

}  // namespace

EvalRequest EvalRequest::for_layout(const sw::core::GateLayout& layout,
                                    std::span<const std::uint8_t> rows,
                                    std::size_t num_words) {
  EvalRequest r;
  r.layout = &layout;
  r.columns = rows_to_columns(
      rows, num_words,
      layout.spec.frequencies.size() * layout.spec.num_inputs);
  r.num_words = num_words;
  return r;
}

EvalRequest EvalRequest::for_program(const sw::wavesim::ProgramSpec& program,
                                     std::span<const std::uint8_t> rows,
                                     std::size_t num_words) {
  EvalRequest r;
  r.program = &program;
  r.columns = rows_to_columns(rows, num_words, program.primary_slot_count());
  r.num_words = num_words;
  return r;
}

EvalRequest EvalRequest::for_batch(
    const sw::core::GateLayout& layout,
    const std::vector<std::vector<sw::core::Bits>>& batch) {
  const std::size_t n = layout.spec.frequencies.size();
  const std::size_t m = layout.spec.num_inputs;
  std::vector<std::uint8_t> packed(batch.size() * n * m);
  for (std::size_t w = 0; w < batch.size(); ++w) {
    SW_REQUIRE(batch[w].size() == n,
               "each word needs one bit vector per channel");
    for (std::size_t ch = 0; ch < n; ++ch) {
      SW_REQUIRE(batch[w][ch].size() == m, "each channel needs m bits");
      for (std::size_t in = 0; in < m; ++in) {
        packed[w * n * m + ch * m + in] = batch[w][ch][in];
      }
    }
  }
  return for_layout(layout, packed, batch.size());
}

}  // namespace sw::serve
