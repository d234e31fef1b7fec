// Bit-by-bit conversions between row-major byte matrices and the kernels'
// bit-sliced columns (kernels/kernel.h): a model of the column layout that
// shares no code with any converter under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "wavesim/kernels/kernel.h"

namespace sw::testing {

/// Rows of `width` bytes (nonzero = 1) as `width` columns of
/// column_words(words) u64s, zero past `words`.
inline std::vector<std::uint64_t> columns_of(
    const std::vector<std::uint8_t>& rows, std::size_t words,
    std::size_t width) {
  const std::size_t stride = sw::wavesim::kernels::column_words(words);
  std::vector<std::uint64_t> columns(width * stride);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t c = 0; c < width; ++c) {
      if (rows[w * width + c] != 0) {
        columns[c * stride + w / 64] |= std::uint64_t{1} << (w % 64);
      }
    }
  }
  return columns;
}

/// The inverse: rows of 0/1 bytes from `width` columns.
inline std::vector<std::uint8_t> rows_of(
    const std::vector<std::uint64_t>& columns, std::size_t words,
    std::size_t width) {
  const std::size_t stride = sw::wavesim::kernels::column_words(words);
  std::vector<std::uint8_t> rows(words * width);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t c = 0; c < width; ++c) {
      const std::uint64_t column = columns[c * stride + w / 64];
      rows[w * width + c] = static_cast<std::uint8_t>((column >> (w % 64)) & 1);
    }
  }
  return rows;
}

}  // namespace sw::testing
