// Portable reference kernel, and the phasor decode beside every rung.
//
// eval_bits, one word at a time, one detector at a time, accumulates the
// plan's real parts (re0/re1) in plan (= scalar source) order: complex
// addition is componentwise, so their sum is bitwise the real part of the
// physics path's complex sum, and the decode consumes nothing but sign(Re).
// A word's bit selects the constant with a bit mask, not a branch on input
// bits the predictor cannot learn; the addend is the same either way.
//
// eval_tables runs the diagrams in plain u64 ops, one select per column
// u64 (64 words) per mux.
//
// The edge converter here is the portable one, which the vector kernels
// also use for the shapes they do not vectorise. It moves 64 words x 8
// columns at a time: each word's 8 bytes, reduced to one bit per byte, are
// shifted into the byte-column tile of their 8-word group, and a register
// byte transpose turns the 8 tiles into 8 u64 columns (and back).
#include "wavesim/kernels/kernel.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "wavesim/eval_plan.h"
#include "wavesim/kernels/table_step.h"

namespace sw::wavesim::kernels {

// Three rounds of masked swaps (4x4, 2x2, then 1x1 blocks), so a tile costs
// 12 swaps instead of 64 byte moves.
void detail::transpose_8x8_bytes(std::uint64_t x[8]) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t t = ((x[i] >> 32) ^ x[i + 4]) & 0xFFFFFFFFull;
    x[i] ^= t << 32;
    x[i + 4] ^= t;
  }
  for (const std::size_t i : {0, 1, 4, 5}) {
    const std::uint64_t t = ((x[i] >> 16) ^ x[i + 2]) & 0x0000FFFF0000FFFFull;
    x[i] ^= t << 16;
    x[i + 2] ^= t;
  }
  for (const std::size_t i : {0, 2, 4, 6}) {
    const std::uint64_t t = ((x[i] >> 8) ^ x[i + 1]) & 0x00FF00FF00FF00FFull;
    x[i] ^= t << 8;
    x[i + 1] ^= t;
  }
}

void eval_bits(const EvalPlan& plan, const std::uint64_t* const* slots,
               std::size_t num_words, std::uint64_t* out,
               std::size_t out_stride) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slot_of = plan.slots();
  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t g = 0; g * 64 < num_words; ++g) {
      const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
      std::uint64_t verdicts = 0;
      for (std::size_t w = 0; w < words; ++w) {
        double acc = 0.0;
        for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
          // All ones when word w's bit is set: picks re1[i]'s bits, else
          // re0[i]'s, without a branch.
          const std::uint64_t take1 =
              std::uint64_t{0} - ((slots[slot_of[i]][g] >> w) & 1);
          acc += std::bit_cast<double>(
              (std::bit_cast<std::uint64_t>(re0[i]) & ~take1) |
              (std::bit_cast<std::uint64_t>(re1[i]) & take1));
        }
        // decide_phase with reference 0: logic 1 iff the phase is closer
        // to pi than to 0, which is exactly Re(acc) < 0.
        verdicts |= static_cast<std::uint64_t>(acc < 0.0) << w;
      }
      column[g] = verdicts;
    }
  }
}

namespace {

constexpr std::uint64_t kByteLowBits = 0x0101010101010101ull;

/// 0x01 in every byte of x that is nonzero, 0x00 in every other byte.
std::uint64_t nonzero_bytes(std::uint64_t x) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  return ((((x & kLow7) + kLow7) | x) >> 7) & kByteLowBits;
}

/// Bytes [0, n) of p (n <= 8) as a u64, byte i at bits 8i..8i+7.
std::uint64_t load_bytes(const std::uint8_t* p, std::size_t n) {
  std::uint64_t x = 0;
  if (n == 8 && std::endian::native == std::endian::little) {
    std::memcpy(&x, p, 8);
    return x;
  }
  for (std::size_t i = 0; i < n; ++i) x |= std::uint64_t{p[i]} << (8 * i);
  return x;
}

/// Inverse of load_bytes.
void store_bytes(std::uint8_t* p, std::uint64_t x, std::size_t n) {
  if (n == 8 && std::endian::native == std::endian::little) {
    std::memcpy(p, &x, 8);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(x >> (8 * i));
  }
}

void to_columns_scalar(const std::uint8_t* rows, std::size_t row_stride,
                       std::size_t num_words, std::size_t width,
                       std::uint64_t* cols, std::size_t col_stride) {
  for (std::size_t g = 0; g * 64 < num_words; ++g) {
    const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
    const std::uint8_t* group = rows + g * 64 * row_stride;
    for (std::size_t c0 = 0; c0 < width; c0 += 8) {
      const std::size_t n = std::min<std::size_t>(8, width - c0);
      // Byte c of x[k] collects column c0 + c of words 8k .. 8k + 7, word
      // 8k + r at bit r; the transpose makes x[c] that column's u64.
      std::uint64_t x[8] = {};
      for (std::size_t w = 0; w < words; ++w) {
        x[w / 8] |= nonzero_bytes(load_bytes(group + w * row_stride + c0, n))
                    << (w % 8);
      }
      detail::transpose_8x8_bytes(x);
      for (std::size_t c = 0; c < n; ++c) {
        cols[(c0 + c) * col_stride + g] = x[c];
      }
    }
  }
}

void to_rows_scalar(const std::uint64_t* cols, std::size_t col_stride,
                    std::size_t num_words, std::size_t width,
                    std::uint8_t* rows, std::size_t row_stride) {
  for (std::size_t g = 0; g * 64 < num_words; ++g) {
    const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
    std::uint8_t* group = rows + g * 64 * row_stride;
    for (std::size_t c0 = 0; c0 < width; c0 += 8) {
      const std::size_t n = std::min<std::size_t>(8, width - c0);
      std::uint64_t x[8] = {};
      for (std::size_t c = 0; c < n; ++c) {
        x[c] = cols[(c0 + c) * col_stride + g];
      }
      detail::transpose_8x8_bytes(x);
      for (std::size_t w = 0; w < words; ++w) {
        store_bytes(group + w * row_stride + c0,
                    (x[w / 8] >> (w % 8)) & kByteLowBits, n);
      }
    }
  }
}

}  // namespace

const Kernel& scalar_kernel() {
  static constexpr Kernel kernel{"scalar",
                                 &detail::eval_tables<detail::U64Lanes>,
                                 &to_columns_scalar, &to_rows_scalar};
  return kernel;
}

}  // namespace sw::wavesim::kernels
