// Portable reference kernel: one word at a time, one detector at a time,
// contributions accumulated in plan (= scalar source) order.
//
// eval_bits accumulates only the real parts: complex addition is
// componentwise, so dropping the imaginary lane leaves the real sum bitwise
// unchanged, and the packed-bit decode consumes nothing but sign(Re). The
// f32 run is the same loop over the plan's float mirrors. A word's bit
// selects the constant with a bit mask, not a branch on input bits the
// predictor cannot learn; the addend is the same either way. eval_channels
// keeps the full complex pair because phase and amplitude need it, then
// decodes via decide_phase exactly like the scalar gate path.
//
// The edge converter here is the portable one, which the vector kernels
// also use for the shapes they do not vectorise. It moves 64 words x 8
// columns at a time: each word's 8 bytes, reduced to one bit per byte, are
// shifted into the byte-column tile of their 8-word group, and a register
// byte transpose turns the 8 tiles into 8 u64 columns (and back).
#include "wavesim/kernels/kernel.h"

#include <algorithm>
#include <bit>
#include <complex>
#include <cstring>
#include <type_traits>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "wavesim/eval_plan.h"

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

namespace {

/// Detectors [d_begin, d_end), accumulating in T over the constants
/// re0/re1: the plan's float mirrors for the f32 run, its doubles else.
template <typename T>
void eval_bits_run(const EvalPlan& plan, const T* re0, const T* re1,
                   std::size_t d_begin, std::size_t d_end,
                   const std::uint64_t* const* slots, std::size_t num_words,
                   std::uint64_t* out, std::size_t out_stride) {
  using U = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slot_of = plan.slots();
  for (std::size_t d = d_begin; d < d_end; ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t g = 0; g * 64 < num_words; ++g) {
      const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
      std::uint64_t verdicts = 0;
      for (std::size_t w = 0; w < words; ++w) {
        // Accumulation in T, in index order: for the f32 run exactly the
        // sum the plan's build-time validation replayed, so a proved
        // detector never decodes differently from the double plan.
        T acc = 0;
        for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
          // All ones when word w's bit is set: picks re1[i]'s bits, else
          // re0[i]'s, without a branch.
          const U take1 =
              U{0} - static_cast<U>((slots[slot_of[i]][g] >> w) & 1);
          acc += std::bit_cast<T>((std::bit_cast<U>(re0[i]) & ~take1) |
                                  (std::bit_cast<U>(re1[i]) & take1));
        }
        // decide_phase with reference 0: logic 1 iff the phase is closer
        // to pi than to 0, which is exactly Re(acc) < 0.
        verdicts |= static_cast<std::uint64_t>(acc < 0) << w;
      }
      column[g] = verdicts;
    }
  }
}

void eval_bits_scalar(const EvalPlan& plan, const std::uint64_t* const* slots,
                      std::size_t num_words, std::uint64_t* out,
                      std::size_t out_stride) {
  const std::size_t kf = plan.num_f32_detectors();
  eval_bits_run(plan, plan.re0_f32().data(), plan.re1_f32().data(), 0, kf,
                slots, num_words, out, out_stride);
  eval_bits_run(plan, plan.re0().data(), plan.re1().data(), kf,
                plan.num_detectors(), slots, num_words, out, out_stride);
}

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

void eval_channels_scalar(const EvalPlan& plan, const std::uint8_t* bits,
                          std::size_t begin, std::size_t end,
                          sw::core::ChannelResult* out) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto results = plan.detector_results();
  const auto re0 = plan.re0();
  const auto im0 = plan.im0();
  const auto re1 = plan.re1();
  const auto im1 = plan.im1();
  const auto slots = plan.slots();
  const std::size_t stride = plan.slot_count();
  const std::size_t detectors = plan.num_detectors();

  for (std::size_t w = begin; w < end; ++w) {
    const std::uint8_t* word = bits + w * stride;
    sw::core::ChannelResult* row = out + w * detectors;
    for (std::size_t d = 0; d < detectors; ++d) {
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        acc += word[slots[i]] ? std::complex<double>(re1[i], im1[i])
                              : std::complex<double>(re0[i], im0[i]);
      }
      const auto decision = sw::core::decide_phase(acc, sw::core::kPhaseZero);
      // Element results[d], not d: a block-f32 plan's detectors are in
      // partitioned plan order, but result rows stay in layout order.
      sw::core::ChannelResult& r = row[results[d]];
      r.channel = det_channel[d];
      r.logic = decision.logic;
      r.phase = decision.phase;
      r.amplitude = decision.amplitude;
      r.margin = decision.margin;
    }
  }
}

}  // namespace

const Kernel& scalar_kernel() {
  static constexpr Kernel kernel{"scalar", &eval_bits_scalar,
                                 &to_columns_scalar, &to_rows_scalar,
                                 &eval_channels_scalar};
  return kernel;
}

}  // namespace sw::wavesim::kernels
