// AVX2 kernel: four words per __m256d (eight per __m256 in f32), one word
// per lane.
//
// Bit-exactness argument: vectorising *across words* (not across a
// detector's contributions) keeps each lane's accumulation in exactly the
// scalar order — lane l performs the same additions on the same constants
// in the same sequence as the scalar kernel would for word l — so every
// lane's sum is bitwise identical to the scalar sum and no word can decode
// differently, not even one sitting within an ulp of the threshold. The
// argument covers both runs of eval_bits — f32 at 8 words per __m256 (twice
// the words per register and half the constant traffic, which is the whole
// point of the f32 plan) and f64 at 4 words per __m256d — and eval_channels
// (4 x f64 complex accumulation, then the scalar decide_phase per lane so
// phase/amplitude/margin match the gate path bitwise).
//
// A slot's lane masks come straight from its column: one byte covers 8
// words, and a variable left shift of the broadcast byte moves bit l into
// the sign bit of lane l, which is all vblendvps/vblendvpd read. An f64
// group takes the byte's two nibbles as two __m256d. The verdicts' movemask
// is the channel column's byte.
//
// The edge converter packs 8 words x 32 columns at a time: per word a byte
// compare adds the word's bit into one byte per column, and an unpack
// network transposes the 8 bytes of each column into its u64. Going back,
// an 8-column matrix of 8-byte rows spreads each column byte across 8 rows
// with variable shifts; other shapes use the portable converter.
//
// This translation unit is compiled with -mavx2 (CMake adds the flag only
// for this file when the compiler supports it and the target is x86); every
// other TU stays portable, and nothing in this TU executes — not even the
// candidate getter's would-be static init — unless the CPUID check in
// dispatch.cpp (a portable TU) confirmed the host runs AVX2 first, or the
// getter itself, which is a bare constant return, is called.
#include "wavesim/kernels/kernel.h"

#if defined(SWLOGIC_EVAL_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <complex>
#include <cstring>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "util/aligned.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/column_step.h"

namespace sw::wavesim::kernels {

namespace {

/// Lane-mask scratch for eval_channels' word group: one vector register's
/// worth of per-slot select masks, stored as raw bytes (vector<__m256d>
/// trips -Wignored-attributes). Small strides (every gate in the paper:
/// 8 channels x 3 inputs = 24) use the stack so the serving hot path does
/// not pay an aligned heap round-trip per call.
constexpr std::size_t kStackSlots = 64;

void eval_bits_avx2(const EvalPlan& plan, const std::uint64_t* const* slots,
                    std::size_t num_words, std::uint64_t* out,
                    std::size_t out_stride) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slot_of = plan.slots();
  const std::size_t kf = plan.num_f32_detectors();

  // Each step's accumulators are independent registers, so one
  // contribution's column load and broadcast constants serve all of them.
  // A last step past num_words runs on padding lanes. Lane l of register b
  // reads bit 8b + l of the f32 step's u32 (bit 4b + l of the f64 step's
  // u16), shifted into the sign bit that vblendvps/vblendvpd select on.
  const __m256i lanes32 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lanes64 = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256i f32_shifts[4];
  __m256i f64_shifts[4];
  for (int b = 0; b < 4; ++b) {
    f32_shifts[b] = _mm256_sub_epi32(_mm256_set1_epi32(31 - 8 * b), lanes32);
    f64_shifts[b] = _mm256_sub_epi64(_mm256_set1_epi64x(63 - 4 * b), lanes64);
  }
  // An ordered < 0.0 compare, not the raw sign bit: a -0.0 sum must decode
  // as 0 exactly like the scalar kernel's `acc < 0.0`.
  const auto re0f = plan.re0_f32();
  const auto re1f = plan.re1_f32();
  for (std::size_t d = 0; d < kf; ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t t = 0; t * 32 < num_words; ++t) {
      __m256 acc[4];
      for (__m256& a : acc) a = _mm256_setzero_ps();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256i masks = _mm256_set1_epi32(static_cast<int>(
            detail::load_step<std::uint32_t>(slots[slot_of[i]], t)));
        const __m256 zero = _mm256_broadcast_ss(&re0f[i]);
        const __m256 one = _mm256_broadcast_ss(&re1f[i]);
        for (std::size_t b = 0; b < 4; ++b) {
          acc[b] = _mm256_add_ps(
              acc[b],
              _mm256_blendv_ps(zero, one,
                               _mm256_castsi256_ps(
                                   _mm256_sllv_epi32(masks, f32_shifts[b]))));
        }
      }
      std::uint32_t verdicts = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        verdicts |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                        _mm256_cmp_ps(acc[b], _mm256_setzero_ps(),
                                      _CMP_LT_OQ)))
                    << (8 * b);
      }
      detail::store_step(column, t, verdicts);
    }
  }

  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  for (std::size_t d = kf; d < plan.num_detectors(); ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t t = 0; t * 16 < num_words; ++t) {
      __m256d acc[4];
      for (__m256d& a : acc) a = _mm256_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256i masks = _mm256_set1_epi64x(
            detail::load_step<std::uint16_t>(slots[slot_of[i]], t));
        const __m256d zero = _mm256_broadcast_sd(&re0[i]);
        const __m256d one = _mm256_broadcast_sd(&re1[i]);
        for (std::size_t b = 0; b < 4; ++b) {
          acc[b] = _mm256_add_pd(
              acc[b],
              _mm256_blendv_pd(zero, one,
                               _mm256_castsi256_pd(
                                   _mm256_sllv_epi64(masks, f64_shifts[b]))));
        }
      }
      std::uint16_t verdicts = 0;
      for (std::size_t b = 0; b < 4; ++b) {
        verdicts |= static_cast<std::uint16_t>(
            _mm256_movemask_pd(
                _mm256_cmp_pd(acc[b], _mm256_setzero_pd(), _CMP_LT_OQ))
            << (4 * b));
      }
      detail::store_step(column, t, verdicts);
    }
  }
}

/// Gathers byte c of a[0..7] into one u64 per c and stores it at
/// column[c * stride] for c < n (n <= 32): byte c of a[k] holds column c's
/// words 8k .. 8k + 7, so the u64 is the column's 64 words. Three unpack
/// rounds leave column 16L + 2i + e in u64 lane 2L + e of the i-th result,
/// which is stored from the register (a store and reload through memory
/// would stall on store forwarding).
void store_columns(const __m256i a[8], std::size_t n, std::uint64_t* column,
                   std::size_t stride) {
  __m256i p[8];
  __m256i q[8];
  for (std::size_t k = 0; k < 4; ++k) {
    p[2 * k] = _mm256_unpacklo_epi8(a[2 * k], a[2 * k + 1]);
    p[2 * k + 1] = _mm256_unpackhi_epi8(a[2 * k], a[2 * k + 1]);
  }
  for (std::size_t h = 0; h < 8; h += 4) {
    for (std::size_t m = 0; m < 2; ++m) {
      q[h + 2 * m] = _mm256_unpacklo_epi16(p[h + m], p[h + m + 2]);
      q[h + 2 * m + 1] = _mm256_unpackhi_epi16(p[h + m], p[h + m + 2]);
    }
  }
  const auto store = [&](std::size_t c, __m128i pair) {
    if (c < n) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(column + c * stride), pair);
    }
    if (c + 1 < n) {
      _mm_storeh_pd(reinterpret_cast<double*>(column + (c + 1) * stride),
                    _mm_castsi128_pd(pair));
    }
  };
  for (std::size_t i = 0; i < 8; ++i) {
    const __m256i r =
        i % 2 == 0 ? _mm256_unpacklo_epi32(q[i / 2], q[i / 2 + 4])
                   : _mm256_unpackhi_epi32(q[i / 2], q[i / 2 + 4]);
    store(2 * i, _mm256_castsi256_si128(r));
    store(16 + 2 * i, _mm256_extracti128_si256(r, 1));
  }
}

void to_columns_avx2(const std::uint8_t* rows, std::size_t row_stride,
                     std::size_t num_words, std::size_t width,
                     std::uint64_t* cols, std::size_t col_stride) {
  if (num_words == 0) return;
  // A 32-byte load may not run past the matrix: a row chunk that would is
  // copied to `spill` first. Bounds are tested on offsets, so no pointer is
  // formed past the matrix.
  const std::size_t readable = (num_words - 1) * row_stride + width;
  alignas(32) std::uint8_t spill[32] = {};
  for (std::size_t g = 0; g * 64 < num_words; ++g) {
    const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
    const std::size_t group = g * 64 * row_stride;
    for (std::size_t c0 = 0; c0 < width; c0 += 32) {
      const std::size_t n = std::min<std::size_t>(32, width - c0);
      // Byte c of a[k] collects column c0 + c of words 8k .. 8k + 7: word
      // 8k + r sets bit r where its byte is nonzero.
      const auto add_word = [&](__m256i acc, const std::uint8_t* src, int r) {
        const __m256i v =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
        return _mm256_or_si256(
            acc, _mm256_andnot_si256(
                     _mm256_cmpeq_epi8(v, _mm256_setzero_si256()),
                     _mm256_set1_epi8(static_cast<char>(1u << r))));
      };
      __m256i a[8];
      for (std::size_t k = 0; k < 8; ++k) {
        a[k] = _mm256_setzero_si256();
        const std::size_t first = group + 8 * k * row_stride + c0;
        if (8 * k + 8 <= words && first + 7 * row_stride + 32 <= readable) {
#pragma GCC unroll 8
          for (int r = 0; r < 8; ++r) {
            a[k] = add_word(a[k], rows + first + r * row_stride, r);
          }
        } else {
          for (std::size_t w = 8 * k; w < words; ++w) {
            const std::size_t at = group + w * row_stride + c0;
            const std::uint8_t* src = rows + at;
            if (readable - at < 32) {
              std::memcpy(spill, src, n);
              src = spill;
            }
            a[k] = add_word(a[k], src, static_cast<int>(w - 8 * k));
          }
        }
      }
      store_columns(a, n, cols + c0 * col_stride + g, col_stride);
    }
  }
}

void to_rows_avx2(const std::uint64_t* cols, std::size_t col_stride,
                  std::size_t num_words, std::size_t width, std::uint8_t* rows,
                  std::size_t row_stride) {
  if (width != 8 || row_stride != 8) {
    scalar_kernel().to_rows(cols, col_stride, num_words, width, rows,
                            row_stride);
    return;
  }
  // Rows of exactly 8 columns: after the byte transpose byte c of x[k]
  // holds column c of words 8k .. 8k + 7, so shifting x[k] right by r in
  // lane r and keeping each byte's low bit is 4 rows per register.
  const __m256i lo_shifts = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i hi_shifts = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i low_bits = _mm256_set1_epi8(1);
  for (std::size_t g = 0; g * 64 < num_words; ++g) {
    const std::size_t words = std::min<std::size_t>(64, num_words - g * 64);
    std::uint64_t x[8];
    for (std::size_t c = 0; c < 8; ++c) x[c] = cols[c * col_stride + g];
    detail::transpose_8x8_bytes(x);
    for (std::size_t k = 0; 8 * k < words; ++k) {
      const __m256i v = _mm256_set1_epi64x(static_cast<long long>(x[k]));
      const __m256i lo =
          _mm256_and_si256(_mm256_srlv_epi64(v, lo_shifts), low_bits);
      const __m256i hi =
          _mm256_and_si256(_mm256_srlv_epi64(v, hi_shifts), low_bits);
      auto* dst = reinterpret_cast<long long*>(rows + (g * 64 + 8 * k) * 8);
      const auto valid =
          _mm256_set1_epi64x(static_cast<long long>(words - 8 * k));
      _mm256_maskstore_epi64(dst, _mm256_cmpgt_epi64(valid, lo_shifts), lo);
      _mm256_maskstore_epi64(dst + 4, _mm256_cmpgt_epi64(valid, hi_shifts),
                             hi);
    }
  }
}

void eval_channels_avx2(const EvalPlan& plan, const std::uint8_t* bits,
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

  alignas(32) double stack_masks[kStackSlots * 4];
  sw::util::AlignedVector<double, 32> heap_masks;
  double* masks_data = stack_masks;
  if (stride > kStackSlots) {
    heap_masks.resize(stride * 4);
    masks_data = heap_masks.data();
  }

  std::size_t w = begin;
  for (; w + 4 <= end; w += 4) {
    const std::uint8_t* w0 = bits + (w + 0) * stride;
    const std::uint8_t* w1 = bits + (w + 1) * stride;
    const std::uint8_t* w2 = bits + (w + 2) * stride;
    const std::uint8_t* w3 = bits + (w + 3) * stride;
    const auto sign_bit = [](std::uint8_t b) {
      return static_cast<long long>(static_cast<std::uint64_t>(b != 0) << 63);
    };
    for (std::size_t s = 0; s < stride; ++s) {
      _mm256_store_pd(
          masks_data + 4 * s,
          _mm256_castsi256_pd(_mm256_setr_epi64x(sign_bit(w0[s]),
                                                 sign_bit(w1[s]),
                                                 sign_bit(w2[s]),
                                                 sign_bit(w3[s]))));
    }

    for (std::size_t d = 0; d < detectors; ++d) {
      // Both complex components ride the same blend mask: the vector adds
      // are per-lane in plan order, so each lane's (re, im) pair is the
      // scalar kernel's sum bitwise, and decide_phase below sees exactly
      // the phasor the scalar gate path would.
      __m256d acc_re = _mm256_setzero_pd();
      __m256d acc_im = _mm256_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const __m256d mask = _mm256_load_pd(masks_data + 4 * slots[i]);
        acc_re = _mm256_add_pd(
            acc_re, _mm256_blendv_pd(_mm256_broadcast_sd(&re0[i]),
                                     _mm256_broadcast_sd(&re1[i]), mask));
        acc_im = _mm256_add_pd(
            acc_im, _mm256_blendv_pd(_mm256_broadcast_sd(&im0[i]),
                                     _mm256_broadcast_sd(&im1[i]), mask));
      }
      alignas(32) double lane_re[4];
      alignas(32) double lane_im[4];
      _mm256_store_pd(lane_re, acc_re);
      _mm256_store_pd(lane_im, acc_im);
      for (std::size_t l = 0; l < 4; ++l) {
        const auto decision = sw::core::decide_phase(
            std::complex<double>(lane_re[l], lane_im[l]),
            sw::core::kPhaseZero);
        // Element results[d]: plan order may be the block-f32 partition,
        // result rows stay in layout order.
        sw::core::ChannelResult& r = out[(w + l) * detectors + results[d]];
        r.channel = det_channel[d];
        r.logic = decision.logic;
        r.phase = decision.phase;
        r.amplitude = decision.amplitude;
        r.margin = decision.margin;
      }
    }
  }
  if (w < end) scalar_kernel().eval_channels(plan, bits, w, end, out);
}

}  // namespace

const Kernel* detail::avx2_kernel_candidate() {
  // Deliberately no CPUID check and no static-init machinery here: this TU
  // is compiled with -mavx2, so any non-trivial code in it could be
  // VEX-encoded and fault on a pre-AVX2 host. The runtime support check
  // lives in dispatch.cpp (a portable TU); this is a bare constant return.
  static constexpr Kernel kernel{"avx2", &eval_bits_avx2, &to_columns_avx2,
                                 &to_rows_avx2, &eval_channels_avx2};
  return &kernel;
}

}  // namespace sw::wavesim::kernels

#else  // no AVX2 codegen in this build or non-x86 target

namespace sw::wavesim::kernels {

const Kernel* detail::avx2_kernel_candidate() { return nullptr; }

}  // namespace sw::wavesim::kernels

#endif
