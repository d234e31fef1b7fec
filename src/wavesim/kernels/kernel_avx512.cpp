// AVX-512 kernel: eight words per __m512d (sixteen per __m512 in f32), one
// word per lane.
//
// Same bit-exactness argument as the AVX2 kernel — vectorise across words,
// never across a detector's contributions, so lane l's accumulation is the
// scalar kernel's for word l, addition for addition — at twice the width.
// AVX-512's mask registers are the column layout itself: a slot's __mmask8
// (f64) or __mmask16 (f32) for a word group is one byte or u16 of its
// column, loaded as it is and consumed by _mm512_mask_blend_pd/ps, and the
// decode is a single _mm512_cmp_pd_mask / _mm512_cmp_ps_mask (ordered
// < 0.0, so a -0.0 sum decodes as 0 exactly like the scalar `acc < 0.0`)
// stored as one byte or u16 of the channel's column.
//
// The edge converter works on whole 64-word groups of rows of 8 .. 64 bytes
// (every layout with a multiple of 8 slots): a test-mask per 64 bytes packs
// the group into bit planes, and GF(2) affine ops transpose those into
// column u64s; rows back go through the same transpose. Both use VBMI byte
// permutes and GFNI, compiled in by per-function target attributes and
// selected only where dispatch.cpp found both on the CPU. Other shapes, and
// AVX-512 hosts without them, use the AVX2 converter.
//
// This translation unit is compiled with -mavx512f -mavx512bw -mavx512vl
// (CMake adds the flags only for this file when the compiler supports them
// and the target is x86); nothing in it executes unless the CPUID check in
// dispatch.cpp (a portable TU) confirmed AVX512F+BW+VL first (and VBMI and
// GFNI for the converter's table), or the candidate getter — a bare
// constant return — is called.
#include "wavesim/kernels/kernel.h"

#if defined(SWLOGIC_EVAL_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))

// GCC's AVX-512F headers self-initialise the undefined source of unmasked
// intrinsics such as _mm512_srlv_epi64, which trips -Wmaybe-uninitialized
// wherever they inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include <algorithm>
#include <array>
#include <complex>
#include <cstring>
#include <vector>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/column_step.h"

namespace sw::wavesim::kernels {

namespace {

void eval_bits_avx512(const EvalPlan& plan, const std::uint64_t* const* slots,
                      std::size_t num_words, std::uint64_t* out,
                      std::size_t out_stride) {
  const auto offsets = plan.detector_offsets();
  const auto det_channel = plan.detector_channels();
  const auto slot_of = plan.slots();
  const std::size_t kf = plan.num_f32_detectors();

  // Each step fills four independent accumulators, 64 words in f32 and 32
  // in f64, so one contribution's column pointer and broadcast constants
  // serve all four. A last step past num_words runs on padding lanes.
  // blend(k, a, b): lane l reads b where bit l of k is set — so a set input
  // bit selects the phase-one constant, per lane, and the add is the
  // scalar accumulation step in every lane.
  const auto re0f = plan.re0_f32();
  const auto re1f = plan.re1_f32();
  for (std::size_t d = 0; d < kf; ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t t = 0; t * 64 < num_words; ++t) {
      __m512 acc[4];
      for (__m512& a : acc) a = _mm512_setzero_ps();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const std::uint64_t* slot = slots[slot_of[i]];
        const __m512 zero = _mm512_set1_ps(re0f[i]);
        const __m512 one = _mm512_set1_ps(re1f[i]);
        for (std::size_t h = 0; h < 4; ++h) {
          acc[h] = _mm512_add_ps(
              acc[h],
              _mm512_mask_blend_ps(
                  detail::load_step<std::uint16_t>(slot, 4 * t + h), zero,
                  one));
        }
      }
      std::uint64_t verdicts = 0;
      for (std::size_t h = 0; h < 4; ++h) {
        verdicts |= std::uint64_t{_mm512_cmp_ps_mask(
                        acc[h], _mm512_setzero_ps(), _CMP_LT_OQ)}
                    << (16 * h);
      }
      column[t] = verdicts;
    }
  }

  const auto re0 = plan.re0();
  const auto re1 = plan.re1();
  for (std::size_t d = kf; d < plan.num_detectors(); ++d) {
    std::uint64_t* column = out + det_channel[d] * out_stride;
    for (std::size_t t = 0; t * 32 < num_words; ++t) {
      __m512d acc[4];
      for (__m512d& a : acc) a = _mm512_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const std::uint64_t* slot = slots[slot_of[i]];
        const __m512d zero = _mm512_set1_pd(re0[i]);
        const __m512d one = _mm512_set1_pd(re1[i]);
        for (std::size_t q = 0; q < 4; ++q) {
          acc[q] = _mm512_add_pd(
              acc[q],
              _mm512_mask_blend_pd(
                  static_cast<__mmask8>(
                      detail::load_step<std::uint8_t>(slot, 4 * t + q)),
                  zero, one));
        }
      }
      std::uint32_t verdicts = 0;
      for (std::size_t q = 0; q < 4; ++q) {
        verdicts |= std::uint32_t{_mm512_cmp_pd_mask(
                        acc[q], _mm512_setzero_pd(), _CMP_LT_OQ)}
                    << (8 * q);
      }
      detail::store_step(column, t, verdicts);
    }
  }
}

/// The AVX2 converter: shapes the packed converter below does not take, and
/// every shape on hosts without VBMI and GFNI (every AVX-512 host runs
/// AVX2; a build without AVX2 codegen falls back to the portable one).
void to_columns_general(const std::uint8_t* rows, std::size_t row_stride,
                        std::size_t num_words, std::size_t width,
                        std::uint64_t* cols, std::size_t col_stride) {
  const Kernel* avx2 = detail::avx2_kernel_candidate();
  (avx2 != nullptr ? *avx2 : scalar_kernel())
      .to_columns(rows, row_stride, num_words, width, cols, col_stride);
}

/// Rows of 8, 16, .., 64 bytes to columns, 64 words at a time. The group's
/// rows are 8 super-rows of 8 words each (8 * row_stride bytes), and byte p
/// of a super-row belongs to word-in-8 p / row_stride, column p % row_stride.
/// Plane j gathers bytes [64j, 64j + 64) of all 8 super-rows: super-row g
/// sets bit g of each byte that is nonzero (a test-mask and a masked add per
/// 64 bytes, with every lane of every load in use). Then for 8 columns at a
/// time a qword permute collects each word-in-8's plane qword, a byte
/// permute transposes them so that qword c holds column c's 8 plane bytes
/// (in reverse), and one GF(2) affine op transposes each qword's 8x8 bits:
/// byte g, bit r is word 8g + r, the column's u64.
__attribute__((target("avx512vbmi,gfni"))) void to_columns_avx512(
    const std::uint8_t* rows, std::size_t row_stride, std::size_t num_words,
    std::size_t width, std::uint64_t* cols, std::size_t col_stride) {
  if (row_stride % 8 != 0 || row_stride > 64 || width > row_stride) {
    to_columns_general(rows, row_stride, num_words, width, cols, col_stride);
    return;
  }
  if (num_words == 0) return;
  const std::size_t planes = row_stride / 8;
  const std::size_t super_row = 8 * row_stride;
  const std::size_t readable = (num_words - 1) * row_stride + width;
  // Byte 8c + 7 - r of the result is byte 8r + c of the source.
  alignas(64) static constexpr auto kTranspose = [] {
    std::array<std::uint8_t, 64> t{};
    for (std::size_t c = 0; c < 8; ++c) {
      for (std::size_t r = 0; r < 8; ++r) {
        t[8 * c + 7 - r] = static_cast<std::uint8_t>(8 * r + c);
      }
    }
    return t;
  }();
  const __m512i transpose = _mm512_load_si512(kTranspose.data());
  // Byte b of each qword is 1 << b: the affine op then returns the
  // transpose of its matrix operand.
  const __m512i identity = _mm512_set1_epi64(0x8040201008040201LL);
  const auto stride = static_cast<long long>(planes);
  const __m512i plane_qword =
      _mm512_setr_epi64(0, stride, 2 * stride, 3 * stride, 4 * stride,
                        5 * stride, 6 * stride, 7 * stride);
  for (std::size_t g0 = 0; g0 * 64 < num_words; ++g0) {
    const std::uint8_t* group = rows + g0 * 64 * row_stride;
    // Bytes of the group that lie inside the matrix: loads past them are
    // masked, so the padding bits come out zero.
    const std::size_t inside = readable - g0 * 64 * row_stride;
    __m512i plane[8];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) plane[j] = _mm512_setzero_si512();
    const auto accumulate = [&](auto load) {
      for (std::size_t g = 0; g < 8; ++g) {
        const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << g));
#pragma GCC unroll 8
        for (std::size_t j = 0; j < 8; ++j) {
          if (j < planes) {
            const __m512i v = load(g * super_row + 64 * j);
            plane[j] = _mm512_mask_add_epi8(
                plane[j], _mm512_test_epi8_mask(v, v), plane[j], bit);
          }
        }
      }
    };
    if (inside >= 64 * row_stride) {
      accumulate(
          [&](std::size_t at) { return _mm512_loadu_si512(group + at); });
    } else {
      accumulate([&](std::size_t at) {
        if (at >= inside) return _mm512_setzero_si512();
        const std::size_t n = std::min<std::size_t>(64, inside - at);
        return _mm512_maskz_loadu_epi8(
            n == 64 ? ~__mmask64{0} : (__mmask64{1} << n) - 1, group + at);
      });
    }
    for (std::size_t t = 0; 8 * t < width; ++t) {
      // Qword r of x is plane qword r * planes + t: word-in-8 r's bytes of
      // columns 8t .. 8t + 7.
      const __m512i q = _mm512_add_epi64(
          plane_qword, _mm512_set1_epi64(static_cast<long long>(t)));
      __m512i x = _mm512_permutex2var_epi64(plane[0], q, plane[1]);
      for (std::size_t j = 2; j < planes; j += 2) {
        x = _mm512_mask_mov_epi64(
            x,
            _mm512_cmpge_epu64_mask(
                q, _mm512_set1_epi64(static_cast<long long>(8 * j))),
            _mm512_permutex2var_epi64(plane[j], q, plane[j + 1]));
      }
      x = _mm512_gf2p8affine_epi64_epi8(
          identity, _mm512_permutexvar_epi8(transpose, x), 0);
      // Qword c is column 8t + c's u64 of this group.
      const std::size_t n = std::min<std::size_t>(8, width - 8 * t);
      std::uint64_t* column = cols + 8 * t * col_stride + g0;
      const auto store = [&](std::size_t c, __m128i pair) {
        if (c < n) {
          _mm_storel_epi64(
              reinterpret_cast<__m128i*>(column + c * col_stride), pair);
        }
        if (c + 1 < n) {
          _mm_storeh_pd(
              reinterpret_cast<double*>(column + (c + 1) * col_stride),
              _mm_castsi128_pd(pair));
        }
      };
      store(0, _mm512_castsi512_si128(x));
      store(2, _mm512_extracti32x4_epi32(x, 1));
      store(4, _mm512_extracti32x4_epi32(x, 2));
      store(6, _mm512_extracti32x4_epi32(x, 3));
    }
  }
}

/// The AVX2 converter back to rows, for the shapes and hosts the packed one
/// does not take (see to_columns_general).
void to_rows_general(const std::uint64_t* cols, std::size_t col_stride,
                     std::size_t num_words, std::size_t width,
                     std::uint8_t* rows, std::size_t row_stride) {
  const Kernel* avx2 = detail::avx2_kernel_candidate();
  (avx2 != nullptr ? *avx2 : scalar_kernel())
      .to_rows(cols, col_stride, num_words, width, rows, row_stride);
}

/// Columns to rows of exactly 8 bytes, 64 words at a time, undoing
/// to_columns_avx512's last two steps: a byte permute gathers byte g of the
/// 8 columns into qword g (in reverse), and the affine op transposes each
/// qword's bits, so that byte r holds word 8g + r's bit of every column.
/// That qword is the byte mask of rows 8g .. 8g + 7.
__attribute__((target("avx512vbmi,gfni"))) void to_rows_avx512(
    const std::uint64_t* cols, std::size_t col_stride, std::size_t num_words,
    std::size_t width, std::uint8_t* rows, std::size_t row_stride) {
  if (width != 8 || row_stride != 8) {
    to_rows_general(cols, col_stride, num_words, width, rows, row_stride);
    return;
  }
  // Byte 8g + 7 - c of the result is byte 8c + g of the source.
  alignas(64) static constexpr auto kGather = [] {
    std::array<std::uint8_t, 64> t{};
    for (std::size_t g = 0; g < 8; ++g) {
      for (std::size_t c = 0; c < 8; ++c) {
        t[8 * g + 7 - c] = static_cast<std::uint8_t>(8 * c + g);
      }
    }
    return t;
  }();
  const __m512i gather = _mm512_load_si512(kGather.data());
  const __m512i identity = _mm512_set1_epi64(0x8040201008040201LL);
  const __m512i ones = _mm512_set1_epi8(1);
  const auto cs = static_cast<long long>(col_stride);
  const __m512i column_at = _mm512_setr_epi64(0, cs, 2 * cs, 3 * cs, 4 * cs,
                                              5 * cs, 6 * cs, 7 * cs);
  for (std::size_t g0 = 0; g0 * 64 < num_words; ++g0) {
    const std::size_t words = std::min<std::size_t>(64, num_words - g0 * 64);
    alignas(64) std::uint64_t masks[8];
    _mm512_store_si512(
        masks, _mm512_gf2p8affine_epi64_epi8(
                   identity,
                   _mm512_permutexvar_epi8(
                       gather, _mm512_i64gather_epi64(column_at, cols + g0, 8)),
                   0));
    std::uint8_t* group = rows + g0 * 64 * 8;
    for (std::size_t k = 0; 8 * k < words; ++k) {
      const __m512i v = _mm512_maskz_mov_epi8(masks[k], ones);
      if (8 * k + 8 <= words) {
        _mm512_storeu_si512(group + 64 * k, v);
      } else {
        _mm512_mask_storeu_epi8(group + 64 * k,
                                (__mmask64{1} << (8 * (words - 8 * k))) - 1, v);
      }
    }
  }
}

template <auto ToColumns>
void eval_channels_avx512(const EvalPlan& plan, const std::uint8_t* bits,
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

  // Per 64 words one u64 column per slot, through the edge converter;
  // byte k of a column is the __mmask8 of words 8k .. 8k + 7.
  std::vector<std::uint64_t> columns(stride);
  std::size_t w = begin;
  for (; w + 8 <= end; w += 8) {
    const std::size_t k = (w - begin) / 8 % 8;
    if (k == 0) {
      ToColumns(bits + w * stride, stride, std::min<std::size_t>(64, end - w),
                stride, columns.data(), 1);
    }

    for (std::size_t d = 0; d < detectors; ++d) {
      // Both complex components ride the same mask; each lane's (re, im)
      // pair is the scalar sum bitwise, so decide_phase sees exactly the
      // phasor the scalar gate path would.
      __m512d acc_re = _mm512_setzero_pd();
      __m512d acc_im = _mm512_setzero_pd();
      for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
        const auto mask =
            static_cast<__mmask8>(columns[slots[i]] >> (8 * k));
        acc_re = _mm512_add_pd(
            acc_re, _mm512_mask_blend_pd(mask, _mm512_set1_pd(re0[i]),
                                         _mm512_set1_pd(re1[i])));
        acc_im = _mm512_add_pd(
            acc_im, _mm512_mask_blend_pd(mask, _mm512_set1_pd(im0[i]),
                                         _mm512_set1_pd(im1[i])));
      }
      alignas(64) double lane_re[8];
      alignas(64) double lane_im[8];
      _mm512_store_pd(lane_re, acc_re);
      _mm512_store_pd(lane_im, acc_im);
      for (std::size_t l = 0; l < 8; ++l) {
        const auto decision = sw::core::decide_phase(
            std::complex<double>(lane_re[l], lane_im[l]),
            sw::core::kPhaseZero);
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

const Kernel* detail::avx512_kernel_candidate(bool vbmi_gfni) {
  // No CPUID check here — this TU is compiled with -mavx512f/-mavx512bw,
  // so anything non-trivial in it could fault on an older host. The
  // runtime support checks live in dispatch.cpp; this is a bare constant
  // return.
  static constexpr Kernel kernel{"avx512", &eval_bits_avx512,
                                 &to_columns_avx512, &to_rows_avx512,
                                 &eval_channels_avx512<&to_columns_avx512>};
  static constexpr Kernel kernel_without_vbmi{
      "avx512", &eval_bits_avx512, &to_columns_general, &to_rows_general,
      &eval_channels_avx512<&to_columns_general>};
  return vbmi_gfni ? &kernel : &kernel_without_vbmi;
}

}  // namespace sw::wavesim::kernels

#else  // no AVX-512 codegen in this build or non-x86 target

namespace sw::wavesim::kernels {

const Kernel* detail::avx512_kernel_candidate(bool) { return nullptr; }

}  // namespace sw::wavesim::kernels

#endif
