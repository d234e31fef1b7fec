// AVX2 kernel: four column u64s (256 words) per __m256i.
//
// eval_tables runs the plan's decision diagrams (kernels/table_step.h) on
// four column u64s per mux, as and/xor, so it decodes exactly what the
// scalar rung's u64 muxes decode.
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
#include <cstring>

#include "wavesim/eval_plan.h"
#include "wavesim/kernels/table_step.h"

namespace sw::wavesim::kernels {

namespace {

/// eval_tables' lanes: four column u64s (256 words) per mux, a masked load
/// and store for a last group of fewer.
struct Avx2Lanes {
  struct V {
    __m256i v;
  };
  static constexpr std::size_t kWords = 4;
  static __m256i first(std::size_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V load(const std::uint64_t* p, std::size_t n) {
    const auto* q = reinterpret_cast<const long long*>(p);
    return {n == kWords
                ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
                : _mm256_maskload_epi64(q, first(n))};
  }
  static void store(std::uint64_t* p, V x, std::size_t n) {
    if (n == kWords) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x.v);
    } else {
      _mm256_maskstore_epi64(reinterpret_cast<long long*>(p), first(n), x.v);
    }
  }
  static V splat(std::uint64_t x) {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  static V mux(V x, V lo, V hi) {
    return {_mm256_xor_si256(
        lo.v, _mm256_and_si256(_mm256_xor_si256(lo.v, hi.v), x.v))};
  }
};

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

}  // namespace

const Kernel* detail::avx2_kernel_candidate() {
  // Deliberately no CPUID check and no static-init machinery here: this TU
  // is compiled with -mavx2, so any non-trivial code in it could be
  // VEX-encoded and fault on a pre-AVX2 host. The runtime support check
  // lives in dispatch.cpp (a portable TU); this is a bare constant return.
  static constexpr Kernel kernel{"avx2", &detail::eval_tables<Avx2Lanes>,
                                 &to_columns_avx2, &to_rows_avx2};
  return &kernel;
}

}  // namespace sw::wavesim::kernels

#else  // no AVX2 codegen in this build or non-x86 target

namespace sw::wavesim::kernels {

const Kernel* detail::avx2_kernel_candidate() { return nullptr; }

}  // namespace sw::wavesim::kernels

#endif
