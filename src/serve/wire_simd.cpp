// SIMD flavours of the wire codec (serve/wire_simd.h). The AVX2 flat codec
// rides the TU-wide -mavx2 flag (added by CMake when the toolchain has it);
// the AVX-512 flat codec and the VBMI+GFNI tile transposes stay in this
// same TU behind per-function target attributes, so the AVX2 code keeps its
// VEX encoding (no TU-wide -mavx512* flags that could leak EVEX
// instructions into the AVX2 path and SIGILL an AVX2-only host). The
// dispatcher in wire.cpp only calls any of them after a runtime CPUID
// check, so the library stays portable.
#include "serve/wire_simd.h"

#if defined(SWLOGIC_WIRE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace sw::serve::detail {

namespace {

/// 32 cells -> 4 packed bytes per step: compare-to-zero gives a byte mask,
/// movemask gathers one bit per byte in exactly the wire order (bit i of
/// packed byte b = cell b*8 + i, little-endian across the u32).
void pack_avx2(const std::uint8_t* cells, std::size_t packed_bytes,
               std::uint8_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t b = 0; b + 4 <= packed_bytes; b += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cells + b * 8));
    const __m256i is_zero = _mm256_cmpeq_epi8(v, zero);
    const std::uint32_t mask =
        ~static_cast<std::uint32_t>(_mm256_movemask_epi8(is_zero));
    std::memcpy(out + b, &mask, 4);
  }
}

/// 4 packed bytes -> 32 cells per step: broadcast the u32, shuffle each
/// packed byte across its 8 destination lanes, select each lane's bit and
/// normalise the 0xFF compare mask to 0/1.
void unpack_avx2(const std::uint8_t* packed, std::size_t packed_bytes,
                 std::uint8_t* cells) {
  // Per 128-bit lane the shuffle sources its own lane of the broadcast, so
  // lane 0 spreads packed bytes 0-1 and lane 1 spreads bytes 2-3.
  const __m256i spread_ctl = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit_sel =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ull));
  const __m256i one = _mm256_set1_epi8(1);
  for (std::size_t b = 0; b + 4 <= packed_bytes; b += 4) {
    std::uint32_t word;
    std::memcpy(&word, packed + b, 4);
    const __m256i v = _mm256_set1_epi32(static_cast<int>(word));
    const __m256i bytes = _mm256_shuffle_epi8(v, spread_ctl);
    const __m256i sel = _mm256_and_si256(bytes, bit_sel);
    const __m256i ones = _mm256_cmpeq_epi8(sel, bit_sel);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells + b * 8),
                        _mm256_and_si256(ones, one));
  }
}

constexpr FlatCodec kAvx2Codec{pack_avx2, unpack_avx2, 4};

}  // namespace

const FlatCodec* wire_flat_avx2_candidate() { return &kAvx2Codec; }

}  // namespace sw::serve::detail

#else  // !SWLOGIC_WIRE_AVX2

namespace sw::serve::detail {

const FlatCodec* wire_flat_avx2_candidate() { return nullptr; }

}  // namespace sw::serve::detail

#endif

#if defined(SWLOGIC_WIRE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace sw::serve::detail {

namespace {

/// 64 cells -> 8 packed bytes per step: one masked byte test turns the
/// whole register into a __mmask64 whose bit j is "cell j nonzero" — which
/// is already the wire order (bit i of packed byte b = cell b*8 + i,
/// little-endian across the u64).
__attribute__((target("avx512f,avx512bw"))) void pack_avx512(
    const std::uint8_t* cells, std::size_t packed_bytes, std::uint8_t* out) {
  for (std::size_t b = 0; b + 8 <= packed_bytes; b += 8) {
    const __m512i v = _mm512_loadu_si512(cells + b * 8);
    const std::uint64_t mask =
        _cvtmask64_u64(_mm512_test_epi8_mask(v, v));
    std::memcpy(out + b, &mask, 8);
  }
}

/// 8 packed bytes -> 64 cells per step: reinterpret the bytes as a
/// __mmask64 and let a masked zero-broadcast write 1 where the bit is set,
/// 0 elsewhere — no shuffle/bit-select dance at all.
__attribute__((target("avx512f,avx512bw"))) void unpack_avx512(
    const std::uint8_t* packed, std::size_t packed_bytes,
    std::uint8_t* cells) {
  const __m512i one = _mm512_set1_epi8(1);
  for (std::size_t b = 0; b + 8 <= packed_bytes; b += 8) {
    std::uint64_t word;
    std::memcpy(&word, packed + b, 8);
    _mm512_storeu_si512(cells + b * 8,
                        _mm512_maskz_mov_epi8(_cvtu64_mask64(word), one));
  }
}

constexpr FlatCodec kAvx512Codec{pack_avx512, unpack_avx512, 8};

// The bit-tile transposes between packed rows of R <= 8 bytes and columns,
// one 64-word group at a time. The group's 64R bytes sit in R registers.
// Rows -> columns, per row byte b: a byte permute gathers byte b of the 64
// rows so that qword g holds rows 8g+7 .. 8g (reversed), one GF(2) affine
// op against the identity transposes each qword's 8x8 bits (byte j of
// qword g is then byte g of column 8b + j), and a byte permute transposes
// the 8x8 bytes, leaving column 8b + j's u64 in qword j. Columns -> rows
// undoes the last two steps per b (gather 8 column u64s, byte permute,
// affine: byte w is row w's byte b) and interleaves the R results back into
// rows with byte permutes. The permute tables are built at compile time.
#define SW_WIRE_TILE_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vbmi,gfni")))

constexpr std::size_t kMaxTileRowBytes = 8;

/// A byte gather from up to 2 * kPairs registers: pair m's two-source
/// permute with index idx[m] supplies the lanes set in mask[m].
struct PairGather {
  static constexpr std::size_t kPairs = kMaxTileRowBytes / 2;
  alignas(64) std::uint8_t idx[kPairs][64];
  std::uint64_t mask[kPairs];

  constexpr void take(std::size_t lane, std::size_t source_byte) {
    const std::size_t m = source_byte / 128;
    idx[m][lane] = static_cast<std::uint8_t>(source_byte % 128);
    mask[m] |= std::uint64_t{1} << lane;
  }
};

struct TileTables {
  /// [R][b]: byte b of the 64 rows, qword g holding rows 8g+7 .. 8g.
  PairGather row_byte[kMaxTileRowBytes + 1][kMaxTileRowBytes];
  /// [R][k]: rows' bytes 64k .. 64k+63 from the R per-byte registers
  /// (register b holds row w's byte b at byte w).
  PairGather interleave[kMaxTileRowBytes + 1][kMaxTileRowBytes];
  /// Byte 8j + g is byte 8g + j: the 8x8 byte transpose.
  alignas(64) std::uint8_t byte_transpose[64];
  /// Byte 8g + 7 - c is byte 8c + g: column qwords to reversed row tiles.
  alignas(64) std::uint8_t column_tiles[64];
};

constexpr TileTables build_tile_tables() {
  TileTables t{};
  for (std::size_t r = 1; r <= kMaxTileRowBytes; ++r) {
    for (std::size_t b = 0; b < r; ++b) {
      for (std::size_t p = 0; p < 64; ++p) {
        t.row_byte[r][b].take(p, (8 * (p / 8) + 7 - p % 8) * r + b);
      }
    }
    for (std::size_t k = 0; k < r; ++k) {
      for (std::size_t lane = 0; lane < 64; ++lane) {
        const std::size_t q = 64 * k + lane;
        // Row q / r's byte q % r: byte q / r of register q % r, where pair
        // m holds registers 2m and 2m + 1.
        t.interleave[r][k].take(lane, (q % r) * 64 + q / r);
      }
    }
  }
  for (std::size_t p = 0; p < 64; ++p) {
    t.byte_transpose[p] = static_cast<std::uint8_t>(8 * (p % 8) + p / 8);
    t.column_tiles[8 * (p / 8) + 7 - p % 8] =
        static_cast<std::uint8_t>(8 * (p % 8) + p / 8);
  }
  return t;
}

/// Built at compile time, so no request pays for them.
constexpr TileTables kTileTables = build_tile_tables();

/// Gathers `g` from registers src[0 .. 2 * ceil(R / 2)).
template <std::size_t R>
SW_WIRE_TILE_TARGET inline __m512i pair_gather(const PairGather& g,
                                               const __m512i* src) {
  __m512i out = _mm512_permutex2var_epi8(
      src[0], _mm512_load_si512(g.idx[0]), src[1]);
#pragma GCC unroll 4
  for (std::size_t m = 1; 2 * m < R; ++m) {
    out = _mm512_mask_mov_epi8(
        out, _cvtu64_mask64(g.mask[m]),
        _mm512_permutex2var_epi8(src[2 * m], _mm512_load_si512(g.idx[m]),
                                 src[2 * m + 1]));
  }
  return out;
}

/// Byte i of the result is byte idx[i] of x (idx < 64). The two-source
/// permute, because GCC flags the one-source form's undefined passthrough
/// as maybe-uninitialized once inlined here.
SW_WIRE_TILE_TARGET inline __m512i permute_bytes(__m512i idx, __m512i x) {
  return _mm512_permutex2var_epi8(x, idx, x);
}

/// The first `n` (<= 64) bytes at p, zero past them.
SW_WIRE_TILE_TARGET inline __m512i load_bytes(const std::uint8_t* p,
                                              std::size_t n) {
  if (n >= 64) return _mm512_loadu_si512(p);
  return _mm512_maskz_loadu_epi8(_cvtu64_mask64((std::uint64_t{1} << n) - 1),
                                 p);
}

template <std::size_t R>
SW_WIRE_TILE_TARGET void tiles_to_columns(const std::uint8_t* packed,
                                          std::size_t num_words,
                                          std::size_t num_cols,
                                          std::uint64_t* cols,
                                          std::size_t col_stride) {
  const TileTables& t = kTileTables;
  const __m512i identity = _mm512_set1_epi64(0x8040201008040201LL);
  const __m512i byte_transpose = _mm512_load_si512(t.byte_transpose);
  const std::size_t total = num_words * R;
  for (std::size_t g0 = 0; g0 * 64 < num_words; ++g0) {
    const std::size_t at = g0 * 64 * R;
    // Bytes past the payload load as zero: rows past num_words become
    // zero column bits.
    __m512i rows[2 * ((R + 1) / 2)];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) {
      rows[k] = at + 64 * k < total
                    ? load_bytes(packed + at + 64 * k, total - at - 64 * k)
                    : _mm512_setzero_si512();
    }
    if constexpr (R % 2 == 1) rows[R] = _mm512_setzero_si512();
#pragma GCC unroll 8
    for (std::size_t b = 0; b < R; ++b) {
      const __m512i tiles = pair_gather<R>(t.row_byte[R][b], rows);
      alignas(64) std::uint64_t column[8];
      _mm512_store_si512(
          column,
          permute_bytes(byte_transpose,
                        _mm512_gf2p8affine_epi64_epi8(identity, tiles, 0)));
      const std::size_t n = std::min<std::size_t>(8, num_cols - 8 * b);
      std::uint64_t* out = cols + 8 * b * col_stride + g0;
      for (std::size_t j = 0; j < n; ++j) out[j * col_stride] = column[j];
    }
  }
}

template <std::size_t R>
SW_WIRE_TILE_TARGET void tiles_to_packed(const std::uint64_t* cols,
                                         std::size_t col_stride,
                                         std::size_t num_words,
                                         std::size_t num_cols,
                                         std::uint8_t* packed) {
  const TileTables& t = kTileTables;
  const __m512i identity = _mm512_set1_epi64(0x8040201008040201LL);
  const __m512i column_tiles = _mm512_load_si512(t.column_tiles);
  const auto cs = static_cast<long long>(col_stride);
  const __m512i column_at = _mm512_setr_epi64(0, cs, 2 * cs, 3 * cs, 4 * cs,
                                              5 * cs, 6 * cs, 7 * cs);
  const std::size_t total = num_words * R;
  for (std::size_t g0 = 0; g0 * 64 < num_words; ++g0) {
    __m512i bytes[2 * ((R + 1) / 2)];
#pragma GCC unroll 8
    for (std::size_t b = 0; b < R; ++b) {
      // Columns past num_cols are the row padding: zero.
      const std::size_t n = std::min<std::size_t>(8, num_cols - 8 * b);
      const __m512i u = _mm512_mask_i64gather_epi64(
          _mm512_setzero_si512(), static_cast<__mmask8>((1u << n) - 1),
          column_at, cols + 8 * b * col_stride + g0, 8);
      bytes[b] = _mm512_gf2p8affine_epi64_epi8(
          identity, permute_bytes(column_tiles, u), 0);
    }
    if constexpr (R % 2 == 1) bytes[R] = _mm512_setzero_si512();
    const std::size_t at = g0 * 64 * R;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) {
      if (at + 64 * k >= total) break;
      const __m512i out =
          R == 1 ? bytes[0] : pair_gather<R>(t.interleave[R][k], bytes);
      const std::size_t n = std::min<std::size_t>(64, total - at - 64 * k);
      if (n == 64) {
        _mm512_storeu_si512(packed + at + 64 * k, out);
      } else {
        _mm512_mask_storeu_epi8(packed + at + 64 * k,
                                _cvtu64_mask64((std::uint64_t{1} << n) - 1),
                                out);
      }
    }
  }
}

template <std::size_t... R>
void tiles_to_columns_any(const WireCodec& codec, const std::uint8_t* packed,
                          std::size_t num_words, std::size_t num_cols,
                          std::uint64_t* cols, std::size_t col_stride,
                          std::index_sequence<R...>) {
  const std::size_t row_bytes = (num_cols + 7) / 8;
  if (num_words == 0 || num_cols == 0) return;
  if (row_bytes > kMaxTileRowBytes) {
    block_to_columns(codec, packed, num_words, num_cols, cols, col_stride);
    return;
  }
  ((row_bytes == R + 1 ? tiles_to_columns<R + 1>(packed, num_words, num_cols,
                                                 cols, col_stride)
                       : void()),
   ...);
}

template <std::size_t... R>
void tiles_to_packed_any(const WireCodec& codec, const std::uint64_t* cols,
                         std::size_t col_stride, std::size_t num_words,
                         std::size_t num_cols, std::uint8_t* packed,
                         std::index_sequence<R...>) {
  const std::size_t row_bytes = (num_cols + 7) / 8;
  if (num_words == 0 || num_cols == 0) return;
  if (row_bytes > kMaxTileRowBytes) {
    block_to_packed(codec, cols, col_stride, num_words, num_cols, packed);
    return;
  }
  ((row_bytes == R + 1 ? tiles_to_packed<R + 1>(cols, col_stride, num_words,
                                                num_cols, packed)
                       : void()),
   ...);
}

void to_columns_vbmi(const WireCodec& codec, const std::uint8_t* packed,
                     std::size_t num_words, std::size_t num_cols,
                     std::uint64_t* cols, std::size_t col_stride) {
  tiles_to_columns_any(codec, packed, num_words, num_cols, cols, col_stride,
                       std::make_index_sequence<kMaxTileRowBytes>{});
}

void to_packed_vbmi(const WireCodec& codec, const std::uint64_t* cols,
                    std::size_t col_stride, std::size_t num_words,
                    std::size_t num_cols, std::uint8_t* packed) {
  tiles_to_packed_any(codec, cols, col_stride, num_words, num_cols, packed,
                      std::make_index_sequence<kMaxTileRowBytes>{});
}

constexpr TileTransposes kVbmiTiles{to_columns_vbmi, to_packed_vbmi};

}  // namespace

const FlatCodec* wire_flat_avx512_candidate() { return &kAvx512Codec; }

const TileTransposes* wire_tiles_vbmi_candidate() { return &kVbmiTiles; }

}  // namespace sw::serve::detail

#else  // !SWLOGIC_WIRE_AVX512

namespace sw::serve::detail {

const FlatCodec* wire_flat_avx512_candidate() { return nullptr; }

const TileTransposes* wire_tiles_vbmi_candidate() { return nullptr; }

}  // namespace sw::serve::detail

#endif
