// Codec flavours for the bit-packed wire payload (serve/wire.cpp's hot
// loops), mirroring the wavesim kernel pattern: the vector implementations
// live in exactly one TU (wire_simd.cpp) behind a runtime CPUID check, and
// the portable dispatcher in wire.cpp assembles the flavours the host can
// run. Candidate accessors return nullptr when the build lacks the codegen.
//
// A flavour moves the payload between three shapes:
//
//   * flat pack/unpack — one byte per cell <-> packed bits, over a flat
//     stream of whole `step`-byte groups (the byte-matrix API of
//     decode_frame/encode_frame; valid for a whole matrix when num_cols % 8
//     == 0, where packed rows tile the payload with no padding bits). AVX2
//     moves 32 cells per step (byte compare + movemask), AVX-512 64 (one
//     test-mask per pack step, one maskz byte-broadcast per unpack step).
//   * to_columns / to_packed — packed rows <-> the kernels' bit-sliced
//     columns (kernels/kernel.h), what the serving path runs on. On hosts
//     with VBMI and GFNI a bit-tile transpose does it in registers for rows
//     of up to 8 bytes (64 columns): byte permutes gather each 8x8 bit tile,
//     one GF(2) affine op transposes it. Every other shape and host takes
//     the block fallback, which unpacks a block of rows into an L1-sized
//     scratch with the flavour's unpack and converts it with its kernel's
//     to_columns (and back through to_rows and pack).
//
// The flavours are "scalar" (portable), "avx2", "avx512" and
// "avx512-vbmi". wire_codec() picks the best one on the rung of the active
// evaluation kernel, so SW_EVAL_KERNEL=avx2 also selects the AVX2 codec;
// wire_codecs() lists every flavour this host runs, for tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sw::wavesim::kernels {
struct Kernel;
}  // namespace sw::wavesim::kernels

namespace sw::serve::detail {

/// Flat bulk pack/unpack, as compiled in the SIMD TU.
struct FlatCodec {
  /// Pack cells[0 .. packed_bytes*8) (one byte per cell, nonzero = 1) into
  /// packed_bytes output bytes, bit i of byte b = cell b*8 + i.
  /// `packed_bytes` must be a multiple of `step`.
  void (*pack)(const std::uint8_t* cells, std::size_t packed_bytes,
               std::uint8_t* out);
  /// Inverse: expand packed_bytes bytes into 0/1 cells. Same multiple-of-
  /// `step` contract.
  void (*unpack)(const std::uint8_t* packed, std::size_t packed_bytes,
                 std::uint8_t* cells);
  /// Packed-byte granularity of one vector step. Always a power of two;
  /// the caller computes its bulk prefix as `total & ~(step - 1)`.
  std::size_t step;
};

struct WireCodec;

/// Packed rows -> columns: `packed` holds num_words rows of
/// ceil(num_cols / 8) bytes (bit i of byte b is column 8b + i); writes
/// column_words(num_words) u64s of each column c < num_cols at
/// cols + c * col_stride, every bit past num_words zero. Padding bits are
/// ignored (the frame validator rejects them first).
using ToColumnsFn = void (*)(const WireCodec& codec,
                             const std::uint8_t* packed,
                             std::size_t num_words, std::size_t num_cols,
                             std::uint64_t* cols, std::size_t col_stride);
/// Columns -> packed rows, the inverse: writes every byte of the num_words
/// rows, padding bits zero. Column bits past num_words are not read.
using ToPackedFn = void (*)(const WireCodec& codec, const std::uint64_t* cols,
                            std::size_t col_stride, std::size_t num_words,
                            std::size_t num_cols, std::uint8_t* packed);

struct WireCodec {
  const char* name;
  FlatCodec flat;
  ToColumnsFn to_columns;
  ToPackedFn to_packed;
  /// The kernel whose to_columns / to_rows the block fallback runs.
  const sw::wavesim::kernels::Kernel* kernel;
};

/// The block fallback (see above), for any shape.
void block_to_columns(const WireCodec& codec, const std::uint8_t* packed,
                      std::size_t num_words, std::size_t num_cols,
                      std::uint64_t* cols, std::size_t col_stride);
void block_to_packed(const WireCodec& codec, const std::uint64_t* cols,
                     std::size_t col_stride, std::size_t num_words,
                     std::size_t num_cols, std::uint8_t* packed);

/// The AVX2 flat codec, or nullptr when wire_simd.cpp was built without
/// -mavx2. The caller gates on __builtin_cpu_supports("avx2") before use.
const FlatCodec* wire_flat_avx2_candidate();

/// The AVX-512 flat codec, or nullptr when the build lacks AVX-512
/// codegen. The caller gates on "avx512f" AND "avx512bw" before use.
const FlatCodec* wire_flat_avx512_candidate();

/// The VBMI+GFNI bit-tile transposes (rows of up to 8 bytes; wider rows
/// take the block fallback), or nullptr without the codegen. The caller
/// gates on "avx512f", "avx512bw", "avx512vbmi" and "gfni" before use.
struct TileTransposes {
  ToColumnsFn to_columns;
  ToPackedFn to_packed;
};
const TileTransposes* wire_tiles_vbmi_candidate();

/// Every flavour this host can run, portable first, best last.
const std::vector<WireCodec>& wire_codecs();

/// The process's flavour: the best one on the active kernel's rung
/// (scalar -> portable). Resolved once.
const WireCodec& wire_codec();

}  // namespace sw::serve::detail
