#include "serve/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <string_view>

#include "serve/byteio.h"
#include "serve/layout_hash.h"
#include "serve/wire_simd.h"
#include "util/error.h"
#include "wavesim/kernels/kernel.h"

namespace sw::serve {

namespace {

using detail::ByteReader;
using detail::append_f64;
using detail::append_u16;
using detail::append_u32;
using detail::append_u64;

constexpr std::size_t kHeaderSize = 64;
// Caps far beyond any realistic sweep shard, small enough that a corrupt
// size field cannot drive a multi-gigabyte allocation before the checksum
// is ever consulted.
constexpr std::uint64_t kMaxWords = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxCols = std::uint64_t{1} << 20;

void append_spec(std::vector<std::uint8_t>& out,
                 const sw::core::GateSpec& spec) {
  append_u64(out, spec.num_inputs);
  append_u64(out, spec.frequencies.size());
  for (const double f : spec.frequencies) append_f64(out, f);
  append_f64(out, spec.transducer_width);
  append_f64(out, spec.min_gap);
  append_f64(out, spec.min_same_channel_spacing);
  append_u64(out, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(spec.multiple_search)));
  append_u64(out, spec.invert_output.size());
  for (const std::uint8_t b : spec.invert_output) out.push_back(b ? 1 : 0);
}

/// Reject a declared element count before sizing a vector by it: the
/// reader must still hold `count` elements of at least `min_bytes` each,
/// so a frame can never make the decoder allocate more than it carries.
void require_encoded(const ByteReader& r, std::uint64_t count,
                     std::size_t min_bytes, const char* what) {
  SW_REQUIRE(count <= r.remaining() / min_bytes, what);
}

/// Read one GateSpec's fields from the current reader position (shared by
/// the v2 spec block and each stage of the v3 program block).
sw::core::GateSpec decode_spec_fields(ByteReader& r) {
  sw::core::GateSpec spec;
  spec.num_inputs = static_cast<std::size_t>(r.u64());
  SW_REQUIRE(spec.num_inputs <= kMaxCols,
             "implausible input count in spec block");
  const std::uint64_t nf = r.u64();
  SW_REQUIRE(nf <= kMaxCols && spec.num_inputs * nf <= kMaxCols,
             "implausible channel count in spec block");
  require_encoded(r, nf, 8, "frequency count exceeds the spec block");
  spec.frequencies.resize(static_cast<std::size_t>(nf));
  for (auto& f : spec.frequencies) f = r.f64();
  spec.transducer_width = r.f64();
  spec.min_gap = r.f64();
  spec.min_same_channel_spacing = r.f64();
  spec.multiple_search =
      static_cast<int>(static_cast<std::int64_t>(r.u64()));
  const std::uint64_t ninv = r.u64();
  SW_REQUIRE(ninv <= kMaxCols, "implausible invert flag count in spec block");
  require_encoded(r, ninv, 1, "invert flag count exceeds the spec block");
  spec.invert_output.resize(static_cast<std::size_t>(ninv));
  for (auto& b : spec.invert_output) b = r.u8();
  return spec;
}

sw::core::GateSpec decode_spec(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  sw::core::GateSpec spec = decode_spec_fields(r);
  SW_REQUIRE(r.remaining() == 0, "trailing bytes after spec block");
  return spec;
}

// v3 program block: a versioned, self-checksummed serialisation of a
// ProgramSpec in the spec-block position. The trailing checksum looks
// redundant next to the frame checksum, but the block is also the unit a
// coordinator persists or relays independent of any one frame, so it must
// verify on its own.
//
//   u16  block format (kProgramBlockFormat)
//   u64  num_primary_inputs
//   u64  num_stages
//   per stage: GateSpec fields (as the v2 spec block), u64 num_sources,
//              then per source u8 kind, u64 stage, u64 index, u8 negated
//   u64  chunked FNV-1a 64 over everything above

constexpr std::uint16_t kProgramBlockFormat = 1;
// Synthesis depth for n <= 4 truth tables is single digits; anything near
// this cap is a corrupt or hostile frame, not a real cascade.
constexpr std::uint64_t kMaxStages = 4096;
// Smallest encodings the decoder sizes vectors by: a stage is at least its
// seven fixed GateSpec words plus the source count, a source is
// u8 + u64 + u64 + u8.
constexpr std::size_t kMinStageBytes = 8 * 8;
constexpr std::size_t kSourceBytes = 18;

void append_program(std::vector<std::uint8_t>& out,
                    const sw::wavesim::ProgramSpec& program) {
  const std::size_t block_at = out.size();
  append_u16(out, kProgramBlockFormat);
  append_u64(out, program.num_primary_inputs);
  append_u64(out, program.stages.size());
  for (const auto& stage : program.stages) {
    append_spec(out, stage.gate);
    append_u64(out, stage.sources.size());
    for (const auto& src : stage.sources) {
      out.push_back(static_cast<std::uint8_t>(src.kind));
      append_u64(out, src.stage);
      append_u64(out, src.index);
      out.push_back(src.negated ? 1 : 0);
    }
  }
  append_u64(out, chunked_fnv1a64(
                      {out.data() + block_at, out.size() - block_at}));
}

sw::wavesim::ProgramSpec decode_program(std::span<const std::uint8_t> bytes) {
  SW_REQUIRE(bytes.size() > 8, "program block shorter than its checksum");
  const auto body = bytes.first(bytes.size() - 8);
  ByteReader tail(bytes.subspan(bytes.size() - 8));
  SW_REQUIRE(chunked_fnv1a64(body) == tail.u64(),
             "program block checksum mismatch");
  ByteReader r(body);
  SW_REQUIRE(r.u16() == kProgramBlockFormat,
             "unknown program block format");
  sw::wavesim::ProgramSpec program;
  program.num_primary_inputs = static_cast<std::size_t>(r.u64());
  SW_REQUIRE(program.num_primary_inputs <= kMaxCols,
             "implausible primary input count in program block");
  const std::uint64_t num_stages = r.u64();
  SW_REQUIRE(num_stages <= kMaxStages,
             "implausible stage count in program block");
  require_encoded(r, num_stages, kMinStageBytes,
                  "stage count exceeds the program block");
  program.stages.resize(static_cast<std::size_t>(num_stages));
  for (auto& stage : program.stages) {
    stage.gate = decode_spec_fields(r);
    const std::uint64_t num_sources = r.u64();
    SW_REQUIRE(num_sources <= kMaxCols,
               "implausible source count in program block");
    require_encoded(r, num_sources, kSourceBytes,
                    "source count exceeds the program block");
    stage.sources.resize(static_cast<std::size_t>(num_sources));
    for (auto& src : stage.sources) {
      const std::uint8_t kind = r.u8();
      SW_REQUIRE(kind <= 3, "unknown slot source kind in program block");
      src.kind = static_cast<sw::wavesim::SlotSource::Kind>(kind);
      const std::uint64_t stage_ref = r.u64();
      const std::uint64_t index_ref = r.u64();
      SW_REQUIRE(stage_ref <= 0xffffffffull && index_ref <= 0xffffffffull,
                 "slot source reference out of range");
      src.stage = static_cast<std::uint32_t>(stage_ref);
      src.index = static_cast<std::uint32_t>(index_ref);
      src.negated = r.u8() != 0;
    }
  }
  SW_REQUIRE(r.remaining() == 0, "trailing bytes after program block");
  // Reject structurally invalid programs (forward stage references, ragged
  // source lists …) at the wire boundary, before any caching or design.
  program.validate();
  return program;
}

std::size_t row_bytes_for(std::uint64_t num_cols) {
  return static_cast<std::size_t>((num_cols + 7) / 8);
}

// Branch-free 8-cell bit pack/unpack. The socket transport runs these per
// word on the serving path, where the original cell-at-a-time loops cost
// as much as the SIMD evaluation they fed; one u64 multiply moves a whole
// byte group instead. Bit order is unchanged from v1: bit i of payload
// byte b is column b * 8 + i.

constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;

std::uint64_t load_cells8(const std::uint8_t* cells) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t x;
    std::memcpy(&x, cells, 8);
    return x;
  } else {
    std::uint64_t x = 0;
    for (int b = 0; b < 8; ++b) {
      x |= static_cast<std::uint64_t>(cells[b]) << (8 * b);
    }
    return x;
  }
}

/// Pack 8 cells (one byte each, nonzero = 1, matching the v1 semantics)
/// into one payload byte: normalise each byte to 0/1 with a carry-free
/// "byte != 0" test, then gather the low bits with a multiply whose
/// partial products all land on distinct bits.
std::uint8_t pack_cells8(const std::uint8_t* cells) {
  const std::uint64_t x = load_cells8(cells);
  const std::uint64_t nonzero = (((x & kLow7) + kLow7) | x) >> 7 & kLowBits;
  return static_cast<std::uint8_t>((nonzero * 0x0102040810204080ull) >> 56);
}

/// Unpack one payload byte into 8 cells of 0/1: replicate the byte to
/// every lane, mask each lane to its own bit, normalise to 0/1.
void unpack_cells8(std::uint8_t packed, std::uint8_t* cells) {
  const std::uint64_t spread =
      (packed * kLowBits) & 0x8040201008040201ull;
  const std::uint64_t ones = ((spread + kLow7) >> 7) & kLowBits;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(cells, &ones, 8);
  } else {
    for (int b = 0; b < 8; ++b) {
      cells[b] = static_cast<std::uint8_t>(ones >> (8 * b));
    }
  }
}

/// Flat pack/unpack of whole packed bytes with the u64 tricks above: the
/// portable flavour, and the tail every SIMD flavour finishes with.
void pack_portable(const std::uint8_t* cells, std::size_t packed_bytes,
                   std::uint8_t* out) {
  for (std::size_t b = 0; b < packed_bytes; ++b) {
    out[b] = pack_cells8(cells + b * 8);
  }
}

void unpack_portable(const std::uint8_t* packed, std::size_t packed_bytes,
                     std::uint8_t* cells) {
  for (std::size_t b = 0; b < packed_bytes; ++b) {
    unpack_cells8(packed[b], cells + b * 8);
  }
}

/// `codec`'s bulk steps, then the portable tail.
void pack_flat(const detail::FlatCodec& codec, const std::uint8_t* cells,
               std::size_t packed_bytes, std::uint8_t* out) {
  const std::size_t bulk = packed_bytes & ~(codec.step - 1);
  if (bulk > 0) codec.pack(cells, bulk, out);
  pack_portable(cells + bulk * 8, packed_bytes - bulk, out + bulk);
}

void unpack_flat(const detail::FlatCodec& codec, const std::uint8_t* packed,
                 std::size_t packed_bytes, std::uint8_t* cells) {
  const std::size_t bulk = packed_bytes & ~(codec.step - 1);
  if (bulk > 0) codec.unpack(packed, bulk, cells);
  unpack_portable(packed + bulk, packed_bytes - bulk, cells + bulk * 8);
}

/// The block fallback's scratch: 64 words of up to 256 columns, or more
/// words of fewer columns, stay in L1 between unpack and to_columns.
constexpr std::size_t kBlockCells = 16 * 1024;
constexpr std::size_t kBlockRowBytes = kBlockCells / 64 / 8;

/// Calls chunk(b0, nb, w0, words) for each block of the fallback: row
/// bytes [b0, b0 + nb) of rows [w0, w0 + words), where words is a multiple
/// of 64 except in the last block and words * 8 * nb <= kBlockCells.
template <typename Chunk>
void for_each_cell_block(std::size_t num_words, std::size_t row_bytes,
                         const Chunk& chunk) {
  for (std::size_t b0 = 0; b0 < row_bytes; b0 += kBlockRowBytes) {
    const std::size_t nb = std::min(kBlockRowBytes, row_bytes - b0);
    const std::size_t block = kBlockCells / (8 * nb) / 64 * 64;
    for (std::size_t w0 = 0; w0 < num_words; w0 += block) {
      chunk(b0, nb, w0, std::min(block, num_words - w0));
    }
  }
}

}  // namespace

namespace detail {

void block_to_columns(const WireCodec& codec, const std::uint8_t* packed,
                      std::size_t num_words, std::size_t num_cols,
                      std::uint64_t* cols, std::size_t col_stride) {
  const std::size_t row_bytes = row_bytes_for(num_cols);
  alignas(64) std::uint8_t cells[kBlockCells];
  for_each_cell_block(num_words, row_bytes, [&](std::size_t b0,
                                                std::size_t nb,
                                                std::size_t w0,
                                                std::size_t words) {
    const std::uint8_t* rows = packed + w0 * row_bytes;
    if (nb == row_bytes) {
      unpack_flat(codec.flat, rows, words * row_bytes, cells);
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        unpack_flat(codec.flat, rows + w * row_bytes + b0, nb,
                    cells + w * 8 * nb);
      }
    }
    codec.kernel->to_columns(cells, 8 * nb, words,
                             std::min(num_cols - 8 * b0, 8 * nb),
                             cols + 8 * b0 * col_stride + w0 / 64, col_stride);
  });
}

void block_to_packed(const WireCodec& codec, const std::uint64_t* cols,
                     std::size_t col_stride, std::size_t num_words,
                     std::size_t num_cols, std::uint8_t* packed) {
  const std::size_t row_bytes = row_bytes_for(num_cols);
  alignas(64) std::uint8_t cells[kBlockCells];
  for_each_cell_block(num_words, row_bytes, [&](std::size_t b0,
                                                std::size_t nb,
                                                std::size_t w0,
                                                std::size_t words) {
    const std::size_t width = std::min(num_cols - 8 * b0, 8 * nb);
    // to_rows writes only the columns it converts: the padding cells past
    // num_cols must read zero.
    if (width < 8 * nb) std::memset(cells, 0, words * 8 * nb);
    codec.kernel->to_rows(cols + 8 * b0 * col_stride + w0 / 64, col_stride,
                          words, width, cells, 8 * nb);
    std::uint8_t* rows = packed + w0 * row_bytes;
    if (nb == row_bytes) {
      pack_flat(codec.flat, cells, words * row_bytes, rows);
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        pack_flat(codec.flat, cells + w * 8 * nb, nb,
                  rows + w * row_bytes + b0);
      }
    }
  });
}

const std::vector<WireCodec>& wire_codecs() {
  static const std::vector<WireCodec> codecs = [] {
    namespace kn = sw::wavesim::kernels;
    std::vector<WireCodec> list{{"scalar",
                                 {pack_portable, unpack_portable, 1},
                                 block_to_columns,
                                 block_to_packed,
                                 &kn::scalar_kernel()}};
#if defined(__x86_64__) || defined(__i386__)
    const kn::Kernel* avx2 = kn::avx2_kernel();
    if (__builtin_cpu_supports("avx2") && avx2 != nullptr) {
      if (const FlatCodec* flat = wire_flat_avx2_candidate()) {
        list.push_back(
            {"avx2", *flat, block_to_columns, block_to_packed, avx2});
      }
    }
    const kn::Kernel* avx512 = kn::avx512_kernel();
    const FlatCodec* flat512 = wire_flat_avx512_candidate();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") && avx512 != nullptr &&
        flat512 != nullptr) {
      list.push_back({"avx512", *flat512, block_to_columns, block_to_packed,
                      kn::detail::avx512_kernel_candidate(false)});
      const TileTransposes* tiles = wire_tiles_vbmi_candidate();
      if (__builtin_cpu_supports("avx512vbmi") &&
          __builtin_cpu_supports("gfni") && tiles != nullptr) {
        list.push_back({"avx512-vbmi", *flat512, tiles->to_columns,
                        tiles->to_packed, avx512});
      }
    }
#endif
    return list;
  }();
  return codecs;
}

const WireCodec& wire_codec() {
  static const WireCodec* const codec = [] {
    // The best flavour on the active kernel's rung ("scalar" names the
    // portable one), so a forced SW_EVAL_KERNEL forces the codec too.
    const std::string_view rung = sw::wavesim::kernels::active_kernel().name;
    const WireCodec* pick = &wire_codecs().front();
    for (const WireCodec& c : wire_codecs()) {
      if (std::string_view(c.name).substr(0, rung.size()) == rung) pick = &c;
    }
    return pick;
  }();
  return *codec;
}

}  // namespace detail

SweepFrameView as_view(const SweepFrame& frame) {
  SweepFrameView view;
  view.kind = frame.kind;
  view.layout_hash = frame.layout_hash;
  view.word_offset = frame.word_offset;
  view.num_words = frame.num_words;
  view.num_cols = frame.num_cols;
  view.spec = frame.spec ? &*frame.spec : nullptr;
  view.program = frame.program ? &*frame.program : nullptr;
  view.matrix = frame.matrix;
  return view;
}

SweepFrameView make_request_view(const sw::core::GateSpec& spec,
                                 std::uint64_t layout_hash,
                                 std::uint64_t word_offset,
                                 std::uint64_t num_words,
                                 std::span<const std::uint8_t> matrix) {
  SweepFrameView view;
  view.kind = FrameKind::kRequest;
  view.layout_hash = layout_hash;
  view.word_offset = word_offset;
  view.num_words = num_words;
  view.num_cols = spec.frequencies.size() * spec.num_inputs;
  view.spec = &spec;
  view.matrix = matrix;
  return view;
}

SweepFrameView make_program_request_view(
    const sw::wavesim::ProgramSpec& program, std::uint64_t program_hash,
    std::uint64_t word_offset, std::uint64_t num_words,
    std::span<const std::uint8_t> matrix) {
  SweepFrameView view;
  view.kind = FrameKind::kRequest;
  view.layout_hash = program_hash;
  view.word_offset = word_offset;
  view.num_words = num_words;
  view.num_cols = program.primary_slot_count();
  view.program = &program;
  view.matrix = matrix;
  return view;
}

SweepFrame make_request_frame(const sw::core::GateLayout& layout,
                              std::uint64_t word_offset,
                              std::uint64_t num_words,
                              std::vector<std::uint8_t> matrix) {
  SweepFrame frame;
  frame.kind = FrameKind::kRequest;
  frame.layout_hash = hash_layout(layout);
  frame.word_offset = word_offset;
  frame.num_words = num_words;
  frame.num_cols = layout.spec.frequencies.size() * layout.spec.num_inputs;
  frame.spec = layout.spec;
  frame.matrix = std::move(matrix);
  return frame;
}

SweepFrame make_program_request_frame(const sw::wavesim::ProgramSpec& program,
                                      std::uint64_t word_offset,
                                      std::uint64_t num_words,
                                      std::vector<std::uint8_t> matrix) {
  program.validate();
  SweepFrame frame;
  frame.kind = FrameKind::kRequest;
  frame.layout_hash = hash_program(program);
  frame.word_offset = word_offset;
  frame.num_words = num_words;
  frame.num_cols = program.primary_slot_count();
  frame.program = program;
  frame.matrix = std::move(matrix);
  return frame;
}

SweepFrame make_response_frame(const SweepFrame& request,
                               std::uint64_t num_channels,
                               std::vector<std::uint8_t> matrix) {
  SweepFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.layout_hash = request.layout_hash;
  frame.word_offset = request.word_offset;
  frame.num_words = request.num_words;
  frame.num_cols = num_channels;
  frame.matrix = std::move(matrix);
  return frame;
}

void encode_frame_into(const SweepFrameView& frame,
                       std::vector<std::uint8_t>& out) {
  SW_REQUIRE(frame.kind == FrameKind::kRequest ||
                 frame.kind == FrameKind::kResponse,
             "unknown frame kind");
  const bool is_request = frame.kind == FrameKind::kRequest;
  SW_REQUIRE(!(frame.spec != nullptr && frame.program != nullptr),
             "a frame carries at most one of GateSpec / ProgramSpec");
  SW_REQUIRE(is_request == (frame.spec != nullptr || frame.program != nullptr),
             "request frames carry a GateSpec or a ProgramSpec, response "
             "frames must not");
  SW_REQUIRE(frame.num_words <= kMaxWords && frame.num_cols <= kMaxCols,
             "frame dimensions out of range");
  const std::size_t col_words = sw::wavesim::kernels::column_words(
      static_cast<std::size_t>(frame.num_words));
  const bool from_columns = !frame.columns.empty();
  if (from_columns) {
    SW_REQUIRE(frame.matrix.empty(),
               "a frame view carries a matrix or columns, not both");
    SW_REQUIRE(frame.columns.size() == frame.num_cols * col_words,
               "columns must be num_cols x column_words(num_words)");
  } else {
    SW_REQUIRE(frame.matrix.size() == frame.num_words * frame.num_cols,
               "matrix must be num_words x num_cols");
  }

  const std::size_t base = out.size();
  const std::size_t row_bytes = row_bytes_for(frame.num_cols);
  const std::size_t payload_size =
      static_cast<std::size_t>(frame.num_words) * row_bytes;
  out.reserve(base + kHeaderSize + payload_size + 256);
  append_u32(out, kWireMagic);
  // A frame is v3 exactly when it carries a program: single-gate requests
  // and all responses keep encoding v2, so an upgraded peer stays
  // compatible with an old worker until the first program request.
  append_u16(out, frame.program ? kWireVersionProgram : kWireVersion);
  append_u16(out, static_cast<std::uint16_t>(frame.kind));
  append_u64(out, frame.layout_hash);
  append_u64(out, frame.word_offset);
  append_u64(out, frame.num_words);
  append_u64(out, frame.num_cols);
  append_u64(out, 0);  // spec_size, patched once the spec block is written
  append_u64(out, 0);  // payload_size, patched below
  append_u64(out, 0);  // checksum, patched over the assembled body

  if (frame.spec) append_spec(out, *frame.spec);
  if (frame.program) append_program(out, *frame.program);
  const std::size_t spec_size = out.size() - base - kHeaderSize;

  // Bit-pack the payload straight into the output buffer: one resize to
  // the final length, rows written in place. No intermediate payload
  // vector — on the serving path this encoder runs per shard and the extra
  // allocate+copy used to rival the packing itself.
  const std::size_t payload_at = out.size();
  out.resize(payload_at + payload_size);
  std::uint8_t* packed = out.data() + payload_at;
  const detail::WireCodec& codec = detail::wire_codec();
  if (from_columns) {
    codec.to_packed(codec, frame.columns.data(), col_words,
                    static_cast<std::size_t>(frame.num_words),
                    static_cast<std::size_t>(frame.num_cols), packed);
  } else if (frame.num_cols % 8 == 0) {
    // Byte-aligned rows tile the payload with no padding bits, so the
    // whole matrix packs as one flat cell stream.
    pack_flat(codec.flat, frame.matrix.data(), payload_size, packed);
  } else {
    const std::size_t full_bytes = static_cast<std::size_t>(frame.num_cols / 8);
    for (std::uint64_t w = 0; w < frame.num_words; ++w) {
      const std::uint8_t* cells =
          frame.matrix.data() + static_cast<std::size_t>(w * frame.num_cols);
      std::uint8_t* row = packed + static_cast<std::size_t>(w) * row_bytes;
      pack_portable(cells, full_bytes, row);
      row[full_bytes] = 0;
      for (std::uint64_t c = full_bytes * 8; c < frame.num_cols; ++c) {
        if (cells[c]) {
          row[full_bytes] |= static_cast<std::uint8_t>(1u << (c % 8));
        }
      }
    }
  }

  std::uint8_t* header = out.data() + base;
  detail::store_u64(header + 40, spec_size);
  detail::store_u64(header + 48, payload_size);
  // Checksum the spec block and payload as the one contiguous region they
  // occupy in the buffer: a single chunked pass, no concatenation copy.
  const std::uint64_t checksum = chunked_fnv1a64(
      {header + kHeaderSize, spec_size + payload_size});
  detail::store_u64(header + 56, checksum);
}

std::vector<std::uint8_t> encode_frame(const SweepFrame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame_into(as_view(frame), out);
  return out;
}

PackedFrame validate_frame(std::span<const std::uint8_t> bytes,
                           std::uint16_t max_version) {
  SW_REQUIRE(bytes.size() >= kHeaderSize, "frame shorter than header");
  ByteReader r(bytes);
  SW_REQUIRE(r.u32() == kWireMagic, "bad frame magic");
  const std::uint16_t version = r.u16();
  // v1 frames are retired (checksum change), not negotiable: rejecting
  // them is a plain decode error. Anything newer than this decoder (or the
  // caller's pinned ceiling) throws the typed error so the transport can
  // answer with a version refusal instead of a corruption report.
  SW_REQUIRE(version >= kWireVersion, "retired wire version");
  const std::uint16_t ceiling = std::min(max_version, kWireVersionMax);
  if (version > ceiling) throw UnsupportedVersionError(version, ceiling);
  const std::uint16_t kind = r.u16();
  SW_REQUIRE(kind == static_cast<std::uint16_t>(FrameKind::kRequest) ||
                 kind == static_cast<std::uint16_t>(FrameKind::kResponse),
             "unknown frame kind");

  PackedFrame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.layout_hash = r.u64();
  frame.word_offset = r.u64();
  frame.num_words = r.u64();
  frame.num_cols = r.u64();
  const std::uint64_t spec_size = r.u64();
  const std::uint64_t payload_size = r.u64();
  const std::uint64_t checksum = r.u64();

  SW_REQUIRE(frame.num_words <= kMaxWords && frame.num_cols <= kMaxCols,
             "frame dimensions out of range");
  SW_REQUIRE(spec_size <= (std::uint64_t{1} << 20),
             "implausible spec block size");
  const std::size_t row_bytes = row_bytes_for(frame.num_cols);
  SW_REQUIRE(payload_size == frame.num_words * row_bytes,
             "payload size inconsistent with frame dimensions");
  SW_REQUIRE(r.remaining() == spec_size + payload_size,
             "frame length mismatch (truncated or trailing bytes)");

  // Spec block and payload are contiguous in the buffer; checksum them in
  // one chunked pass exactly as the encoder did.
  const auto body =
      r.take(static_cast<std::size_t>(spec_size + payload_size));
  SW_REQUIRE(chunked_fnv1a64(body) == checksum,
             "frame checksum mismatch (corrupt body)");
  const auto spec_bytes = body.first(static_cast<std::size_t>(spec_size));
  frame.payload = body.subspan(static_cast<std::size_t>(spec_size));

  if (frame.kind == FrameKind::kRequest) {
    SW_REQUIRE(spec_size > 0, "request frame missing its spec block");
    if (version == kWireVersionProgram) {
      frame.program = decode_program(spec_bytes);
    } else {
      frame.spec = decode_spec(spec_bytes);
    }
  } else {
    SW_REQUIRE(version == kWireVersion, "response frames encode as wire v2");
    SW_REQUIRE(spec_size == 0, "response frame must not carry a spec block");
  }

  if (frame.num_cols % 8 != 0) {
    // Canonical encoding keeps row padding zero; a set padding bit means
    // the body was not produced by this encoder.
    const std::uint8_t mask =
        static_cast<std::uint8_t>(0xFFu << (frame.num_cols % 8));
    std::uint8_t padding = 0;
    for (std::size_t at = row_bytes - 1; at < frame.payload.size();
         at += row_bytes) {
      padding |= frame.payload[at];
    }
    SW_REQUIRE((padding & mask) == 0, "nonzero padding bits in payload row");
  }
  return frame;
}

void unpack_matrix(const PackedFrame& frame, std::span<std::uint8_t> matrix) {
  SW_REQUIRE(matrix.size() == frame.num_words * frame.num_cols,
             "matrix must be num_words x num_cols");
  const detail::WireCodec& codec = detail::wire_codec();
  if (frame.num_cols % 8 == 0) {
    // Byte-aligned rows have no padding bits, so the payload is one
    // contiguous packed stream.
    unpack_flat(codec.flat, frame.payload.data(), frame.payload.size(),
                matrix.data());
    return;
  }
  const std::size_t row_bytes = row_bytes_for(frame.num_cols);
  const std::size_t full_bytes = static_cast<std::size_t>(frame.num_cols / 8);
  for (std::uint64_t w = 0; w < frame.num_words; ++w) {
    const std::uint8_t* row = frame.payload.data() + w * row_bytes;
    std::uint8_t* cells =
        matrix.data() + static_cast<std::size_t>(w * frame.num_cols);
    unpack_portable(row, full_bytes, cells);
    for (std::uint64_t c = full_bytes * 8; c < frame.num_cols; ++c) {
      cells[c] = (row[c / 8] >> (c % 8)) & 1u;
    }
  }
}

std::vector<std::uint64_t> unpack_columns(const PackedFrame& frame) {
  const std::size_t num_words = static_cast<std::size_t>(frame.num_words);
  const std::size_t col_words = sw::wavesim::kernels::column_words(num_words);
  std::vector<std::uint64_t> columns(
      static_cast<std::size_t>(frame.num_cols) * col_words);
  const detail::WireCodec& codec = detail::wire_codec();
  codec.to_columns(codec, frame.payload.data(), num_words,
                   static_cast<std::size_t>(frame.num_cols), columns.data(),
                   col_words);
  return columns;
}

SweepFrame decode_frame(std::span<const std::uint8_t> bytes,
                        std::uint16_t max_version) {
  PackedFrame packed = validate_frame(bytes, max_version);
  SweepFrame frame;
  frame.kind = packed.kind;
  frame.layout_hash = packed.layout_hash;
  frame.word_offset = packed.word_offset;
  frame.num_words = packed.num_words;
  frame.num_cols = packed.num_cols;
  frame.spec = std::move(packed.spec);
  frame.program = std::move(packed.program);
  frame.matrix.resize(
      static_cast<std::size_t>(frame.num_words * frame.num_cols));
  unpack_matrix(packed, frame.matrix);
  return frame;
}

void write_frame_file(const std::string& path, const SweepFrame& frame) {
  const auto bytes = encode_frame(frame);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SW_REQUIRE(out.good(), "cannot open frame file for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  SW_REQUIRE(out.good(), "short write to frame file: " + path);
}

SweepFrame read_frame_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SW_REQUIRE(in.good(), "cannot open frame file for reading: " + path);
  const std::streamsize size = in.tellg();
  SW_REQUIRE(size >= 0, "cannot size frame file: " + path);
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  SW_REQUIRE(in.gcount() == size, "short read from frame file: " + path);
  return decode_frame(bytes);
}

}  // namespace sw::serve
