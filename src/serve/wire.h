// Sharded-sweep wire format: a versioned binary encoding of packed
// evaluate_bits request/response matrices.
//
// A coordinator splits an exhaustive sweep into word-range shards and ships
// each shard to a worker process as one request frame; the worker replies
// with one response frame. Frames are self-describing and defensive: magic
// + version up front, explicit sizes, an FNV-1a checksum over the body, and
// a decoder that rejects truncated, oversized or corrupted input with
// sw::util::Error rather than reading garbage. Requests carry the GateSpec
// so the worker can design the layout locally; the canonical layout hash
// rides along so both processes can prove they derived the identical
// geometry before any bit is evaluated.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "SWW1"
//        4     2  version (kWireVersion)
//        6     2  kind (1 = request, 2 = response)
//        8     8  layout_hash  (hash_layout of the gate geometry)
//       16     8  word_offset  (first word's index in the full sweep)
//       24     8  num_words
//       32     8  num_cols     (slot_count for requests, channels for
//                               responses)
//       40     8  spec_size    (bytes; > 0 iff kind == request; the spec
//                               block holds a GateSpec for v2, a program
//                               block for v3)
//       48     8  payload_size (bytes)
//       56     8  checksum     (chunked FNV-1a 64 over spec block + payload)
//       64     …  spec block, then payload
//
// Version history: v1 checksummed with byte-wise FNV-1a; v2 switched to
// the chunked variant (one multiply per 8 bytes) because on the socket
// transport the checksum sits on the per-word serving path and the
// byte-wise chain cost rivalled the SIMD evaluation itself. v3 (current
// maximum) carries a multi-stage ProgramSpec in the spec-block position
// instead of a GateSpec: a versioned, self-checksummed program block
// (stage GateSpecs plus the interconnect map) whose layout_hash field is
// hash_program. A frame is encoded v3 only when it actually carries a
// program; single-gate requests and all responses stay v2, so an upgraded
// coordinator interoperates with an old worker until the first program
// request. Decoders accept versions up to a caller-chosen maximum and
// reject newer frames with the *typed* UnsupportedVersionError so a
// transport can answer "I don't speak v3" instead of dropping the
// connection.
//
// The payload is the matrix bit-packed row-major: each row is
// ceil(num_cols / 8) bytes, bit i of byte b is column b * 8 + i, and the
// padding bits of the last byte of each row must be zero.
//
// Decoding is split in two. validate_frame checks everything about a frame
// (magic, version, kind, sizes, checksum, the spec or program block and
// the row padding bits) and stops at the packed payload, which it only
// borrows. Two unpackers then yield the payload in either in-memory shape:
// unpack_matrix as the row-major byte matrix (one byte per bit, what
// clients and decode_frame use), unpack_columns as the bit-sliced columns
// the evaluation kernels read (kernels/kernel.h), straight from the packed
// bits (serve/wire_simd.h has the codec flavours). EvalServer decodes every
// request with validate_frame + unpack_columns and encodes its replies from
// the result columns (SweepFrameView::columns), so no byte matrix exists on
// the serving path; the wire bytes are the same either way.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/gate_design.h"
#include "util/error.h"
#include "wavesim/eval_program.h"

namespace sw::serve {

inline constexpr std::uint32_t kWireMagic = 0x31575753u;  // "SWW1" on disk
inline constexpr std::uint16_t kWireVersion = 2;
/// Frames carrying a ProgramSpec instead of a GateSpec encode as v3.
inline constexpr std::uint16_t kWireVersionProgram = 3;
/// Newest version this tree can decode (decode_frame's default ceiling).
inline constexpr std::uint16_t kWireVersionMax = kWireVersionProgram;

/// Thrown by decode_frame for a structurally sound frame whose version is
/// newer than the decoder's ceiling — the one decode failure a peer can
/// negotiate around (fall back to v2) rather than treat as corruption.
class UnsupportedVersionError : public sw::util::Error {
 public:
  UnsupportedVersionError(std::uint16_t version, std::uint16_t max_version)
      : Error("unsupported wire version " + std::to_string(version) +
              " (this endpoint speaks up to " + std::to_string(max_version) +
              ")"),
        version(version) {}

  std::uint16_t version = 0;
};

enum class FrameKind : std::uint16_t {
  kRequest = 1,
  kResponse = 2,
};

/// One frame, held unpacked in memory: `matrix` is num_words * num_cols
/// bytes of 0/1 values (the evaluate_bits shape), bit-packing happens only
/// on the wire.
struct SweepFrame {
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t layout_hash = 0;
  std::uint64_t word_offset = 0;
  std::uint64_t num_words = 0;
  std::uint64_t num_cols = 0;
  std::optional<sw::core::GateSpec> spec;  ///< v2 requests only
  /// v3 requests only: the multi-stage program to evaluate (layout_hash is
  /// then hash_program, num_cols its primary_slot_count()). A request
  /// carries exactly one of spec / program.
  std::optional<sw::wavesim::ProgramSpec> program;
  std::vector<std::uint8_t> matrix;
};

/// A frame to encode whose matrix (and spec) are borrowed rather than
/// owned: the zero-copy encode path of the socket transport, where the
/// matrix is a word-range window into a larger sweep buffer or a result
/// batch that must not be copied per request.
struct SweepFrameView {
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t layout_hash = 0;
  std::uint64_t word_offset = 0;
  std::uint64_t num_words = 0;
  std::uint64_t num_cols = 0;
  const sw::core::GateSpec* spec = nullptr;  ///< v2 requests only
  const sw::wavesim::ProgramSpec* program = nullptr;  ///< v3 requests only
  /// The payload as the num_words x num_cols byte matrix, or else:
  std::span<const std::uint8_t> matrix;
  /// the payload as num_cols bit-sliced columns of
  /// kernels::column_words(num_words) u64s each, column c at
  /// c * column_words(num_words) (bits past num_words are not read). Set
  /// at most one of the two; the wire bytes do not depend on which.
  std::span<const std::uint64_t> columns;
};

/// A frame validate_frame accepted, its payload still bit-packed and
/// borrowed from the validated bytes (which must outlive it).
struct PackedFrame {
  FrameKind kind = FrameKind::kRequest;
  std::uint64_t layout_hash = 0;
  std::uint64_t word_offset = 0;
  std::uint64_t num_words = 0;
  std::uint64_t num_cols = 0;
  std::optional<sw::core::GateSpec> spec;          ///< v2 requests only
  std::optional<sw::wavesim::ProgramSpec> program;  ///< v3 requests only
  /// num_words rows of ceil(num_cols / 8) bytes, padding bits zero.
  std::span<const std::uint8_t> payload;
};

/// Borrow an owned frame as a view (no copies).
SweepFrameView as_view(const SweepFrame& frame);

/// Build a request view for `num_words` rows of `matrix` starting at
/// `word_offset`; `layout_hash` is precomputed by the caller so a client
/// streaming many shards of one sweep hashes the layout once, not per
/// frame.
SweepFrameView make_request_view(const sw::core::GateSpec& spec,
                                 std::uint64_t layout_hash,
                                 std::uint64_t word_offset,
                                 std::uint64_t num_words,
                                 std::span<const std::uint8_t> matrix);

/// Build a v3 program-request view for `num_words` rows of `matrix`
/// (num_words x primary_slot_count) starting at `word_offset`;
/// `program_hash` is hash_program(program), precomputed by the caller for
/// the same once-per-sweep reason as make_request_view.
SweepFrameView make_program_request_view(
    const sw::wavesim::ProgramSpec& program, std::uint64_t program_hash,
    std::uint64_t word_offset, std::uint64_t num_words,
    std::span<const std::uint8_t> matrix);

/// Build a request frame for `num_words` rows of `matrix` starting at
/// `word_offset` of the full sweep; derives num_cols, the spec and the
/// layout hash from `layout`.
SweepFrame make_request_frame(const sw::core::GateLayout& layout,
                              std::uint64_t word_offset,
                              std::uint64_t num_words,
                              std::vector<std::uint8_t> matrix);

/// Build a v3 program-request frame; validates the program and derives
/// num_cols (primary_slot_count) and the canonical program hash from it.
SweepFrame make_program_request_frame(const sw::wavesim::ProgramSpec& program,
                                      std::uint64_t word_offset,
                                      std::uint64_t num_words,
                                      std::vector<std::uint8_t> matrix);

/// Build the response frame answering `request` with the decoded output
/// matrix (num_words x num_channels).
SweepFrame make_response_frame(const SweepFrame& request,
                               std::uint64_t num_channels,
                               std::vector<std::uint8_t> matrix);

/// Serialise a frame. Throws sw::util::Error on inconsistent shapes (e.g.
/// matrix size vs num_words * num_cols, response carrying a spec).
std::vector<std::uint8_t> encode_frame(const SweepFrame& frame);

/// Append the serialised frame to `out` without intermediate buffers: the
/// matrix is bit-packed directly into the output and the checksum patched
/// in place. The zero-copy path the event server and pipelined clients
/// encode on; `encode_frame` is a resize-and-forward over this.
void encode_frame_into(const SweepFrameView& frame,
                       std::vector<std::uint8_t>& out);

/// Validate a frame: magic, version, kind, sizes, checksum, the spec or
/// program block and the payload's padding bits; throws sw::util::Error on
/// any violation (truncated buffer, trailing bytes, corrupt body, nonzero
/// padding bits …). A frame whose version exceeds `max_version` throws
/// UnsupportedVersionError instead, so a worker pinned at v2 (max_version
/// = kWireVersion) answers program requests with a typed refusal rather
/// than a corruption error. Allocates only what the spec or program block
/// decodes to, bounded by the block's own bytes.
PackedFrame validate_frame(std::span<const std::uint8_t> bytes,
                           std::uint16_t max_version = kWireVersionMax);

/// The payload as the row-major byte matrix: writes the num_words x
/// num_cols cells (0/1) to `matrix`, which must be exactly that size.
void unpack_matrix(const PackedFrame& frame, std::span<std::uint8_t> matrix);

/// The payload as bit-sliced columns: num_cols columns of
/// kernels::column_words(num_words) u64s, column c at
/// c * column_words(num_words), every bit past num_words zero. That is
/// about the payload's size from 64 words up, and at most 64x it below.
std::vector<std::uint64_t> unpack_columns(const PackedFrame& frame);

/// validate_frame + unpack_matrix into an owned frame.
SweepFrame decode_frame(std::span<const std::uint8_t> bytes,
                        std::uint16_t max_version = kWireVersionMax);

/// Whole-file helpers for the file/pipe transport of the examples.
void write_frame_file(const std::string& path, const SweepFrame& frame);
SweepFrame read_frame_file(const std::string& path);

}  // namespace sw::serve
