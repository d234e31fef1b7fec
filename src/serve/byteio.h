// Internal little-endian byte codec shared by the serving layer.
//
// The canonical layout serialisation (layout_hash.cpp) and the wire format
// (wire.cpp) must agree byte-for-byte on integer/double encoding; keeping
// one writer and one reader here means a width or byte-order slip cannot
// diverge between them. ByteWriter is resize-once because the canonical
// serialisation sits on the per-request fast path (every submit hashes its
// layout) and must not pay a capacity check per byte; the append_* helpers
// serve the wire encoder, where frames are assembled from variable-size
// blocks. ByteReader is bounds-checked on every primitive so truncated
// input fails loudly wherever it is cut.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.h"

namespace sw::serve::detail {

/// Resize-once little-endian writer over a caller-owned vector.
class ByteWriter {
 public:
  ByteWriter(std::vector<std::uint8_t>& out, std::size_t bound) : out_(out) {
    out_.resize(bound);
  }

  void u8(std::uint8_t v) { out_[pos_++] = v; }

  void u64(std::uint64_t v) {
    std::uint8_t* p = out_.data() + pos_;
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    pos_ += 8;
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void finish() { out_.resize(pos_); }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t pos_ = 0;
};

/// In-place little-endian store for patching an already-sized buffer (the
/// appending encoders below write sequentially; this writes at a position).
inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The little-endian u64 at `p`: one load on little-endian hosts (GCC does
/// not merge the eight byte loads of the portable assembly, ~30
/// instructions), the byte assembly elsewhere.
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

/// Appending little-endian helpers for block-assembled buffers.
inline void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader; every primitive throws
/// sw::util::Error on a read past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() { return load_u64(take(8).data()); }

  double f64() { return std::bit_cast<double>(u64()); }

  std::span<const std::uint8_t> take(std::size_t n) {
    SW_REQUIRE(n <= bytes_.size() - pos_, "truncated frame");
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace sw::serve::detail
