// Canonical layout hashing for the serving layer.
//
// A cached evaluation plan is only reusable for a request whose gate
// geometry is *identical* — same frequencies, placements, amplitudes and
// inversion flags — so the cache key must be a pure function of the layout
// data: deterministic across process runs (no pointers, no iteration-order
// dependence) so that a coordinator and a worker binary can agree on it
// over the wire. hash_layout() is FNV-1a 64 over a canonical little-endian
// byte serialisation of every evaluation-relevant GateLayout field;
// LayoutKey keeps those bytes alongside the hash so cache lookups compare
// the full key and a 64-bit collision can never alias two layouts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/gate_design.h"

namespace sw::wavesim {
struct ProgramSpec;
}

namespace sw::serve {

/// FNV-1a 64-bit parameters.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a 64 folded over little-endian u64 chunks (zero-padded tail, total
/// length mixed in last) — one multiply per 8 bytes instead of per byte.
/// Used for layout and program hashes, wire frame checksums and the
/// message-envelope checksum. Deterministic across runs, processes and
/// host byte orders.
std::uint64_t chunked_fnv1a64(std::span<const std::uint8_t> bytes);

/// Canonical byte serialisation of a layout: format tag, then every field
/// of the spec and the placed geometry, little-endian, doubles as IEEE-754
/// bit patterns, every vector length-prefixed. Identical layouts produce
/// identical bytes in any process on any run; any change to the geometry,
/// ops (inversion flags) or frequencies changes the bytes.
std::vector<std::uint8_t> canonical_layout_bytes(
    const sw::core::GateLayout& layout);

/// 64-bit hash of canonical_layout_bytes(layout).
std::uint64_t hash_layout(const sw::core::GateLayout& layout);

/// Canonical byte serialisation of a multi-stage ProgramSpec: a format tag
/// distinct from the layout form (so a program and a layout can never hash
/// or compare equal), then the primary input count and every stage's
/// GateSpec plus interconnect map, little-endian and length-prefixed like
/// the layout bytes. This is what program cache keys and the v3 wire frames
/// agree on across processes.
std::vector<std::uint8_t> canonical_program_bytes(
    const sw::wavesim::ProgramSpec& program);

/// 64-bit hash of canonical_program_bytes(program) — the program analogue
/// of hash_layout(), used as the v3 frame routing hash.
std::uint64_t hash_program(const sw::wavesim::ProgramSpec& program);

/// Collision-safe plan-cache key: the hash indexes the cache, the canonical
/// bytes back equality, so two distinct targets that collide on the 64-bit
/// hash still occupy distinct cache entries. Three forms, each under its own
/// format tag so no two can compare equal: a layout (its canonical bytes),
/// a program (its canonical bytes), and a gate named by its spec (the wire's
/// v2 target: the spec's fields plus the layout hash its client claims,
/// about 140 bytes for 8 channels).
class LayoutKey {
 public:
  LayoutKey() = default;

  static LayoutKey from(const sw::core::GateLayout& layout);
  static LayoutKey from(const sw::wavesim::ProgramSpec& program);
  static LayoutKey from(const sw::core::GateSpec& spec,
                        std::uint64_t layout_hash);

  std::uint64_t hash() const { return hash_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  friend bool operator==(const LayoutKey& a, const LayoutKey& b) {
    return a.hash_ == b.hash_ && a.bytes_ == b.bytes_;
  }

 private:
  std::uint64_t hash_ = 0;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace sw::serve
