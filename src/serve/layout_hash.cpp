#include "serve/layout_hash.h"

#include "serve/byteio.h"
#include "wavesim/eval_program.h"

namespace sw::serve {

namespace {

using detail::ByteWriter;

// Bumped whenever the serialisation below changes shape, so bytes from two
// revisions of the canonical form can never compare equal by accident.
constexpr std::uint64_t kCanonicalFormatTag = 0x73776c3176310001ull;  // "swl1v1"+rev
// Program form: a different tag namespace entirely, so program bytes can
// never alias layout bytes of any revision.
constexpr std::uint64_t kProgramFormatTag = 0x7377707276310001ull;  // "swprv1"+rev
// Spec form (a gate named by its spec and claimed layout hash): a cache key
// only, never hashed across processes.
constexpr std::uint64_t kSpecFormatTag = 0x7377737076310001ull;  // "swspv1"+rev

void append_gate_spec(ByteWriter& w, const sw::core::GateSpec& spec) {
  w.u64(spec.num_inputs);
  w.u64(spec.frequencies.size());
  for (const double f : spec.frequencies) w.f64(f);
  w.f64(spec.transducer_width);
  w.f64(spec.min_gap);
  w.f64(spec.min_same_channel_spacing);
  w.i64(spec.multiple_search);
  w.u64(spec.invert_output.size());
  for (const std::uint8_t b : spec.invert_output) w.u8(b ? 1 : 0);
}

}  // namespace

std::uint64_t chunked_fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = kFnvOffsetBasis;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    h ^= detail::load_u64(bytes.data() + i);
    h *= kFnvPrime;
  }
  std::uint64_t tail = 0;
  for (int s = 0; i < bytes.size(); ++i, s += 8) {
    tail |= static_cast<std::uint64_t>(bytes[i]) << s;
  }
  h ^= tail;
  h *= kFnvPrime;
  // Mixing in the length keeps zero-padded tails from aliasing ("\1" vs
  // "\1\0"), which plain chunk folding would otherwise allow.
  h ^= static_cast<std::uint64_t>(bytes.size());
  h *= kFnvPrime;
  return h;
}

std::vector<std::uint8_t> canonical_layout_bytes(
    const sw::core::GateLayout& layout) {
  const auto& spec = layout.spec;
  std::vector<std::uint8_t> out;
  const std::size_t bound =
      128 + 8 * (spec.frequencies.size() + layout.wavelengths.size() +
                 layout.multiple.size() + layout.spacing.size()) +
      spec.invert_output.size() + 32 * layout.sources.size() +
      17 * layout.detectors.size();
  ByteWriter w(out, bound);

  w.u64(kCanonicalFormatTag);

  w.u64(spec.num_inputs);
  w.u64(spec.frequencies.size());
  for (const double f : spec.frequencies) w.f64(f);
  w.f64(spec.transducer_width);
  w.f64(spec.min_gap);
  w.f64(spec.min_same_channel_spacing);
  w.i64(spec.multiple_search);
  w.u64(spec.invert_output.size());
  // Normalise the flags so any nonzero truthy value hashes identically.
  for (const std::uint8_t b : spec.invert_output) w.u8(b ? 1 : 0);

  w.u64(layout.wavelengths.size());
  for (const double wl : layout.wavelengths) w.f64(wl);
  w.u64(layout.multiple.size());
  for (const int m : layout.multiple) w.i64(m);
  w.u64(layout.spacing.size());
  for (const double d : layout.spacing) w.f64(d);

  w.u64(layout.sources.size());
  for (const auto& s : layout.sources) {
    w.u64(s.channel);
    w.u64(s.input);
    w.f64(s.x);
    w.f64(s.amplitude);
  }
  w.u64(layout.detectors.size());
  for (const auto& d : layout.detectors) {
    w.u64(d.channel);
    w.f64(d.x);
    w.u8(d.inverted ? 1 : 0);
  }
  w.finish();
  return out;
}

std::uint64_t hash_layout(const sw::core::GateLayout& layout) {
  return chunked_fnv1a64(canonical_layout_bytes(layout));
}

std::vector<std::uint8_t> canonical_program_bytes(
    const sw::wavesim::ProgramSpec& program) {
  std::vector<std::uint8_t> out;
  std::size_t bound = 32;
  for (const auto& stage : program.stages) {
    bound += 128 + 8 * stage.gate.frequencies.size() +
             stage.gate.invert_output.size() + 18 * stage.sources.size();
  }
  ByteWriter w(out, bound);

  w.u64(kProgramFormatTag);
  w.u64(program.num_primary_inputs);
  w.u64(program.stages.size());
  for (const auto& stage : program.stages) {
    append_gate_spec(w, stage.gate);
    w.u64(stage.sources.size());
    for (const auto& src : stage.sources) {
      w.u8(static_cast<std::uint8_t>(src.kind));
      w.u64(src.stage);
      w.u64(src.index);
      w.u8(src.negated ? 1 : 0);
    }
  }
  w.finish();
  return out;
}

std::uint64_t hash_program(const sw::wavesim::ProgramSpec& program) {
  return chunked_fnv1a64(canonical_program_bytes(program));
}

LayoutKey LayoutKey::from(const sw::core::GateLayout& layout) {
  LayoutKey key;
  key.bytes_ = canonical_layout_bytes(layout);
  key.hash_ = chunked_fnv1a64(key.bytes_);
  return key;
}

LayoutKey LayoutKey::from(const sw::wavesim::ProgramSpec& program) {
  LayoutKey key;
  key.bytes_ = canonical_program_bytes(program);
  key.hash_ = chunked_fnv1a64(key.bytes_);
  return key;
}

LayoutKey LayoutKey::from(const sw::core::GateSpec& spec,
                          std::uint64_t layout_hash) {
  LayoutKey key;
  // Nine u64 fields beside the frequencies and the inversion flags.
  ByteWriter w(key.bytes_, 8 * (9 + spec.frequencies.size()) +
                               spec.invert_output.size());
  w.u64(kSpecFormatTag);
  append_gate_spec(w, spec);
  w.u64(layout_hash);
  w.finish();
  key.hash_ = chunked_fnv1a64(key.bytes_);
  return key;
}

}  // namespace sw::serve
