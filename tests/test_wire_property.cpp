// Wire-format property tests: randomized frames round-trip bit-exactly,
// and hostile bytes — truncations, corrupt bodies, oversized length
// prefixes, flipped header fields — are rejected with the typed
// sw::util::Error (or decode to *some* well-formed frame for the header
// bytes the checksum deliberately does not cover) instead of crashing,
// over-allocating or reading out of bounds. Both payload decoders (the
// byte matrix and the bit-sliced columns) are held to that, and every wire
// codec flavour the host can run is checked against a bit-by-bit model of
// the packed rows and the columns. Every loop runs from a fixed seed so CI
// failures reproduce locally.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/gate_design.h"
#include "serve/layout_hash.h"
#include "serve/wire.h"
#include "serve/wire_simd.h"
#include "util/error.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"

// Global operator new replaced by a counting version, so a test can bound
// the largest single allocation a decode makes. Off unless a test arms it.
namespace {
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_allocation.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line: inlined into a caller, the free() of memory GCC knows came
// from operator new reads as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace sw::serve;
using sw::core::GateSpec;

/// A finite random double built from random mantissa/exponent bits: varied
/// magnitudes without NaN/inf (GateSpec equality would reject NaN).
double random_finite(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-40, 40);
  return std::ldexp(mantissa(rng), exponent(rng));
}

GateSpec random_spec(std::mt19937_64& rng) {
  GateSpec spec;
  spec.num_inputs = std::uniform_int_distribution<std::size_t>(1, 4)(rng);
  const std::size_t channels =
      std::uniform_int_distribution<std::size_t>(1, 6)(rng);
  for (std::size_t i = 0; i < channels; ++i) {
    spec.frequencies.push_back(1e10 * (1.0 + static_cast<double>(i)) +
                               random_finite(rng));
  }
  spec.transducer_width = random_finite(rng);
  spec.min_gap = random_finite(rng);
  spec.min_same_channel_spacing = random_finite(rng);
  spec.multiple_search = std::uniform_int_distribution<int>(-3, 7)(rng);
  if (std::bernoulli_distribution(0.5)(rng)) {
    for (std::size_t i = 0; i < channels; ++i) {
      spec.invert_output.push_back(
          std::bernoulli_distribution(0.5)(rng) ? 1 : 0);
    }
  }
  return spec;
}

SweepFrame random_frame(std::mt19937_64& rng) {
  SweepFrame frame;
  const bool request = std::bernoulli_distribution(0.5)(rng);
  frame.kind = request ? FrameKind::kRequest : FrameKind::kResponse;
  frame.layout_hash = rng();
  frame.word_offset = rng() % (std::uint64_t{1} << 48);
  frame.num_words = std::uniform_int_distribution<std::uint64_t>(0, 40)(rng);
  frame.num_cols = std::uniform_int_distribution<std::uint64_t>(1, 37)(rng);
  if (request) frame.spec = random_spec(rng);
  frame.matrix.resize(
      static_cast<std::size_t>(frame.num_words * frame.num_cols));
  std::bernoulli_distribution coin(0.5);
  for (auto& b : frame.matrix) b = coin(rng) ? 1 : 0;
  return frame;
}

void expect_equal(const SweepFrame& a, const SweepFrame& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.layout_hash, b.layout_hash);
  EXPECT_EQ(a.word_offset, b.word_offset);
  EXPECT_EQ(a.num_words, b.num_words);
  EXPECT_EQ(a.num_cols, b.num_cols);
  EXPECT_EQ(a.spec.has_value(), b.spec.has_value());
  if (a.spec && b.spec) {
    EXPECT_EQ(*a.spec, *b.spec);
  }
  EXPECT_EQ(a.matrix, b.matrix);
}

TEST(WireProperty, RandomFramesRoundTripBitExactly) {
  std::mt19937_64 rng(20260727);
  for (int iter = 0; iter < 200; ++iter) {
    const SweepFrame frame = random_frame(rng);
    const auto bytes = encode_frame(frame);
    const SweepFrame decoded = decode_frame(bytes);
    expect_equal(frame, decoded);
    // Canonical encoding: re-encoding the decode reproduces the bytes.
    EXPECT_EQ(encode_frame(decoded), bytes);
  }
}

TEST(WireProperty, NonBinaryCellsNormaliseToOne) {
  // The in-memory matrix contract is "nonzero means 1"; the packed wire
  // form cannot distinguish 1 from 7, so the round trip normalises.
  SweepFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.num_words = 3;
  frame.num_cols = 11;
  frame.matrix.assign(33, 0);
  for (std::size_t i = 0; i < frame.matrix.size(); i += 3) {
    frame.matrix[i] = static_cast<std::uint8_t>(1 + (i % 250));
  }
  const SweepFrame decoded = decode_frame(encode_frame(frame));
  for (std::size_t i = 0; i < frame.matrix.size(); ++i) {
    EXPECT_EQ(decoded.matrix[i], frame.matrix[i] != 0 ? 1 : 0);
  }
}

TEST(WireProperty, EveryTruncationIsRejected) {
  std::mt19937_64 rng(4242);
  const SweepFrame frame = random_frame(rng);
  const auto bytes = encode_frame(frame);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)decode_frame({bytes.data(), keep}), sw::util::Error)
        << "decode accepted a frame truncated to " << keep << " bytes";
  }
}

TEST(WireProperty, EveryBodyByteFlipIsRejected) {
  // Everything from the spec block onward is checksummed: any single-bit
  // corruption there must be caught.
  std::mt19937_64 rng(1717);
  SweepFrame frame = random_frame(rng);
  frame.num_words = std::max<std::uint64_t>(frame.num_words, 1);
  frame.matrix.resize(
      static_cast<std::size_t>(frame.num_words * frame.num_cols), 1);
  const auto bytes = encode_frame(frame);
  ASSERT_GT(bytes.size(), 64u);
  for (std::size_t pos = 64; pos < bytes.size(); ++pos) {
    for (const std::uint8_t flip : {0x01, 0x80}) {
      auto bad = bytes;
      bad[pos] ^= flip;
      EXPECT_THROW((void)decode_frame(bad), sw::util::Error)
          << "body flip at byte " << pos << " went undetected";
    }
  }
  // The stored checksum itself (bytes 56..63) must also disagree when
  // flipped.
  for (std::size_t pos = 56; pos < 64; ++pos) {
    auto bad = bytes;
    bad[pos] ^= 0x01;
    EXPECT_THROW((void)decode_frame(bad), sw::util::Error);
  }
}

TEST(WireProperty, HeaderFlipsNeverCrashOrOverallocate) {
  // Identity fields before the checksum (magic, version, kind, hash,
  // offset, dimensions, sizes) are validated structurally rather than by
  // checksum: a flip must either throw the typed error or still decode to
  // a well-formed frame (hash/offset flips change metadata the higher
  // layers re-validate). What it must never do is crash, hang or drive a
  // huge allocation — ASan/UBSan legs enforce the "never" here.
  std::mt19937_64 rng(55);
  const SweepFrame frame = random_frame(rng);
  const auto bytes = encode_frame(frame);
  int rejected = 0;
  for (std::size_t pos = 0; pos < 56; ++pos) {
    for (const std::uint8_t flip : {0x01, 0x10, 0x80}) {
      auto bad = bytes;
      bad[pos] ^= flip;
      try {
        const SweepFrame decoded = decode_frame(bad);
        // Accepted: must still be internally consistent.
        EXPECT_EQ(decoded.matrix.size(),
                  decoded.num_words * decoded.num_cols);
      } catch (const sw::util::Error&) {
        ++rejected;
      }
    }
  }
  // Magic, version and kind flips alone guarantee a healthy rejection
  // count; a suspiciously low number means validation fell off.
  EXPECT_GE(rejected, 24);
}

TEST(WireProperty, OversizedLengthPrefixesAreRejectedCheaply) {
  std::mt19937_64 rng(99);
  const SweepFrame frame = random_frame(rng);
  auto bytes = encode_frame(frame);
  const auto stamp_u64 = [&](std::size_t offset, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
  };
  auto original = bytes;

  stamp_u64(24, std::uint64_t{1} << 40);  // num_words beyond the cap
  EXPECT_THROW((void)decode_frame(bytes), sw::util::Error);
  bytes = original;

  stamp_u64(32, std::uint64_t{1} << 40);  // num_cols beyond the cap
  EXPECT_THROW((void)decode_frame(bytes), sw::util::Error);
  bytes = original;

  stamp_u64(40, std::uint64_t{1} << 40);  // spec_size beyond the cap
  EXPECT_THROW((void)decode_frame(bytes), sw::util::Error);
  bytes = original;

  stamp_u64(48, ~std::uint64_t{0});  // payload_size inconsistent / absurd
  EXPECT_THROW((void)decode_frame(bytes), sw::util::Error);
}

void stamp_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Recompute the checksums a hostile sender would: the v3 program block's
/// own trailing checksum (when `program_block`), then the frame checksum
/// over spec block + payload.
void reseal(std::vector<std::uint8_t>& bytes, bool program_block) {
  constexpr std::size_t kHeader = 64;
  std::size_t spec_size = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    spec_size |= static_cast<std::size_t>(bytes[40 + i]) << (8 * i);
  }
  if (program_block) {
    stamp_u64(bytes, kHeader + spec_size - 8,
              chunked_fnv1a64({bytes.data() + kHeader, spec_size - 8}));
  }
  stamp_u64(bytes, 56,
            chunked_fnv1a64({bytes.data() + kHeader, bytes.size() - kHeader}));
}

TEST(WireProperty, HostileCountsAllocateNoMoreThanTheFrameCarries) {
  // Minimal well-formed requests: one input on one channel, no words.
  GateSpec spec;
  spec.num_inputs = 1;
  spec.frequencies = {1e10};
  SweepFrame v2;
  v2.num_cols = 1;
  v2.spec = spec;
  sw::wavesim::ProgramSpec program;
  program.num_primary_inputs = 1;
  program.stages.push_back(
      {spec, {{sw::wavesim::SlotSource::Kind::kPrimary, 0, 0, false}}});
  SweepFrame v3;
  v3.num_cols = 1;
  v3.program = program;
  const auto v2_bytes = encode_frame(v2);
  const auto v3_bytes = encode_frame(v3);
  ASSERT_EQ(decode_frame(v3_bytes).program, program);

  // Byte offsets of the count fields. The v2 spec block starts after the
  // 64-byte header: num_inputs, frequency count, one frequency, three
  // doubles, multiple_search, invert flag count. The v3 block starts with
  // u16 format, u64 primary inputs, u64 stage count, then stage 0's spec
  // fields (same layout) and its u64 source count.
  constexpr std::size_t kV2Frequencies = 72;
  constexpr std::size_t kV2Flags = 120;
  constexpr std::size_t kV3Stages = 74;
  constexpr std::size_t kV3Frequencies = 90;
  constexpr std::size_t kV3Flags = 138;
  constexpr std::size_t kV3Sources = 146;
  constexpr std::uint64_t kMillion = std::uint64_t{1} << 20;
  struct Hostile {
    const char* what;
    bool program;
    std::size_t at;
    std::uint64_t count;
  };
  const Hostile cases[] = {
      {"v2 frequency count", false, kV2Frequencies, kMillion},
      {"v2 invert flag count", false, kV2Flags, kMillion},
      {"v3 stage count", true, kV3Stages, 4096},
      {"v3 stage frequency count", true, kV3Frequencies, kMillion},
      {"v3 stage invert flag count", true, kV3Flags, kMillion},
      {"v3 source count", true, kV3Sources, kMillion},
  };
  for (const Hostile& c : cases) {
    auto bytes = c.program ? v3_bytes : v2_bytes;
    ASSERT_LT(bytes.size(), 256u);
    stamp_u64(bytes, c.at, c.count);
    reseal(bytes, c.program);
    g_largest_allocation = 0;
    g_track_allocations = true;
    bool rejected = false;
    try {
      (void)decode_frame(bytes);
    } catch (const sw::util::Error&) {
      rejected = true;
    }
    g_track_allocations = false;
    EXPECT_TRUE(rejected) << c.what;
    EXPECT_LE(g_largest_allocation.load(), std::size_t{64} * 1024)
        << c.what << ": a " << bytes.size()
        << "-byte frame drove a large allocation";
  }
}

TEST(WireProperty, ShapeContractsAreEnforcedOnEncode) {
  SweepFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.num_words = 4;
  frame.num_cols = 3;
  frame.matrix.assign(11, 0);  // should be 12
  EXPECT_THROW((void)encode_frame(frame), sw::util::Error);

  frame.matrix.assign(12, 0);
  frame.spec = GateSpec{};  // responses must not carry a spec
  EXPECT_THROW((void)encode_frame(frame), sw::util::Error);

  frame.spec.reset();
  frame.kind = FrameKind::kRequest;  // requests must carry one
  EXPECT_THROW((void)encode_frame(frame), sw::util::Error);
}

// ------------------------------------------------------- codec flavours --

using detail::WireCodec;
using sw::wavesim::kernels::column_words;

/// The payload's two in-memory shapes, built bit by bit from one random
/// matrix: packed rows as the wire carries them, and columns as the
/// kernels read them.
struct PayloadModel {
  std::size_t num_words = 0;
  std::size_t num_cols = 0;
  std::vector<std::uint8_t> matrix;
  std::vector<std::uint8_t> packed;
  std::vector<std::uint64_t> columns;

  PayloadModel(std::size_t words, std::size_t cols, std::mt19937_64& rng)
      : num_words(words), num_cols(cols), matrix(words * cols),
        packed(words * ((cols + 7) / 8)),
        columns(cols * column_words(words)) {
    const std::size_t row_bytes = (cols + 7) / 8;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t c = 0; c < cols; ++c) {
        const bool bit = (rng() & 1) != 0;
        matrix[w * cols + c] = bit ? 1 : 0;
        if (!bit) continue;
        packed[w * row_bytes + c / 8] |=
            static_cast<std::uint8_t>(1u << (c % 8));
        columns[c * column_words(words) + w / 64] |= std::uint64_t{1}
                                                     << (w % 64);
      }
    }
  }
};

/// Column counts 1-64 (every row width the tile transposes take), then
/// wider rows that need the block fallback, one of them split across
/// fallback chunks.
std::vector<std::size_t> codec_column_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t c = 1; c <= 64; ++c) counts.push_back(c);
  for (const std::size_t c : {65, 72, 100, 255, 300}) counts.push_back(c);
  return counts;
}

/// Word counts around the 8-row tiles and 64-word groups, partial last
/// groups included, and past one fallback block.
constexpr std::size_t kCodecWordCounts[] = {0,  1,   7,   8,   63,  64,
                                            65, 127, 130, 600, 1025};

TEST(WireCodecEquivalence, ListsThePortableFlavourFirstAndPicksOneOfThem) {
  const auto& codecs = detail::wire_codecs();
  ASSERT_FALSE(codecs.empty());
  EXPECT_STREQ(codecs.front().name, "scalar");
  const WireCodec& pick = detail::wire_codec();
  bool listed = false;
  for (const WireCodec& c : codecs) listed = listed || &c == &pick;
  EXPECT_TRUE(listed);
  // The pick follows the evaluation kernel's rung.
  const std::string rung = sw::wavesim::kernels::active_kernel().name;
  EXPECT_EQ(std::string(pick.name).substr(0, rung.size()), rung);
}

TEST(WireCodecEquivalence, EveryFlavourTransposesBitExactly) {
  std::mt19937_64 rng(190719);
  for (const std::size_t cols : codec_column_counts()) {
    for (const std::size_t words : kCodecWordCounts) {
      const PayloadModel model(words, cols, rng);
      const std::size_t stride = column_words(words);
      for (const WireCodec& codec : detail::wire_codecs()) {
        // Canaries around the output catch writes past either end.
        constexpr std::uint64_t kCanary = 0xA5A5A5A5A5A5A5A5ull;
        std::vector<std::uint64_t> got(model.columns.size() + 2, kCanary);
        codec.to_columns(codec, model.packed.data(), words, cols,
                         got.data() + 1, stride);
        EXPECT_EQ(got.front(), kCanary);
        EXPECT_EQ(got.back(), kCanary);
        EXPECT_TRUE(std::equal(model.columns.begin(), model.columns.end(),
                               got.begin() + 1))
            << codec.name << ": rows to columns, " << cols << " columns, "
            << words << " words";

        // Bits past num_words are not read: set them all.
        std::vector<std::uint64_t> dirty = model.columns;
        if (words % 64 != 0) {
          for (std::size_t c = 0; c < cols; ++c) {
            dirty[c * stride + stride - 1] |= ~std::uint64_t{0}
                                              << (words % 64);
          }
        }
        std::vector<std::uint8_t> packed(model.packed.size() + 2, 0x5A);
        codec.to_packed(codec, dirty.data(), stride, words, cols,
                        packed.data() + 1);
        EXPECT_EQ(packed.front(), 0x5A);
        EXPECT_EQ(packed.back(), 0x5A);
        EXPECT_TRUE(std::equal(model.packed.begin(), model.packed.end(),
                               packed.begin() + 1))
            << codec.name << ": columns to rows, " << cols << " columns, "
            << words << " words";
      }
    }
  }
}

TEST(WireCodecEquivalence, EveryFlavourPacksAndUnpacksFlatStreams) {
  std::mt19937_64 rng(4711);
  const WireCodec& portable = detail::wire_codecs().front();
  for (const std::size_t bytes : {8, 16, 64, 256, 1000, 4096}) {
    std::vector<std::uint8_t> cells(bytes * 8);
    // Nonzero cells of any value pack as 1.
    for (auto& c : cells) {
      c = (rng() & 3) == 0 ? 0 : static_cast<std::uint8_t>(rng());
    }
    std::vector<std::uint8_t> want(bytes);
    const std::size_t bulk = bytes & ~(portable.flat.step - 1);
    portable.flat.pack(cells.data(), bulk, want.data());
    for (const WireCodec& codec : detail::wire_codecs()) {
      const std::size_t n = bytes & ~(codec.flat.step - 1);
      std::vector<std::uint8_t> packed(bytes);
      codec.flat.pack(cells.data(), n, packed.data());
      EXPECT_TRUE(std::equal(want.begin(), want.begin() + n, packed.begin()))
          << codec.name;
      std::vector<std::uint8_t> back(n * 8);
      codec.flat.unpack(packed.data(), n, back.data());
      for (std::size_t i = 0; i < n * 8; ++i) {
        ASSERT_EQ(back[i], cells[i] != 0 ? 1 : 0)
            << codec.name << " cell " << i;
      }
    }
  }
}

TEST(WireCodecEquivalence, BothDecodersYieldTheSamePayload) {
  std::mt19937_64 rng(881);
  for (const std::size_t cols : {1, 5, 8, 24, 37, 64, 70}) {
    for (const std::size_t words : {1, 64, 100, 4096}) {
      const PayloadModel model(words, cols, rng);
      SweepFrame frame;
      frame.kind = FrameKind::kResponse;
      frame.num_words = words;
      frame.num_cols = cols;
      frame.matrix = model.matrix;
      const auto bytes = encode_frame(frame);
      const PackedFrame packed = validate_frame(bytes);
      EXPECT_EQ(unpack_columns(packed), model.columns)
          << cols << " x " << words;
      EXPECT_EQ(decode_frame(bytes).matrix, model.matrix);
      // Encoding from the columns gives the same bytes.
      SweepFrameView view = as_view(frame);
      view.matrix = {};
      view.columns = model.columns;
      std::vector<std::uint8_t> again;
      encode_frame_into(view, again);
      EXPECT_EQ(again, bytes) << cols << " x " << words;
    }
  }
}

TEST(WireCodecEquivalence, SetPaddingBitsAreRejectedByBothDecoders) {
  std::mt19937_64 rng(3);
  for (const std::size_t cols : {1, 3, 9, 23, 61, 71}) {
    for (const std::size_t words : {1, 2, 65}) {
      const PayloadModel model(words, cols, rng);
      SweepFrame frame;
      frame.kind = FrameKind::kResponse;
      frame.num_words = words;
      frame.num_cols = cols;
      frame.matrix = model.matrix;
      const auto good = encode_frame(frame);
      const std::size_t row_bytes = (cols + 7) / 8;
      // The last row's highest padding bit, then the first row's lowest.
      for (const std::size_t at : {good.size() - 1, 64 + row_bytes - 1}) {
        const std::uint8_t bit =
            at + 1 == good.size()
                ? std::uint8_t{0x80}
                : static_cast<std::uint8_t>(1u << (cols % 8));
        auto bad = good;
        bad[at] |= bit;
        reseal(bad, false);
        EXPECT_THROW((void)decode_frame(bad), sw::util::Error)
            << cols << " x " << words;
        EXPECT_THROW((void)unpack_columns(validate_frame(bad)), sw::util::Error)
            << cols << " x " << words;
      }
    }
  }
}

TEST(WireCodecEquivalence, HostileCountsAllocateNoMoreThanTheFrameCarries) {
  // The hostile spec and program counts of the test above, through the
  // column decoder: validation rejects them before any payload is sized.
  GateSpec spec;
  spec.num_inputs = 1;
  spec.frequencies = {1e10};
  SweepFrame v2;
  v2.num_cols = 1;
  v2.spec = spec;
  sw::wavesim::ProgramSpec program;
  program.num_primary_inputs = 1;
  program.stages.push_back(
      {spec, {{sw::wavesim::SlotSource::Kind::kPrimary, 0, 0, false}}});
  SweepFrame v3;
  v3.num_cols = 1;
  v3.program = program;
  const auto v2_bytes = encode_frame(v2);
  const auto v3_bytes = encode_frame(v3);
  struct Hostile {
    bool program;
    std::size_t at;
    std::uint64_t count;
  };
  constexpr std::uint64_t kMillion = std::uint64_t{1} << 20;
  const Hostile cases[] = {{false, 72, kMillion}, {false, 120, kMillion},
                           {true, 74, 4096},      {true, 90, kMillion},
                           {true, 138, kMillion}, {true, 146, kMillion}};
  for (const Hostile& c : cases) {
    auto bytes = c.program ? v3_bytes : v2_bytes;
    stamp_u64(bytes, c.at, c.count);
    reseal(bytes, c.program);
    g_largest_allocation = 0;
    g_track_allocations = true;
    bool rejected = false;
    try {
      (void)unpack_columns(validate_frame(bytes));
    } catch (const sw::util::Error&) {
      rejected = true;
    }
    g_track_allocations = false;
    EXPECT_TRUE(rejected) << "count at byte " << c.at;
    EXPECT_LE(g_largest_allocation.load(), std::size_t{64} * 1024)
        << "count at byte " << c.at << " drove a large allocation";
  }
}

}  // namespace
