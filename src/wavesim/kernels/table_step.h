// The table decode every kernel runs (Kernel::eval_tables): each detector's
// decision diagram (EvalPlan::table_muxes) as a straight-line list of muxes
// over its slot columns, kTileWords column u64s (64 words each) per pass
// over the list. Everything here is TU-local (an anonymous namespace): each
// kernel TU instantiates it with its own lane type under its own ISA flags,
// so no AVX-512-encoded copy can stand in for the AVX2 one at link time,
// and the kernel SW_EVAL_KERNEL picks also picks the instructions of its
// table decode.
//
// A lane type provides V, kWords, splat(u64), mux(x, lo, hi) (hi where x
// has a 1, lo where it has a 0), and load(p, n) / store(p, v, n) of the
// first n <= kWords u64s at p, touching no u64 past them: a column holds
// exactly column_words(num_words) u64s, so the last group may be partial.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"

namespace sw::wavesim::kernels::detail {
namespace {

/// One column u64 per value: 64 words per mux in plain integer ops.
struct U64Lanes {
  using V = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static V load(const std::uint64_t* p, std::size_t) { return *p; }
  static void store(std::uint64_t* p, V v, std::size_t) { *p = v; }
  static V splat(std::uint64_t x) { return x; }
  static V mux(V x, V lo, V hi) { return lo ^ ((lo ^ hi) & x); }
};

/// Column u64s each mux covers per step: 1024 words, EvalProgram's block,
/// so one pass over a detector's mux list serves kTileWords / kWords vector
/// ops per mux.
constexpr std::size_t kTileWords = kBlockColumnWords;

/// Diagram values that fit the stack: a majority of m inputs needs
/// (m + 1)^2 / 4 + 2, so every odd m up to 13. Larger diagrams use the
/// heap: at most kMaxTableMuxes + 2 values, about 64 KiB per call.
constexpr std::size_t kStackValues = 64;

/// Every detector's diagram on the n <= kTileWords column u64s from u64 g
/// (kWhole: exactly kTileWords). Value r of the diagram occupies vectors
/// [r * kVectors, (r + 1) * kVectors) of `values`: r = 0 and 1 are the
/// constants, mux i writes value i + 2.
template <typename Lanes, bool kWhole>
void run_tile(const EvalPlan& plan, const std::uint64_t* const* slots,
              std::size_t g, std::size_t n, std::uint64_t* out,
              std::size_t out_stride, typename Lanes::V* values) {
  using V = typename Lanes::V;
  constexpr std::size_t kVectors = kTileWords / Lanes::kWords;
  const std::size_t whole = kWhole ? kVectors : n / Lanes::kWords;
  const std::size_t rest = kWhole ? 0 : n % Lanes::kWords;
  const auto det_channel = plan.detector_channels();
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    V* next = values + 2 * kVectors;
    for (const TableMux& m : plan.table_muxes(d)) {
      const std::uint64_t* x = slots[m.slot] + g;
      const V* lo = values + m.lo * kVectors;
      const V* hi = values + m.hi * kVectors;
#pragma GCC unroll 16
      for (std::size_t v = 0; v < whole; ++v) {
        next[v] = Lanes::mux(Lanes::load(x + v * Lanes::kWords, Lanes::kWords),
                             lo[v], hi[v]);
      }
      if (rest != 0) {
        next[whole] = Lanes::mux(
            Lanes::load(x + whole * Lanes::kWords, rest), lo[whole],
            hi[whole]);
      }
      next += kVectors;
    }
    std::uint64_t* column = out + det_channel[d] * out_stride + g;
    const V* root = values + plan.table_root(d) * kVectors;
#pragma GCC unroll 16
    for (std::size_t v = 0; v < whole; ++v) {
      Lanes::store(column + v * Lanes::kWords, root[v], Lanes::kWords);
    }
    if (rest != 0) {
      Lanes::store(column + whole * Lanes::kWords, root[whole], rest);
    }
  }
}

/// Kernel::eval_tables over a tabulated plan: whole tiles of kTileWords
/// column u64s, then the last, partial tile. A request narrower than one
/// vector (the 24-word frames of small served requests) runs on u64s,
/// without the masked loads.
template <typename Lanes>
void eval_tables(const EvalPlan& plan, const std::uint64_t* const* slots,
                 std::size_t num_words, std::uint64_t* out,
                 std::size_t out_stride) {
  using V = typename Lanes::V;
  if constexpr (Lanes::kWords > 1) {
    if (column_words(num_words) < Lanes::kWords) {
      eval_tables<U64Lanes>(plan, slots, num_words, out, out_stride);
      return;
    }
  }
  constexpr std::size_t kVectors = kTileWords / Lanes::kWords;
  const std::size_t count = (plan.max_table_muxes() + 2) * kVectors;
  std::array<V, kStackValues * kVectors> stack;
  std::vector<V> heap(count > stack.size() ? count : 0);
  V* values = count > stack.size() ? heap.data() : stack.data();
  // Values [0, count) are all a diagram reads: the two constants, then one
  // per mux, each written before any later mux reads it.
  std::fill_n(values, count, Lanes::splat(0));
  std::fill_n(values + kVectors, kVectors, Lanes::splat(~std::uint64_t{0}));
  const std::size_t groups = column_words(num_words);
  std::size_t g = 0;
  for (; g + kTileWords <= groups; g += kTileWords) {
    run_tile<Lanes, true>(plan, slots, g, kTileWords, out, out_stride, values);
  }
  if (g < groups) {
    run_tile<Lanes, false>(plan, slots, g, groups - g, out, out_stride,
                           values);
  }
}

}  // namespace
}  // namespace sw::wavesim::kernels::detail
