// Batched gate evaluation: many input words through one gate layout, by
// phasor sum. The reference decode.
//
// The scalar path (DataParallelGate::evaluate) recomputes, for every word,
// the per-source dispersion lookups and the exp/cos/sin of each source's
// propagated phasor — yet none of that depends on the input bits. For a
// fixed layout the contribution of source j to detector d is one of exactly
// two complex constants (launch phase 0 or pi). BatchEvaluator is the thin
// orchestrator over that observation: it freezes the constants once in a
// SoA EvalPlan (eval_plan.h), sums every word's constants in
// kernels::eval_bits, and fans the word batch across a ThreadPool. Decoded
// bits are bit-for-bit identical to the scalar path: the plan's constants
// are produced by the same arithmetic from the same sources (both match
// frequencies within kDefaultFreqTol, which is not configurable), and
// eval_bits keeps the scalar per-detector accumulation order word by word.
// It decodes bits only; a word's phase, amplitude and margin come from
// DataParallelGate::evaluate.
//
// It decodes any layout, tabulated or not, in portable code on every host:
// it is the phasor reference the benches, the examples and the
// benchmark's oracles compare against, and the tables of EvalProgram equal
// it bit for bit. EvalProgram(layout), not BatchEvaluator, is the fast
// in-process path.
//
// The phasor sum reads bit-sliced columns (kernels/kernel.h), and
// evaluate_bits keeps its row-major byte API by converting at the edge:
// block by block (1024 words), a kernel's to_columns turns the caller's
// rows into one column per slot, eval_bits writes one column per channel,
// and to_rows writes those back as the caller's result rows. Pool chunks
// split at whole 64-word column u64s, so a batch of at most 64 words runs
// on the caller. EvalProgram uses the same edge converter, only at the
// ends of its cascade.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/gate.h"
#include "util/thread_pool.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"

namespace sw::wavesim {

struct BatchOptions {
  /// Worker count; 0 selects one per CPU the process may run on (see
  /// util::ThreadPool).
  std::size_t num_threads = 0;
};

class BatchEvaluator {
 public:
  /// Builds the EvalPlan from the gate's layout. The gate (and its engine)
  /// must outlive the evaluator. The engine is only consulted during plan
  /// construction, never in the per-word hot loop, so evaluate_bits on a
  /// constructed evaluator is safe to call concurrently. Construction is
  /// thread-safe too: the engine's memoisation cache is mutex-guarded, so
  /// several threads may build evaluators against one shared WaveEngine.
  explicit BatchEvaluator(const sw::core::DataParallelGate& gate,
                          BatchOptions options = {});

  const sw::core::DataParallelGate& gate() const { return *gate_; }
  /// The frozen SoA plan eval_bits sums.
  const EvalPlan& plan() const { return plan_; }
  std::size_t num_threads() const { return pool_.size(); }

  /// Input slots per word: one per (channel, input).
  std::size_t slot_count() const { return plan_.slot_count(); }

  /// Decodes the logic bits of a batch by phasor sum, converting rows
  /// through the active kernel's edge converter. `bits` is a
  /// row-major num_words x slot_count() matrix (one byte per bit, nonzero
  /// = 1); the bit of input slot `input` on channel `channel` lives at
  /// column channel * num_inputs + input. Returns a row-major num_words x
  /// channel-count matrix of decoded output bits. The decode is exactly
  /// decide_phase's threshold (phase closer to pi than to 0, i.e. Re < 0)
  /// without the polar conversion, so bits match DataParallelGate::evaluate
  /// bit-for-bit. Rejects a `bits` span whose size is not num_words *
  /// slot_count(), including when that product would overflow size_t.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;

  /// Same, through an explicit kernel's edge converter (tests and benches
  /// compare converters side by side; the decode is eval_bits either way).
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

 private:
  const sw::core::DataParallelGate* gate_;
  EvalPlan plan_;
  mutable sw::util::ThreadPool pool_;
};

namespace detail {

/// The block loop of BatchEvaluator::evaluate_bits and EvalProgram, over
/// the words of 64-word column groups [first_group, last_group) of a
/// num_words batch, on the calling thread. It allocates one zeroed table of
/// `num_columns` columns of `stride` u64s (at most
/// kernels::kBlockColumnWords, column k at columns + k * stride) and room
/// for `num_inputs` slot pointers, both reused by each block, and
/// block(begin, end, columns, stride, inputs) runs once per block of at
/// most stride * 64 words. BatchEvaluator splits a batch across its pool
/// at whole groups, so no two threads write one u64.
template <typename Block>
void for_each_block(std::size_t num_words, std::size_t first_group,
                    std::size_t last_group, std::size_t num_columns,
                    std::size_t num_inputs, const Block& block) {
  const std::size_t stride =
      std::min(kernels::kBlockColumnWords, last_group - first_group);
  std::vector<std::uint64_t> columns(num_columns * stride);
  std::vector<const std::uint64_t*> inputs(num_inputs);
  const std::size_t end = std::min(last_group * 64, num_words);
  for (std::size_t begin = first_group * 64; begin < end;
       begin += stride * 64) {
    block(begin, std::min(begin + stride * 64, end), columns.data(), stride,
          inputs.data());
  }
}

}  // namespace detail

}  // namespace sw::wavesim
