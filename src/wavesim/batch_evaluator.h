// Batched gate evaluation: many input words through one gate layout.
//
// The scalar path (DataParallelGate::evaluate) recomputes, for every word,
// the per-source dispersion lookups and the exp/cos/sin of each source's
// propagated phasor — yet none of that depends on the input bits. For a
// fixed layout the contribution of source j to detector d is one of exactly
// two complex constants (launch phase 0 or pi). BatchEvaluator is the thin
// orchestrator over that observation: the frozen constants live in a SoA
// EvalPlan (eval_plan.h), every per-word path — the packed evaluate_bits
// decode *and* the full ChannelResult evaluate/evaluate_with paths — runs
// in a runtime-dispatched kernel (kernels/kernel.h — scalar reference,
// AVX2 or AVX-512, SW_EVAL_KERNEL overrides), and the word batch fans
// across a ThreadPool. Decoded results are bit-for-bit identical to the
// scalar path: the plan's constants are produced by the same arithmetic,
// and every kernel preserves the scalar per-detector accumulation order
// word by word.
//
// The kernels decode bit-sliced columns (kernels/kernel.h), and
// evaluate_bits keeps its row-major byte API by converting at the edge:
// block by block (1024 words), the kernel's to_columns turns the caller's
// rows into one column per slot, eval_bits writes one column per channel,
// and to_rows writes those back as the caller's result rows. Pool chunks
// split at whole 64-word column u64s. EvalProgram uses the same edge
// converter and kernel entry, only at the ends of its cascade.
//
// Precision: BatchOptions::precision (default kAuto -> SW_EVAL_PRECISION /
// f64) asks for the single-precision plan variant on the packed
// evaluate_bits path — twice the words per register — which the plan
// grants *per detector* after its build-time margin analysis proves no
// decode can flip (see EvalPlan): the proved detectors accumulate in f32,
// the rest in f64, within the kernel's one eval_bits; with none proved the
// plan is the double plan and effective_precision() says so. The
// ChannelResult paths always accumulate in double: phase/amplitude/margin
// are analog readouts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/gate.h"
#include "util/thread_pool.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"

namespace sw::wavesim {

struct BatchOptions {
  /// Worker count; 0 selects std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Relative frequency tolerance for source/detector matching; defaults
  /// to the scalar path's tolerance, which bit-exact equivalence requires.
  double freq_tol = kDefaultFreqTol;
  /// Requested evaluation precision for the packed evaluate_bits path.
  /// kAuto defers to SW_EVAL_PRECISION (default f64); kFloat32 is granted
  /// per layout by the plan's margin analysis, else falls back to f64.
  Precision precision = Precision::kAuto;
};

class BatchEvaluator {
 public:
  /// Builds the EvalPlan from the gate's layout. The gate (and its engine)
  /// must outlive the evaluator. The engine is only consulted during plan
  /// construction, never in the per-word hot loop, so the evaluate* methods
  /// of a constructed evaluator are safe to call concurrently. Construction
  /// is thread-safe too: the engine's memoisation cache is mutex-guarded,
  /// so several threads may build evaluators against one shared WaveEngine.
  explicit BatchEvaluator(const sw::core::DataParallelGate& gate,
                          BatchOptions options = {});

  /// Adopts an already-built plan instead of rebuilding it, so several
  /// evaluators over one layout can share it. The plan must have been
  /// built from this gate's layout with options.freq_tol and
  /// options.precision.
  BatchEvaluator(const sw::core::DataParallelGate& gate,
                 std::shared_ptr<const EvalPlan> plan,
                 BatchOptions options = {});

  const sw::core::DataParallelGate& gate() const { return *gate_; }
  /// The frozen SoA plan the kernels evaluate against.
  const EvalPlan& plan() const { return *plan_; }
  std::size_t num_threads() const { return pool_.size(); }
  /// Precision the packed path actually runs (kFloat64 when a kFloat32
  /// request fell back; see EvalPlan::f32_rejection() for why).
  Precision effective_precision() const {
    return plan_->effective_precision();
  }

  /// Evaluate a batch of input assignments; element w has the same shape as
  /// the argument of DataParallelGate::evaluate (one m-bit vector per
  /// channel). Returns one result vector per word, in batch order.
  std::vector<std::vector<sw::core::ChannelResult>> evaluate(
      std::span<const std::vector<sw::core::Bits>> batch) const;

  /// Evaluate uniform patterns: word w applies patterns[w] to every channel
  /// (the truth-table sweep case).
  std::vector<std::vector<sw::core::ChannelResult>> evaluate_uniform(
      std::span<const sw::core::Bits> patterns) const;

  /// Generic entry point: the bit of input slot `input` on channel
  /// `channel` for word `word` is provided by `bit`. Lets callers (e.g.
  /// ParallelLogicGate) evaluate large batches without materialising
  /// per-word input vectors. The accessor is consulted once per (word,
  /// plan contribution) to pack the kernel's bit matrix — a (channel,
  /// input) pair feeding several detectors is read once per contribution,
  /// with identical values — and never in the inner accumulation loop.
  using BitAccessor = std::function<std::uint8_t(
      std::size_t word, std::size_t channel, std::size_t input)>;
  std::vector<std::vector<sw::core::ChannelResult>> evaluate_with(
      std::size_t num_words, const BitAccessor& bit) const;

  /// Input slots per word for the packed path: one per (channel, input).
  std::size_t slot_count() const { return plan_->slot_count(); }

  /// Fastest path, decoding only the logic bits via the active kernel.
  /// `bits` is a row-major num_words x slot_count() matrix; the bit of
  /// input slot `input` on channel `channel` lives at column
  /// channel * num_inputs + input. Returns a row-major num_words x
  /// channel-count matrix of decoded output bits. The decode is exactly
  /// decide_phase's threshold (phase closer to pi than to 0, i.e. Re < 0)
  /// without the polar conversion, so bits match the ChannelResult paths
  /// bit-for-bit — including on an f32 plan, whose build-time validation
  /// guarantees the float decode never disagrees. Rejects a `bits` span
  /// whose size is not num_words * slot_count(), including when that
  /// product would overflow size_t.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;

  /// Same, through an explicit kernel (tests and benches compare kernels
  /// side by side; production callers use the active-kernel overload).
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

 private:
  template <typename BitFn>
  std::vector<std::vector<sw::core::ChannelResult>> run(std::size_t num_words,
                                                        const BitFn& bit) const;

  const sw::core::DataParallelGate* gate_;
  std::shared_ptr<const EvalPlan> plan_;
  mutable sw::util::ThreadPool pool_;
};

namespace detail {

/// The block loop of BatchEvaluator::evaluate_bits and EvalProgram: splits
/// words [0, num_words) across `pool` at whole 64-word column u64s, so no
/// two threads write one u64. Each chunk gets one zeroed table of
/// `num_columns` columns of `stride` u64s (at most
/// kernels::kBlockColumnWords, column k at columns + k * stride) and room
/// for `num_inputs` slot pointers, both reused by each of its blocks, and
/// block(begin, end, columns, stride, inputs) runs once per block of at
/// most stride * 64 words.
template <typename Block>
void for_each_block(sw::util::ThreadPool& pool, std::size_t num_words,
                    std::size_t num_columns, std::size_t num_inputs,
                    const Block& block) {
  pool.parallel_for(
      kernels::column_words(num_words),
      [&](std::size_t first_group, std::size_t last_group) {
        const std::size_t stride =
            std::min(kernels::kBlockColumnWords, last_group - first_group);
        std::vector<std::uint64_t> columns(num_columns * stride);
        std::vector<const std::uint64_t*> inputs(num_inputs);
        const std::size_t end = std::min(last_group * 64, num_words);
        for (std::size_t begin = first_group * 64; begin < end;
             begin += stride * 64) {
          block(begin, std::min(begin + stride * 64, end), columns.data(),
                stride, inputs.data());
        }
      });
}

}  // namespace detail

}  // namespace sw::wavesim
