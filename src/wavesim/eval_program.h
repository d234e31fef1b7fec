// Multi-stage fused evaluation: a compiled gate cascade as one program.
//
// EvalPlan freezes ONE gate layout into SoA constants the kernels decode
// at register width. A synthesized circuit (src/compile) is a *cascade* of
// such gates: stage outputs become the next stage's phase inputs — the
// paper's "passed to potential following SW gates", with the regenerating
// transducers between stages flipping drive phases for free complements
// and pinning constants. EvalProgram is the frozen multi-stage artefact:
// one shared EvalStage (designed gate + EvalPlan) per distinct stage
// GateSpec plus an interconnect map (SlotSource per input slot), evaluated
// block-wise so a word batch runs end to end through every stage inside
// one pass — decoded verdict bits re-encoded as the next stage's inputs in
// scratch buffers that stay cache-hot, no per-stage replan, no per-stage
// round trip, no intermediate matrices of batch size.
//
// Lowering emits few distinct stage GateSpecs (a compiled cascade is MAJ
// and inverted-MAJ gates on one fabric), so stages are resolved once per
// distinct (GateSpec, resolved precision): within a program by equality,
// and — through a StageResolver such as serve::PlanCache's stage table —
// across programs. An EvalStage is immutable, so sharing it is free.
//
// Each stage dispatches through the same kernel ladder as a single plan
// (scalar/AVX2/AVX-512, kernels::eval_plan_bits choosing eval_bits /
// eval_bits_f32 / eval_bits_mixed per the stage plan's margin verdicts),
// so per-stage precision and block-f32 are honoured and every stage's
// decode is lane-for-lane bit-exact with evaluating that stage's gate
// alone — which makes the whole program bit-exact with the per-stage
// physics path by induction.
//
// A single gate is the one-stage case: EvalProgram(GateLayout, ...) wraps
// the layout as given in one stage whose slot j reads primary column j.
// Any program that is one stage with such identity sources is recognised
// at construction and evaluated without the gather: each pool chunk hands
// the caller's rows straight to the kernel, exactly like
// BatchEvaluator::evaluate_bits, so this is the one artefact the serving
// layer caches for every target.
//
// The ProgramSpec half of this header is the *portable* description —
// per-stage GateSpecs plus the interconnect, no designed geometry — which
// is what the wire format ships (serve/wire.h, v3 frames) and the plan
// cache hashes; an EvalProgram is built from it locally against a
// designer and engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "util/thread_pool.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"
#include "wavesim/wave_engine.h"

namespace sw::wavesim {

/// Where one input slot of a stage gets its bit. Negation is free on the
/// fabric (the driving transducer flips phase), so it lives here rather
/// than costing a gate.
struct SlotSource {
  enum class Kind : std::uint8_t {
    kZero = 0,     ///< transducer pinned to phase 0
    kOne = 1,      ///< transducer pinned to phase pi
    kPrimary = 2,  ///< column `index` of the primary packed word
    kStage = 3,    ///< output channel `index` of earlier stage `stage`
  };
  Kind kind = Kind::kZero;
  std::uint32_t stage = 0;  ///< producing stage, kStage only
  std::uint32_t index = 0;  ///< primary column or stage output channel
  bool negated = false;     ///< complement the gathered bit

  friend bool operator==(const SlotSource&, const SlotSource&) = default;
};

/// One stage: the physical design request plus where each of its
/// num_inputs x num_channels slots (slot = channel * num_inputs + input,
/// the EvalPlan packing) reads from.
struct StageSpec {
  sw::core::GateSpec gate;
  std::vector<SlotSource> sources;

  friend bool operator==(const StageSpec&, const StageSpec&) = default;
};

/// A portable multi-stage program: what clients ship over the wire and
/// what the plan cache keys on. The program output is the last stage's
/// decoded bits.
struct ProgramSpec {
  /// Function inputs per channel. The primary packed matrix a program
  /// evaluates is row-major num_words x primary_slot_count(), the bit of
  /// primary input i on channel ch at column ch * num_primary_inputs + i
  /// (the same channel-major packing as a single gate's slots).
  std::size_t num_primary_inputs = 0;
  std::vector<StageSpec> stages;

  std::size_t num_stages() const { return stages.size(); }
  /// Channel count shared by every stage (validate() enforces agreement).
  std::size_t num_channels() const {
    return stages.empty() ? 0 : stages.back().gate.frequencies.size();
  }
  std::size_t primary_slot_count() const {
    return num_primary_inputs * num_channels();
  }
  /// Longest stage-to-stage path feeding the output stage (1 for a single
  /// gate): the physical cascade latency in stages.
  std::size_t depth() const;

  /// Shape and reference checks: at least one stage, uniform channel
  /// count, every stage's source list sized num_inputs x num_channels,
  /// kStage references strictly earlier stages and valid channels,
  /// kPrimary columns within primary_slot_count(). Throws sw::util::Error.
  void validate() const;

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// Per-stage accumulated evaluation time, filled by evaluate_bits when the
/// caller passes a collector: ns[s] gains every block's gather+kernel time
/// for stage s. Accumulators are atomic because the word loop may fan out
/// across the program's pool threads; the numbers are therefore summed CPU
/// time per stage, not wall intervals.
struct StageTimings {
  explicit StageTimings(std::size_t num_stages) : ns(num_stages) {}
  std::vector<std::atomic<std::uint64_t>> ns;
};

/// The expensive, immutable half of a program stage: the gate designed
/// from one GateSpec and the EvalPlan frozen from it at one requested
/// precision. Programs hold it by shared_ptr<const>, so every stage (of any
/// program) with an equal (GateSpec, resolved precision) can use one.
class EvalStage {
 public:
  /// Builds the plan of a finished `layout` on `engine` at `precision`
  /// (already resolved; the plan's margin analysis decides f32 / block-f32
  /// / f64). Throws whatever the layout validation or plan throws.
  EvalStage(sw::core::GateLayout layout, const WaveEngine& engine,
            double freq_tol, Precision precision);
  /// Designs `spec` with `designer`, then builds as above.
  EvalStage(const sw::core::GateSpec& spec,
            const sw::core::InlineGateDesigner& designer,
            const WaveEngine& engine, double freq_tol, Precision precision);

  const sw::core::DataParallelGate& gate() const { return gate_; }
  const EvalPlan& plan() const { return plan_; }

 private:
  sw::core::DataParallelGate gate_;  ///< owns the layout
  EvalPlan plan_;
};

/// Returns the stage artefact for a (GateSpec, resolved precision): a fresh
/// build or one shared with other programs. Must return a fully built
/// stage or throw.
using StageResolver = std::function<std::shared_ptr<const EvalStage>(
    const sw::core::GateSpec&, Precision)>;

class EvalProgram {
 public:
  /// Designs every distinct stage GateSpec once with `designer`, builds
  /// its EvalPlan on `engine` at options.precision (kAuto resolved; each
  /// stage's margin analysis decides f32 / block-f32 / f64 independently)
  /// and keeps a worker pool of options.num_threads for the word loop.
  /// Neither designer nor engine needs to outlive the program.
  EvalProgram(ProgramSpec spec, const sw::core::InlineGateDesigner& designer,
              const WaveEngine& engine, BatchOptions options = {});

  /// Same, with stage artefacts from `resolve`, called once per distinct
  /// stage GateSpec with options.precision resolved. Stages with equal
  /// GateSpecs share the returned artefact.
  EvalProgram(ProgramSpec spec, const StageResolver& resolve,
              BatchOptions options = {});

  /// A single gate as a one-stage program: the stage is `layout` as given
  /// (not re-designed) and its sources are the identity, slot j reading
  /// primary column j, so evaluate_bits takes the same row-major matrix as
  /// BatchEvaluator::evaluate_bits over that layout.
  EvalProgram(sw::core::GateLayout layout, const WaveEngine& engine,
              BatchOptions options = {});

  const ProgramSpec& spec() const { return spec_; }
  std::size_t num_stages() const { return stages_.size(); }
  std::size_t num_channels() const { return spec_.num_channels(); }
  std::size_t num_primary_slots() const {
    return spec_.primary_slot_count();
  }
  std::size_t depth() const { return depth_; }

  const EvalPlan& stage_plan(std::size_t stage) const {
    return stages_[stage]->plan();
  }
  const sw::core::DataParallelGate& stage_gate(std::size_t stage) const {
    return stages_[stage]->gate();
  }

  /// Aggregate precision mix: "f64" / "f32" when every stage agrees, else
  /// "mixed(<stage labels>)".
  std::string precision_label() const;

  /// Fused evaluation. `bits` is the row-major num_words x
  /// num_primary_slots() primary matrix (see ProgramSpec); returns the
  /// row-major num_words x num_channels() decoded bits of the LAST stage.
  /// Bit-exact with evaluating each stage's gate separately and re-packing
  /// by hand, for every kernel and per-stage precision. A one-stage
  /// identity program decodes `bits` in place (no gather, no scratch).
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

  /// evaluate_bits with per-stage time attribution: `timings` must be
  /// sized num_stages() (or null for the plain path — identical cost).
  /// One steady_clock read per stage per 1024-word block (plus one per
  /// block), so the serving layer can always leave collection on.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      StageTimings* timings) const;

  /// Same pass, keeping every stage's outputs: row-major num_words x
  /// (num_stages() * num_channels()), stage s's channel ch at column
  /// s * num_channels() + ch. The cascade-delegation and oracle-test
  /// surface.
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

 private:
  struct BlockScratch;

  /// Run words [begin, end) through every stage; scratch.stage_out
  /// receives stage s's outputs at [s * (end - begin) * num_channels(),
  /// ...) in block-local row-major order.
  void eval_range(const kernels::Kernel& kernel,
                  std::span<const std::uint8_t> bits, std::size_t begin,
                  std::size_t end, BlockScratch& scratch,
                  StageTimings* timings) const;

  std::vector<std::uint8_t> evaluate_impl(std::size_t num_words,
                                          std::span<const std::uint8_t> bits,
                                          const kernels::Kernel& kernel,
                                          bool all_stages,
                                          StageTimings* timings) const;

  ProgramSpec spec_;
  /// Per stage; equal stage GateSpecs point at one artefact.
  std::vector<std::shared_ptr<const EvalStage>> stages_;
  std::size_t depth_ = 0;
  std::size_t max_slots_ = 0;
  /// One stage whose slot j reads primary column j unnegated: the primary
  /// matrix already is the kernel's input, so evaluation skips the gather.
  bool identity_ = false;
  mutable sw::util::ThreadPool pool_;
};

}  // namespace sw::wavesim
