// Multi-stage fused evaluation: a compiled gate cascade as one program.
//
// EvalPlan freezes ONE gate layout into SoA constants the kernels decode
// at register width. A synthesized circuit (src/compile) is a *cascade* of
// such gates: stage outputs become the next stage's phase inputs — the
// paper's "passed to potential following SW gates", with the regenerating
// transducers between stages flipping drive phases for free complements
// and pinning constants. EvalProgram is the frozen multi-stage artefact:
// one shared EvalStage (designed gate + EvalPlan) per distinct stage
// GateSpec plus an interconnect map (SlotSource per input slot).
//
// Evaluation is a column cascade, block by block (kernels/kernel.h has the
// column layout). Each stage's kernel reads one column per slot and writes
// one column per channel. Slot j of a stage is a column pointer, fixed at
// construction: a primary column, an earlier stage's channel column, or a
// constant column of zeros or ones. A negated source reads a column
// complemented once per block (one XOR per 64 words) before the stage
// runs. So a stage costs its kernel and nothing else: no byte gathers, no
// transposes between stages, and every block's columns stay in reused
// scratch. evaluate_columns is the cascade alone: it takes the primary
// columns and returns the last stage's, which is what the serving layer
// runs (the wire decodes straight to columns). The row APIs
// (evaluate_bits, evaluate_all_bits) add the edges: a block's primary rows
// become columns once, and only the output stages go back to rows. Every
// evaluation runs on the calling thread; parallelism is concurrent calls
// (a program is immutable, so they need no lock).
//
// Lowering emits few distinct stage GateSpecs (a compiled cascade is MAJ
// and inverted-MAJ gates on one fabric), so stages are resolved once per
// distinct GateSpec: within a program by equality, and — through a
// StageResolver such as serve::PlanCache's stage table — across programs.
// An EvalStage is immutable, so sharing it is free.
//
// Every stage runs the kernel's eval_tables, its detectors' decision
// diagrams (see EvalPlan). A stage whose plan is not tabulated (a detector
// over kMaxTableMuxes) is refused at construction. The tables decode every
// stage bit-exactly like evaluating that stage's gate alone, which makes
// the whole program bit-exact with the per-stage physics path by
// induction. kernel_work prices a request in muxes per 64 words.
//
// A single gate is the one-stage case: EvalProgram(GateLayout, ...) wraps
// the layout as given in one stage whose slot j reads primary column j. It
// runs the same column path as any other program, so this is the one
// artefact the serving layer caches for every target.
//
// The ProgramSpec half of this header is the *portable* description —
// per-stage GateSpecs plus the interconnect, no designed geometry — which
// is what the wire format ships (serve/wire.h, v3 frames) and the plan
// cache hashes; an EvalProgram is built from it locally against a
// designer and engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"
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

/// Per-stage accumulated evaluation time, filled by evaluate_columns when
/// the caller passes a collector: ns[s] gains every block's kernel time for
/// stage s, so the numbers are summed time per stage, not wall intervals.
struct StageTimings {
  explicit StageTimings(std::size_t num_stages) : ns(num_stages) {}
  std::vector<std::uint64_t> ns;
};

/// The expensive, immutable half of a program stage: the gate designed
/// from one GateSpec and the EvalPlan frozen from it. Programs hold it by
/// shared_ptr<const>, so every stage (of any program) with an equal
/// GateSpec can use one.
class EvalStage {
 public:
  /// Builds the plan of a finished `layout` on `engine`. Throws whatever
  /// the layout validation or plan throws.
  EvalStage(sw::core::GateLayout layout, const WaveEngine& engine);
  /// Designs `spec` with `designer`, then builds as above.
  EvalStage(const sw::core::GateSpec& spec,
            const sw::core::InlineGateDesigner& designer,
            const WaveEngine& engine);

  const sw::core::DataParallelGate& gate() const { return gate_; }
  const EvalPlan& plan() const { return plan_; }

 private:
  sw::core::DataParallelGate gate_;  ///< owns the layout
  EvalPlan plan_;
};

/// Returns the stage artefact for a GateSpec: a fresh build or one shared
/// with other programs. Must return a fully built stage or throw.
using StageResolver =
    std::function<std::shared_ptr<const EvalStage>(const sw::core::GateSpec&)>;

class EvalProgram {
 public:
  /// Designs every distinct stage GateSpec once with `designer` and builds
  /// its EvalPlan on `engine`. Neither designer nor engine needs to outlive
  /// the program. Every constructor throws sw::util::Error, naming
  /// kMaxTableMuxes, when a stage's plan is not tabulated.
  EvalProgram(ProgramSpec spec, const sw::core::InlineGateDesigner& designer,
              const WaveEngine& engine);

  /// Same, with stage artefacts from `resolve`, called once per distinct
  /// stage GateSpec. Stages with equal GateSpecs share the returned
  /// artefact.
  EvalProgram(ProgramSpec spec, const StageResolver& resolve);

  /// A single gate as a one-stage program: the stage is `layout` as given
  /// (not re-designed) and its sources are the identity, slot j reading
  /// primary column j, so evaluate_bits takes the same row-major matrix as
  /// BatchEvaluator::evaluate_bits over that layout.
  EvalProgram(sw::core::GateLayout layout, const WaveEngine& engine);

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

  /// What evaluating `num_words` words costs the kernels: each stage's
  /// muxes (EvalPlan::num_table_muxes) per column u64, so
  /// column_words(num_words) x the muxes of every stage. Saturates at
  /// SIZE_MAX instead of wrapping. The 8-channel 3-input gate costs 32 per
  /// 64 words.
  std::size_t kernel_work(std::size_t num_words) const;

  /// Fused evaluation. `bits` is the row-major num_words x
  /// num_primary_slots() primary matrix (see ProgramSpec); returns the
  /// row-major num_words x num_channels() decoded bits of the LAST stage.
  /// Bit-exact with evaluating each stage's gate separately and re-packing
  /// by hand, for every kernel.
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

  /// Same pass, keeping every stage's outputs: row-major num_words x
  /// (num_stages() * num_channels()), stage s's channel ch at column
  /// s * num_channels() + ch. The cascade-delegation and oracle-test
  /// surface.
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits) const;
  std::vector<std::uint8_t> evaluate_all_bits(
      std::size_t num_words, std::span<const std::uint8_t> bits,
      const kernels::Kernel& kernel) const;

  /// The column entry: `primary` holds num_primary_slots() bit-sliced
  /// columns of kernels::column_words(num_words) u64s, column k at
  /// k * column_words(num_words) (bits past num_words are ignored).
  /// Returns the LAST stage's num_channels() columns in the same layout,
  /// every bit past num_words zero. The same block loop as evaluate_bits
  /// without its two edge conversions, and bit-exact with it. `timings`,
  /// when set, must be sized num_stages(): one steady_clock read per stage
  /// per 1024-word block (plus one per block), so the serving layer can
  /// always leave collection on.
  std::vector<std::uint64_t> evaluate_columns(
      std::size_t num_words, std::span<const std::uint64_t> primary,
      const kernels::Kernel& kernel, StageTimings* timings = nullptr) const;

 private:
  /// Evaluates `words` words, at most one block, through every stage.
  /// Primary column k is at primary + k * primary_stride; the last stage
  /// writes its channel columns to `last` (channel ch at
  /// last + ch * last_stride). `columns` is the block's scratch table of
  /// the other columns (table column t at columns + t * stride, see
  /// num_columns_); `inputs` receives each stage's slot pointers in turn.
  void eval_block(const kernels::Kernel& kernel, std::size_t words,
                  const std::uint64_t* primary, std::size_t primary_stride,
                  std::uint64_t* columns, std::size_t stride,
                  const std::uint64_t** inputs, std::uint64_t* last,
                  std::size_t last_stride, StageTimings* timings) const;

  /// The row APIs: the rows of stages [num_stages() - 1 or 0, num_stages()).
  std::vector<std::uint8_t> evaluate_rows(std::size_t num_words,
                                          std::span<const std::uint8_t> bits,
                                          const kernels::Kernel& kernel,
                                          bool all_stages) const;

  ProgramSpec spec_;
  /// Per stage; equal stage GateSpecs point at one artefact.
  std::vector<std::shared_ptr<const EvalStage>> stages_;
  std::size_t depth_ = 0;
  std::size_t max_slots_ = 0;
  /// A block's scratch table: each stage's channel columns, then a zero
  /// and a ones column, then the complemented copies negated sources read.
  /// Column indices below count the primary columns first, so index k <
  /// num_primary_slots() is primary column k and any other index is table
  /// column k - num_primary_slots().
  std::size_t num_columns_ = 0;
  /// Column read by slot j of stage s: slot_columns_[slot_begin_[s] + j].
  std::vector<std::size_t> slot_columns_;
  std::vector<std::size_t> slot_begin_;
  /// (complemented copy, source) column pairs stage s fills before it
  /// runs: negations_[negation_begin_[s] .. negation_begin_[s + 1]).
  std::vector<std::pair<std::size_t, std::size_t>> negations_;
  std::vector<std::size_t> negation_begin_;
};

}  // namespace sw::wavesim
