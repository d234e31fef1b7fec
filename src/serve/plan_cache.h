// LRU cache of ready-to-run evaluation plans, keyed by canonical layout
// hash *plus the evaluation precision*, with collision-safe full-key
// comparison.
//
// The SoA EvalPlan is the expensive per-layout artefact of the serving path
// (dispersion lookups plus one steady-phasor solve per (detector, source,
// launch-phase) triple); the cache owns it directly — each entry builds the
// plan once and shares it into its BatchEvaluator — so every cached-plan
// submit runs the runtime-dispatched SIMD kernels with zero per-request
// conversion, and the cache makes the build cost amortise across every
// request that reuses the layout. A plan requested at kFloat32 may come out
// effectively double (the margin-aware fallback, see EvalPlan); the cache
// records that in its stats but still files the entry under the f32 key —
// the fallback is a property of that (layout, precision) pair, decided
// once, and re-deciding it per request would redo the margin sweep.
// Construction of the plan for one key is serialised *behind the cache
// entry*: the first caller inserts a pending entry and builds, concurrent
// callers for the same key wait on the entry's shared future instead of
// racing a second build — which is also what makes the cache safe by design
// against the historical hazard of two threads memoising into one engine
// (the engine is additionally mutex-guarded now). Distinct layouts build
// concurrently.
//
// Program entries share their stages. Lowering emits few distinct stage
// GateSpecs, so a program build resolves each stage's artefact (designed
// gate + EvalPlan, wavesim::EvalStage) through a stage table beside the
// LRU: one build per (GateSpec, precision), with the same one-builder-per-
// key discipline. The table holds only weak references, so a stage lives
// exactly as long as some cached or in-flight program uses it, and it adds
// no LRU entries and no capacity of its own.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/gate.h"
#include "core/gate_design.h"
#include "serve/layout_hash.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_plan.h"
#include "wavesim/eval_program.h"
#include "wavesim/precision.h"
#include "wavesim/wave_engine.h"

namespace sw::serve {

/// One cached plan: the gate (owning its copy of the layout), the SoA
/// EvalPlan built from it once, and the BatchEvaluator sharing that plan.
/// Immutable once constructed and handed out as shared_ptr<const>, so an
/// entry evicted mid-request stays valid for every holder. The evaluator is
/// built with the cache's BatchOptions (default: single inline thread, so
/// evaluation runs on the calling service worker and cached plans do not
/// each own idle worker threads).
class CachedPlan {
 public:
  CachedPlan(sw::core::GateLayout layout,
             const sw::wavesim::WaveEngine& engine,
             sw::wavesim::BatchOptions options)
      : gate_(std::move(layout), engine),
        plan_(std::make_shared<const sw::wavesim::EvalPlan>(
            gate_, options.freq_tol, options.precision)),
        evaluator_(gate_, plan_, options) {}

  CachedPlan(const CachedPlan&) = delete;
  CachedPlan& operator=(const CachedPlan&) = delete;

  const sw::core::DataParallelGate& gate() const { return gate_; }
  /// The frozen SoA plan the kernels evaluate against; shared with (not
  /// copied into) the evaluator.
  const sw::wavesim::EvalPlan& plan() const { return *plan_; }
  const sw::wavesim::BatchEvaluator& evaluator() const { return evaluator_; }
  /// What this entry actually serves (kFloat64 when an f32 request fell
  /// back; plan().f32_rejection() says why). Block-f32 entries report
  /// kFloat64 here (not every decode runs f32) — the detector mix below
  /// and precision_label() carry the finer verdict.
  sw::wavesim::Precision effective_precision() const {
    return plan_->effective_precision();
  }
  /// Per-entry precision mix: how many of the plan's detectors run f32
  /// accumulation vs f64 rescue lanes (see EvalPlan). Both 0 on a plan
  /// that never requested f32.
  std::size_t f32_detectors() const { return plan_->num_f32_detectors(); }
  std::size_t f64_rescue_detectors() const {
    return plan_->num_f64_rescue_detectors();
  }
  /// "f64", "f32" or "block-f32(k/n)" — the label logs and benches print.
  std::string precision_label() const { return plan_->precision_label(); }

 private:
  sw::core::DataParallelGate gate_;
  std::shared_ptr<const sw::wavesim::EvalPlan> plan_;
  sw::wavesim::BatchEvaluator evaluator_;
};

/// One cached multi-stage program: the fused EvalProgram built once from a
/// portable ProgramSpec, its stage artefacts (designed gate + EvalPlan)
/// resolved through the cache's stage table, so it shares them with every
/// other cached or in-flight program of the same (stage GateSpec,
/// precision). Immutable once constructed and handed out as
/// shared_ptr<const>, like CachedPlan.
class CachedProgram {
 public:
  CachedProgram(sw::wavesim::ProgramSpec spec,
                const sw::wavesim::StageResolver& resolve,
                sw::wavesim::BatchOptions options)
      : program_(std::move(spec), resolve, options) {}

  CachedProgram(const CachedProgram&) = delete;
  CachedProgram& operator=(const CachedProgram&) = delete;

  const sw::wavesim::EvalProgram& program() const { return program_; }
  std::size_t num_stages() const { return program_.num_stages(); }
  std::size_t depth() const { return program_.depth(); }
  /// Aggregate label over the per-stage plans ("f64" / "f32" / "mixed(...)").
  std::string precision_label() const { return program_.precision_label(); }

 private:
  sw::wavesim::EvalProgram program_;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;       ///< lookups served from a cached plan
  std::uint64_t misses = 0;     ///< lookups that triggered a build
  std::uint64_t evictions = 0;  ///< LRU entries dropped to respect capacity
  /// Builds that requested kFloat32 and got it everywhere (every detector
  /// passed the margin analysis).
  std::uint64_t f32_plans = 0;
  /// Builds that requested kFloat32 but fell back to the double plan
  /// entirely (no detector passed).
  std::uint64_t f32_fallbacks = 0;
  /// Builds that came out block-f32: a genuine per-detector mix of f32 and
  /// f64 rescue lanes. Disjoint from both counters above; every f32-
  /// requested build lands in exactly one of the three.
  std::uint64_t block_plans = 0;
  /// Detector-granularity mix, accumulated across every f32-requested
  /// build: how many detectors were proved for f32 accumulation vs rescued
  /// to f64 lanes. f32_detectors / (f32_detectors + f64_rescue_detectors)
  /// is the fleet-visible f32 ratio the metrics endpoint exports.
  std::uint64_t f32_detectors = 0;
  std::uint64_t f64_rescue_detectors = 0;
  /// Multi-stage program entries built (program lookups also count into
  /// hits/misses/evictions above — the LRU is shared).
  std::uint64_t program_builds = 0;
  /// Stages across every program built: program_stages / program_builds is
  /// the mean cascade length the service compiles.
  std::uint64_t program_stages = 0;
  /// Deepest stage-to-stage path among built programs (physical cascade
  /// latency in stages).
  std::uint64_t max_program_depth = 0;
  /// Stage artefacts (designed gate + EvalPlan) built for programs. A
  /// program build reuses the artefact of any live program with an equal
  /// (stage GateSpec, precision), so this stays far below program_stages.
  std::uint64_t stage_builds = 0;
};

class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const CachedPlan>;
  using ProgramPtr = std::shared_ptr<const CachedProgram>;

  /// `capacity == 0` means unbounded. The engine must outlive the cache.
  /// evaluator_options.precision (kAuto resolved at construction) is the
  /// default precision for lookups that do not pass one explicitly.
  /// `designer` enables program entries (a ProgramSpec carries design
  /// requests, not finished layouts, so building one needs a designer);
  /// when null, program lookups throw. The designer must outlive the cache.
  PlanCache(const sw::wavesim::WaveEngine& engine, std::size_t capacity,
            sw::wavesim::BatchOptions evaluator_options = {.num_threads = 1},
            const sw::core::InlineGateDesigner* designer = nullptr);

  /// Fast-path lookup: returns the plan when it is cached *and ready*,
  /// nullptr otherwise (counts a hit only when it returns a plan). Never
  /// blocks and never copies the layout beyond its canonical bytes.
  PlanPtr try_get(const sw::core::GateLayout& layout);
  PlanPtr try_get(const sw::core::GateLayout& layout,
                  sw::wavesim::Precision precision);

  struct Lookup {
    PlanPtr plan;
    bool hit = false;  ///< false when this call performed the build
  };

  /// Returns the cached plan, building it on a miss. One builder per key:
  /// concurrent callers for the same (layout, precision) wait on the first
  /// builder's future. A build failure propagates to every waiter and
  /// removes the entry so a later call can retry.
  Lookup get_or_build(const sw::core::GateLayout& layout);
  Lookup get_or_build(const sw::core::GateLayout& layout,
                      sw::wavesim::Precision precision);

  /// Program analogues of try_get / get_or_build: same LRU, same
  /// one-builder-per-key discipline, keyed by the canonical program bytes
  /// (which can never collide with a layout key). Throw sw::util::Error
  /// when the cache was built without a designer.
  ProgramPtr try_get_program(const sw::wavesim::ProgramSpec& program);
  ProgramPtr try_get_program(const sw::wavesim::ProgramSpec& program,
                             sw::wavesim::Precision precision);

  struct ProgramLookup {
    ProgramPtr program;
    bool hit = false;  ///< false when this call performed the build
  };

  ProgramLookup get_or_build_program(const sw::wavesim::ProgramSpec& program);
  ProgramLookup get_or_build_program(const sw::wavesim::ProgramSpec& program,
                                     sw::wavesim::Precision precision);

  bool has_designer() const { return designer_ != nullptr; }

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// The resolved default precision of this cache's entries.
  sw::wavesim::Precision default_precision() const {
    return evaluator_options_.precision;
  }

 private:
  struct Slot {
    LayoutKey key;
    sw::wavesim::Precision precision = sw::wavesim::Precision::kFloat64;
    bool is_program = false;
    /// Exactly one of the two futures is armed, per is_program.
    std::shared_future<PlanPtr> plan;
    std::shared_future<ProgramPtr> program;
    std::uint64_t last_used = 0;
  };

  using StagePtr = std::shared_ptr<const sw::wavesim::EvalStage>;

  /// One stage-table entry. It references its artefact weakly, so the
  /// artefact lives exactly as long as some cached or in-flight program
  /// holds it; while its one builder runs, `building` is armed instead.
  struct StageSlot {
    sw::core::GateSpec spec;
    sw::wavesim::Precision precision = sw::wavesim::Precision::kFloat64;
    std::weak_ptr<const sw::wavesim::EvalStage> stage;
    std::shared_future<StagePtr> building;
  };

  static std::uint64_t bucket_hash(const LayoutKey& key,
                                   sw::wavesim::Precision precision);
  static bool slot_ready(const Slot& slot);
  Slot* find_locked(const LayoutKey& key, sw::wavesim::Precision precision,
                    bool is_program);
  void evict_for_insert_locked();
  void erase_locked(const LayoutKey& key, sw::wavesim::Precision precision,
                    bool is_program);

  /// The program builds' StageResolver: a live artefact from the stage
  /// table, else one build per (spec, precision) that concurrent callers
  /// wait on. A failed build leaves no entry and throws to every waiter.
  StagePtr resolve_stage(const sw::core::GateSpec& spec,
                         sw::wavesim::Precision precision);
  /// Stage-table entry for (spec, precision) under `hash`, or nullptr.
  StageSlot* find_stage_locked(std::uint64_t hash,
                               const sw::core::GateSpec& spec,
                               sw::wavesim::Precision precision);

  const sw::wavesim::WaveEngine* engine_;
  std::size_t capacity_;
  sw::wavesim::BatchOptions evaluator_options_;
  const sw::core::InlineGateDesigner* designer_ = nullptr;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Slot>> slots_;
  /// The stage table, keyed by stage_hash. Node-based, so a builder's
  /// entry pointer stays valid while other entries come and go.
  std::unordered_multimap<std::uint64_t, StageSlot> stages_;
  std::size_t size_ = 0;
  std::uint64_t tick_ = 0;
  PlanCacheStats stats_;
};

}  // namespace sw::serve
