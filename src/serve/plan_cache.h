// LRU cache of ready-to-run evaluation programs, keyed by canonical target
// bytes, with collision-safe full-key comparison.
//
// Every target the service evaluates is a wavesim::EvalProgram, the one
// artefact this cache holds. Targets come in three forms, each with its own
// key form (LayoutKey), so no two forms share an entry:
//  - a finished GateLayout builds a one-stage program over the layout as
//    given (slot j reads primary column j);
//  - a GateTarget, a gate named by its spec (the wire's v2 frames), is
//    keyed by the spec and the layout hash its client claims, ~140 bytes.
//    A miss designs the spec, refuses a design whose hash_layout is not
//    the claim before any plan is solved, then builds as a layout;
//  - a ProgramSpec builds the fused multi-stage program.
//
// The expensive part of an entry is its stage plans (dispersion lookups,
// one steady-phasor solve per (detector, source, launch-phase) triple and
// each detector's decision diagram), so every cached submit runs the
// runtime-dispatched table kernels with zero per-request conversion, and
// the build cost amortises across every request that reuses the target. A
// target that cannot be built (its design fails, its hash is not the
// claim, a detector is over wavesim::kMaxTableMuxes) fails with
// TargetError and leaves no entry. Construction for one key is serialised
// *behind the cache entry*: the first caller inserts a pending entry and
// builds, concurrent callers for the same key wait on the entry's shared
// future instead of racing a second build. Distinct keys build
// concurrently.
//
// Program entries share their stages. Lowering emits few distinct stage
// GateSpecs, so a ProgramSpec build resolves each stage's artefact
// (designed gate + EvalPlan, wavesim::EvalStage) through a stage table
// beside the LRU: one build per GateSpec, with the same one-builder-per-key
// discipline. The table holds only weak references, so a stage lives
// exactly as long as some cached or in-flight program uses it, and it adds
// no LRU entries and no capacity of its own. Layout and GateTarget stages
// never enter the table.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/gate_design.h"
#include "serve/layout_hash.h"
#include "util/error.h"
#include "wavesim/eval_program.h"
#include "wavesim/wave_engine.h"

namespace sw::serve {

/// Designs a GateSpec into the layout a GateTarget evaluates (usually
/// InlineGateDesigner::design against the service's dispersion model).
/// Runs on the thread that builds the target's entry.
using Designer =
    std::function<sw::core::GateLayout(const sw::core::GateSpec&)>;

/// A gate named by its spec, as the wire's v2 frames name it. Its entry is
/// `designer(spec)`, valid only when that layout's hash_layout equals
/// `layout_hash`, the hash the client claims for its own design.
struct GateTarget {
  sw::core::GateSpec spec;
  std::uint64_t layout_hash = 0;
  Designer designer;
};

/// A target the cache cannot build: its design failed, its design's hash is
/// not the claimed one, or a plan is over the table budget (a stage past
/// wavesim::kMaxTableMuxes), each with its reason. What the request asked
/// for is at fault, not the service: EvalServer answers it kBadRequest.
class TargetError : public sw::util::Error {
 public:
  explicit TargetError(const std::string& what) : Error(what) {}
};

struct PlanCacheStats {
  std::uint64_t hits = 0;       ///< lookups served from a cached entry
  std::uint64_t misses = 0;     ///< lookups that triggered a build
  std::uint64_t evictions = 0;  ///< LRU entries dropped to respect capacity
  /// Built detectors, counted per plan (one per layout build, one per
  /// stage of a program build). Each decodes from its decision diagram
  /// (Kernel::eval_tables): a build whose plan is not tabulated fails and
  /// counts nothing.
  std::uint64_t table_detectors = 0;
  /// ProgramSpec entries built (their lookups also count into
  /// hits/misses/evictions above — the LRU is shared). Layout targets
  /// never count here.
  std::uint64_t program_builds = 0;
  /// Stages across every ProgramSpec built: program_stages /
  /// program_builds is the mean cascade length the service compiles.
  std::uint64_t program_stages = 0;
  /// Deepest stage-to-stage path among built ProgramSpecs (physical
  /// cascade latency in stages).
  std::uint64_t max_program_depth = 0;
  /// Stage artefacts (designed gate + EvalPlan) built for ProgramSpecs. A
  /// program build reuses the artefact of any live program with an equal
  /// stage GateSpec, so this stays far below program_stages.
  std::uint64_t stage_builds = 0;
};

class PlanCache {
 public:
  /// Immutable once built and handed out as shared_ptr<const>, so an entry
  /// evicted mid-request stays valid for every holder.
  using ProgramPtr = std::shared_ptr<const sw::wavesim::EvalProgram>;

  /// `capacity == 0` means unbounded. The engine must outlive the cache.
  /// Cached programs evaluate on the thread that calls them. `designer`
  /// enables ProgramSpec targets (they carry design requests, not finished
  /// layouts); when null, ProgramSpec lookups throw. The designer must
  /// outlive the cache. GateTargets bring their own Designer.
  PlanCache(const sw::wavesim::WaveEngine& engine, std::size_t capacity,
            const sw::core::InlineGateDesigner* designer = nullptr);

  /// Fast-path lookup: returns the program when it is cached *and ready*,
  /// nullptr otherwise (counts a hit only when it returns one). Never
  /// blocks and never copies the target beyond its key bytes. The spec
  /// form looks up the GateTarget {spec, layout_hash}.
  ProgramPtr try_get(const sw::core::GateLayout& layout);
  ProgramPtr try_get(const sw::wavesim::ProgramSpec& program);
  ProgramPtr try_get(const sw::core::GateSpec& spec,
                     std::uint64_t layout_hash);

  struct Lookup {
    ProgramPtr program;
    bool hit = false;  ///< false when this call performed the build
  };

  /// Returns the cached program, building it on a miss. One builder per
  /// key: concurrent callers for the same target wait on the first
  /// builder's future. A build failure propagates to every waiter (as
  /// TargetError when the target is at fault) and removes the entry so a
  /// later call can retry.
  Lookup get_or_build(const sw::core::GateLayout& layout);
  Lookup get_or_build(const sw::wavesim::ProgramSpec& program);
  Lookup get_or_build(const GateTarget& target);

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    LayoutKey key;
    std::shared_future<ProgramPtr> program;
    std::uint64_t last_used = 0;
  };

  using StagePtr = std::shared_ptr<const sw::wavesim::EvalStage>;
  /// Builds one entry's program (run on a miss, outside the cache lock).
  using BuildFn = std::function<ProgramPtr()>;

  /// One stage-table entry. It references its artefact weakly, so the
  /// artefact lives exactly as long as some cached or in-flight program
  /// holds it; while its one builder runs, `building` is armed instead.
  struct StageSlot {
    sw::core::GateSpec spec;
    std::weak_ptr<const sw::wavesim::EvalStage> stage;
    std::shared_future<StagePtr> building;
  };

  /// The ready entry for `key` as a hit, or nullptr.
  ProgramPtr find_ready(const LayoutKey& key);
  /// The entry for `key`, building it with `build` on a miss. A build that
  /// throws sw::util::Error fails with TargetError.
  Lookup find_or_build(const LayoutKey& key, const BuildFn& build);
  /// A built one-stage program of `layout`, as given, in the stats.
  ProgramPtr build_layout(sw::core::GateLayout layout);

  Slot* find_locked(const LayoutKey& key);
  void evict_for_insert_locked();
  void erase_locked(const LayoutKey& key);
  /// Folds a built program's detectors into the stats.
  void record_decodes_locked(const sw::wavesim::EvalProgram& program);

  /// The program builds' StageResolver: a live artefact from the stage
  /// table, else one build per spec that concurrent callers wait on. A
  /// failed build leaves no entry and throws to every waiter.
  StagePtr resolve_stage(const sw::core::GateSpec& spec);
  /// Stage-table entry for `spec` under `hash`, or nullptr.
  StageSlot* find_stage_locked(std::uint64_t hash,
                               const sw::core::GateSpec& spec);

  const sw::wavesim::WaveEngine* engine_;
  std::size_t capacity_;
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
