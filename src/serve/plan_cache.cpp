#include "serve/plan_cache.h"

#include <bit>
#include <chrono>
#include <exception>
#include <utility>

#include "util/error.h"

namespace sw::serve {

namespace {

template <typename T>
bool ready(const std::shared_future<T>& fut) {
  return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Stage-table bucket of a GateSpec: FNV-1a over the fields
/// GateSpec::operator== compares, doubles by value (+0.0 and -0.0 compare
/// equal, so they hash alike).
std::uint64_t stage_hash(const sw::core::GateSpec& spec) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * kFnvPrime; };
  const auto mix_f64 = [&mix](double v) {
    mix(v == 0.0 ? 0 : std::bit_cast<std::uint64_t>(v));
  };
  mix(spec.num_inputs);
  mix(spec.frequencies.size());
  for (const double f : spec.frequencies) mix_f64(f);
  mix_f64(spec.transducer_width);
  mix_f64(spec.min_gap);
  mix_f64(spec.min_same_channel_spacing);
  mix(static_cast<std::uint64_t>(spec.multiple_search));
  mix(spec.invert_output.size());
  for (const std::uint8_t b : spec.invert_output) mix(b);
  return h;
}

}  // namespace

PlanCache::PlanCache(const sw::wavesim::WaveEngine& engine,
                     std::size_t capacity,
                     const sw::core::InlineGateDesigner* designer)
    : engine_(&engine), capacity_(capacity), designer_(designer) {}

PlanCache::Slot* PlanCache::find_locked(const LayoutKey& key) {
  // Programs and layouts share the buckets: their canonical bytes carry
  // distinct format tags, so their key hashes already disagree.
  const auto bucket = slots_.find(key.hash());
  if (bucket == slots_.end()) return nullptr;
  for (auto& slot : bucket->second) {
    if (slot.key == key) return &slot;
  }
  return nullptr;
}

void PlanCache::evict_for_insert_locked() {
  while (capacity_ > 0 && size_ >= capacity_) {
    // Evict the least-recently-used *ready* slot; a slot still building is
    // pinned (its builder and waiters are live). If every slot is
    // building, temporarily exceed capacity rather than stall the insert.
    std::unordered_map<std::uint64_t, std::vector<Slot>>::iterator
        victim_bucket = slots_.end();
    std::size_t victim_index = 0;
    std::uint64_t oldest = 0;
    bool found = false;
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const Slot& slot = it->second[i];
        if (!ready(slot.program)) continue;
        if (!found || slot.last_used < oldest) {
          found = true;
          oldest = slot.last_used;
          victim_bucket = it;
          victim_index = i;
        }
      }
    }
    if (!found) return;
    auto& vec = victim_bucket->second;
    vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(victim_index));
    if (vec.empty()) slots_.erase(victim_bucket);
    --size_;
    ++stats_.evictions;
  }
}

void PlanCache::erase_locked(const LayoutKey& key) {
  const auto bucket = slots_.find(key.hash());
  if (bucket == slots_.end()) return;
  size_ -= std::erase_if(bucket->second,
                         [&](const Slot& slot) { return slot.key == key; });
  if (bucket->second.empty()) slots_.erase(bucket);
}

void PlanCache::record_decodes_locked(
    const sw::wavesim::EvalProgram& program) {
  for (std::size_t s = 0; s < program.num_stages(); ++s) {
    stats_.table_detectors += program.stage_plan(s).num_detectors();
  }
}

PlanCache::ProgramPtr PlanCache::find_ready(const LayoutKey& key) {
  std::shared_future<ProgramPtr> fut;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* slot = find_locked(key);
    if (slot == nullptr || !ready(slot->program)) return nullptr;
    ++stats_.hits;
    slot->last_used = ++tick_;
    fut = slot->program;
  }
  // A ready slot always carries a value: failed builds erase their slot
  // before publishing the exception, so they are never observable here.
  return fut.get();
}

PlanCache::Lookup PlanCache::find_or_build(const LayoutKey& key,
                                           const BuildFn& build) {
  std::promise<ProgramPtr> builder;
  std::shared_future<ProgramPtr> fut;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Slot* slot = find_locked(key)) {
      ++stats_.hits;
      slot->last_used = ++tick_;
      fut = slot->program;
    } else {
      ++stats_.misses;
      evict_for_insert_locked();
      Slot fresh;
      fresh.key = key;
      fresh.program = builder.get_future().share();
      fresh.last_used = ++tick_;
      fut = fresh.program;
      slots_[key.hash()].push_back(std::move(fresh));
      ++size_;
      build_here = true;
    }
  }
  if (build_here) {
    std::exception_ptr error;
    try {
      builder.set_value(build());
    } catch (const sw::util::Error& e) {
      // A contract the target broke (its design, its hash, the layout
      // invariants, the table budget), not a fault of the service.
      error = std::make_exception_ptr(TargetError(e.what()));
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      // Drop the poisoned entry first so no new lookup can ever observe a
      // ready-with-exception slot, then wake the waiters with the error.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        erase_locked(key);
      }
      builder.set_exception(error);
    }
  }
  return {fut.get(), !build_here};
}

PlanCache::ProgramPtr PlanCache::try_get(const sw::core::GateLayout& layout) {
  return find_ready(LayoutKey::from(layout));
}

PlanCache::ProgramPtr PlanCache::try_get(
    const sw::wavesim::ProgramSpec& program) {
  SW_REQUIRE(designer_ != nullptr,
             "plan cache was built without a designer; cannot serve programs");
  return find_ready(LayoutKey::from(program));
}

PlanCache::ProgramPtr PlanCache::try_get(const sw::core::GateSpec& spec,
                                         std::uint64_t layout_hash) {
  return find_ready(LayoutKey::from(spec, layout_hash));
}

PlanCache::ProgramPtr PlanCache::build_layout(sw::core::GateLayout layout) {
  auto built =
      std::make_shared<const sw::wavesim::EvalProgram>(std::move(layout),
                                                       *engine_);
  std::lock_guard<std::mutex> lock(mutex_);
  record_decodes_locked(*built);
  return built;
}

PlanCache::Lookup PlanCache::get_or_build(const sw::core::GateLayout& layout) {
  return find_or_build(LayoutKey::from(layout),
                       [&] { return build_layout(layout); });
}

PlanCache::Lookup PlanCache::get_or_build(const GateTarget& target) {
  return find_or_build(
      LayoutKey::from(target.spec, target.layout_hash), [&] {
        sw::core::GateLayout layout = target.designer(target.spec);
        // The wire contract, checked before any plan is solved: both ends
        // designed the same geometry from this spec.
        SW_REQUIRE(hash_layout(layout) == target.layout_hash,
                   "layout hash mismatch: server geometry differs from the "
                   "client's");
        return build_layout(std::move(layout));
      });
}

PlanCache::Lookup PlanCache::get_or_build(
    const sw::wavesim::ProgramSpec& program) {
  SW_REQUIRE(designer_ != nullptr,
             "plan cache was built without a designer; cannot serve programs");
  // Reject malformed specs before touching the cache: a spec that cannot
  // validate must not occupy a slot (its build would fail every time).
  program.validate();
  return find_or_build(LayoutKey::from(program), [&] {
    auto built = std::make_shared<const sw::wavesim::EvalProgram>(
        program,
        [this](const sw::core::GateSpec& spec) { return resolve_stage(spec); });
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.program_builds;
    stats_.program_stages += built->num_stages();
    if (built->depth() > stats_.max_program_depth) {
      stats_.max_program_depth = built->depth();
    }
    // Per-stage decodes roll into the same detector counts the metrics
    // endpoint exports for single plans.
    record_decodes_locked(*built);
    return built;
  });
}

PlanCache::StageSlot* PlanCache::find_stage_locked(
    std::uint64_t hash, const sw::core::GateSpec& spec) {
  const auto [first, last] = stages_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.spec == spec) return &it->second;
  }
  return nullptr;
}

PlanCache::StagePtr PlanCache::resolve_stage(const sw::core::GateSpec& spec) {
  const std::uint64_t hash = stage_hash(spec);
  std::promise<StagePtr> builder;
  std::shared_future<StagePtr> pending;
  StageSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = find_stage_locked(hash, spec);
    if (slot != nullptr) {
      if (StagePtr live = slot->stage.lock()) return live;
    } else {
      // Entries whose artefact every program has released go on insert,
      // so the table stays the size of the live stages plus builds.
      std::erase_if(stages_, [](const auto& entry) {
        return !entry.second.building.valid() && entry.second.stage.expired();
      });
      slot = &stages_.emplace(hash, StageSlot{spec, {}, {}})->second;
    }
    if (slot->building.valid()) {
      pending = slot->building;
    } else {
      slot->building = builder.get_future().share();
    }
  }
  // Another caller is building this stage: wait for the finished artefact
  // (or its builder's exception).
  if (pending.valid()) return pending.get();
  try {
    auto stage = std::make_shared<const sw::wavesim::EvalStage>(
        spec, *designer_, *engine_);
    {
      // The entry cannot have moved or gone: the table is node-based and
      // nothing erases an entry whose build is in flight but its builder.
      std::lock_guard<std::mutex> lock(mutex_);
      slot->stage = stage;
      slot->building = {};
      ++stats_.stage_builds;
    }
    builder.set_value(stage);
    return stage;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto [first, last] = stages_.equal_range(hash);
      for (auto it = first; it != last; ++it) {
        if (&it->second == slot) {
          stages_.erase(it);
          break;
        }
      }
    }
    builder.set_exception(std::current_exception());
    throw;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

}  // namespace sw::serve
