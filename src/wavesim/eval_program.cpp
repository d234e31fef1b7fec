#include "wavesim/eval_program.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "util/error.h"

namespace sw::wavesim {

namespace {

std::uint64_t stage_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The one-stage program of a single gate: slot j reads primary column j.
ProgramSpec identity_program(const sw::core::GateSpec& gate) {
  ProgramSpec program;
  program.num_primary_inputs = gate.num_inputs;
  StageSpec stage{gate, {}};
  const std::size_t slots = gate.num_inputs * gate.frequencies.size();
  for (std::size_t j = 0; j < slots; ++j) {
    stage.sources.push_back({SlotSource::Kind::kPrimary, 0,
                             static_cast<std::uint32_t>(j), false});
  }
  program.stages.push_back(std::move(stage));
  return program;
}

}  // namespace

std::size_t ProgramSpec::depth() const {
  std::vector<std::size_t> d(stages.size(), 0);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    std::size_t fanin = 0;
    for (const SlotSource& src : stages[s].sources) {
      if (src.kind == SlotSource::Kind::kStage) {
        fanin = std::max(fanin, d[src.stage]);
      }
    }
    d[s] = fanin + 1;
  }
  return d.empty() ? 0 : d.back();
}

void ProgramSpec::validate() const {
  SW_REQUIRE(!stages.empty(), "program needs at least one stage");
  SW_REQUIRE(num_primary_inputs >= 1,
             "program needs at least one primary input");
  const std::size_t n = stages.front().gate.frequencies.size();
  SW_REQUIRE(n >= 1, "program stages need at least one channel");
  const std::size_t primary_slots = num_primary_inputs * n;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageSpec& st = stages[s];
    SW_REQUIRE(st.gate.frequencies.size() == n,
               "every stage must share the program's channel count");
    SW_REQUIRE(st.gate.num_inputs >= 1, "stage gate needs inputs");
    SW_REQUIRE(st.sources.size() == st.gate.num_inputs * n,
               "stage sources must cover num_inputs x num_channels slots");
    for (const SlotSource& src : st.sources) {
      switch (src.kind) {
        case SlotSource::Kind::kZero:
        case SlotSource::Kind::kOne:
          break;
        case SlotSource::Kind::kPrimary:
          SW_REQUIRE(src.index < primary_slots,
                     "slot source reads past the primary matrix");
          break;
        case SlotSource::Kind::kStage:
          SW_REQUIRE(src.stage < s,
                     "slot source must reference a strictly earlier stage");
          SW_REQUIRE(src.index < n,
                     "slot source reads past the stage's channels");
          break;
        default:
          throw sw::util::Error("unknown slot source kind");
      }
    }
  }
}

EvalStage::EvalStage(sw::core::GateLayout layout, const WaveEngine& engine,
                     double freq_tol, Precision precision)
    : gate_(std::move(layout), engine), plan_(gate_, freq_tol, precision) {}

EvalStage::EvalStage(const sw::core::GateSpec& spec,
                     const sw::core::InlineGateDesigner& designer,
                     const WaveEngine& engine, double freq_tol,
                     Precision precision)
    : EvalStage(designer.design(spec), engine, freq_tol, precision) {}

EvalProgram::EvalProgram(ProgramSpec spec,
                         const sw::core::InlineGateDesigner& designer,
                         const WaveEngine& engine, BatchOptions options)
    : EvalProgram(
          std::move(spec),
          [&](const sw::core::GateSpec& gate, Precision precision) {
            return std::make_shared<const EvalStage>(
                gate, designer, engine, options.freq_tol, precision);
          },
          options) {}

EvalProgram::EvalProgram(ProgramSpec spec, const StageResolver& resolve,
                         BatchOptions options)
    : spec_(std::move(spec)), pool_(options.num_threads) {
  spec_.validate();
  options.precision = resolve_precision(options.precision);
  stages_.reserve(spec_.stages.size());
  for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
    const sw::core::GateSpec& gate = spec_.stages[s].gate;
    // Lowered programs repeat a handful of GateSpecs, so a linear scan of
    // the earlier stages finds the shared artefact.
    std::size_t same = 0;
    while (same < s && !(spec_.stages[same].gate == gate)) ++same;
    stages_.push_back(same < s ? stages_[same]
                               : resolve(gate, options.precision));
    max_slots_ = std::max(max_slots_, stages_.back()->plan().slot_count());
  }
  depth_ = spec_.depth();

  // The block's column table and where each stage slot reads in it.
  const std::size_t n = num_channels();
  const std::size_t prim = num_primary_slots();
  const std::size_t zeros = prim + stages_.size() * n;
  const std::size_t ones = zeros + 1;
  std::size_t copies = 0;
  for (const StageSpec& stage : spec_.stages) {
    slot_begin_.push_back(slot_columns_.size());
    negation_begin_.push_back(negations_.size());
    std::size_t stage_copies = 0;
    for (const SlotSource& src : stage.sources) {
      const bool one = src.kind == SlotSource::Kind::kOne;
      std::size_t column;
      if (one || src.kind == SlotSource::Kind::kZero) {
        // A pinned transducer: negating it pins the other phase.
        column = one != src.negated ? ones : zeros;
      } else {
        column = src.kind == SlotSource::Kind::kPrimary
                     ? src.index
                     : prim + src.stage * n + src.index;
        if (src.negated) {
          negations_.emplace_back(ones + 1 + stage_copies, column);
          column = ones + 1 + stage_copies++;
        }
      }
      slot_columns_.push_back(column);
    }
    copies = std::max(copies, stage_copies);
  }
  slot_begin_.push_back(slot_columns_.size());
  negation_begin_.push_back(negations_.size());
  num_columns_ = ones + 1 + copies - prim;
}

EvalProgram::EvalProgram(sw::core::GateLayout layout, const WaveEngine& engine,
                         BatchOptions options)
    : EvalProgram(
          identity_program(layout.spec),
          [&](const sw::core::GateSpec&, Precision precision) {
            return std::make_shared<const EvalStage>(
                std::move(layout), engine, options.freq_tol, precision);
          },
          options) {}

std::string EvalProgram::precision_label() const {
  std::string first = stages_.front()->plan().precision_label();
  bool uniform = true;
  for (const auto& stage : stages_) {
    if (stage->plan().precision_label() != first) {
      uniform = false;
      break;
    }
  }
  if (uniform) return first;
  std::string label = "mixed(";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s > 0) label += ",";
    label += stages_[s]->plan().precision_label();
  }
  label += ")";
  return label;
}

void EvalProgram::eval_block(const kernels::Kernel& kernel, std::size_t words,
                             const std::uint64_t* primary,
                             std::size_t primary_stride, std::uint64_t* columns,
                             std::size_t stride, const std::uint64_t** inputs,
                             std::uint64_t* last, std::size_t last_stride,
                             StageTimings* timings) const {
  const std::size_t n = num_channels();
  const std::size_t prim = num_primary_slots();
  const std::size_t num_stages = stages_.size();
  const auto table = [&](std::size_t t) { return columns + t * stride; };
  const auto source = [&](std::size_t k) -> const std::uint64_t* {
    return k < prim ? primary + k * primary_stride : table(k - prim);
  };
  // The zero column stays as the scratch was allocated; the ones column
  // follows it.
  std::fill_n(table(num_stages * n + 1), stride, ~std::uint64_t{0});
  std::uint64_t stage_start = timings ? stage_clock_ns() : 0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    // A negated source is read through its complemented copy: one XOR per
    // 64 words, the drive-phase flip.
    for (std::size_t k = negation_begin_[s]; k < negation_begin_[s + 1]; ++k) {
      const std::uint64_t* src = source(negations_[k].second);
      std::uint64_t* copy = table(negations_[k].first - prim);
      for (std::size_t g = 0; g < kernels::column_words(words); ++g) {
        copy[g] = ~src[g];
      }
    }
    for (std::size_t j = slot_begin_[s]; j < slot_begin_[s + 1]; ++j) {
      inputs[j - slot_begin_[s]] = source(slot_columns_[j]);
    }
    const bool is_last = s + 1 == num_stages;
    kernel.eval_bits(stages_[s]->plan(), inputs, words,
                     is_last ? last : table(s * n),
                     is_last ? last_stride : stride);
    if (timings) {
      const std::uint64_t now = stage_clock_ns();
      timings->ns[s].fetch_add(now - stage_start, std::memory_order_relaxed);
      stage_start = now;
    }
  }
}

std::vector<std::uint64_t> EvalProgram::evaluate_columns(
    std::size_t num_words, std::span<const std::uint64_t> primary,
    const kernels::Kernel& kernel, StageTimings* timings) const {
  SW_REQUIRE(timings == nullptr || timings->ns.size() == stages_.size(),
             "stage timings must be sized num_stages");
  const std::size_t prim = num_primary_slots();
  const std::size_t n = num_channels();
  // column_words without the wrap of num_words + 63.
  const std::size_t col_words = num_words / 64 + (num_words % 64 != 0);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  SW_REQUIRE(col_words <= kMax / prim && primary.size() == prim * col_words,
             "primary columns must be primary_slot_count x "
             "column_words(num_words)");
  SW_REQUIRE(col_words <= kMax / n,
             "num_channels x column_words(num_words) overflows size_t");
  std::vector<std::uint64_t> out(n * col_words);
  detail::for_each_block(
      pool_, num_words, num_columns_, max_slots_,
      [&](std::size_t begin, std::size_t end, std::uint64_t* columns,
          std::size_t stride, const std::uint64_t** inputs) {
        const std::size_t g = begin / 64;
        eval_block(kernel, end - begin, primary.data() + g, col_words,
                   columns, stride, inputs, out.data() + g, col_words,
                   timings);
      });
  if (num_words % 64 != 0) {
    // The last group's padding lanes may hold verdicts.
    const std::uint64_t keep = (std::uint64_t{1} << (num_words % 64)) - 1;
    for (std::size_t ch = 0; ch < n; ++ch) {
      out[ch * col_words + col_words - 1] &= keep;
    }
  }
  return out;
}

std::vector<std::uint8_t> EvalProgram::evaluate_rows(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel, bool all_stages) const {
  const std::size_t prim = num_primary_slots();
  const std::size_t n = num_channels();
  const std::size_t num_stages = stages_.size();
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  SW_REQUIRE(prim == 0 || num_words <= kMax / prim,
             "num_words x primary_slot_count overflows size_t");
  SW_REQUIRE(bits.size() == num_words * prim,
             "packed primary matrix must be num_words x primary_slot_count");
  SW_REQUIRE(num_words <= kMax / (num_stages * n),
             "num_words x stage output count overflows size_t");

  const std::size_t first_out = all_stages ? 0 : num_stages - 1;
  const std::size_t out_cols = (num_stages - first_out) * n;
  std::vector<std::uint8_t> result(num_words * out_cols);
  // The block's primary columns follow the scratch table.
  detail::for_each_block(
      pool_, num_words, num_columns_ + prim, max_slots_,
      [&](std::size_t begin, std::size_t end, std::uint64_t* columns,
          std::size_t stride, const std::uint64_t** inputs) {
        const std::size_t words = end - begin;
        std::uint64_t* primary = columns + num_columns_ * stride;
        kernel.to_columns(bits.data() + begin * prim, prim, words, prim,
                          primary, stride);
        eval_block(kernel, words, primary, stride, columns, stride, inputs,
                   columns + (num_stages - 1) * n * stride, stride, nullptr);
        for (std::size_t t = first_out; t < num_stages; ++t) {
          kernel.to_rows(columns + t * n * stride, stride, words, n,
                         result.data() + begin * out_cols + (t - first_out) * n,
                         out_cols);
        }
      });
  return result;
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_rows(num_words, bits, kernels::active_kernel(), false);
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_rows(num_words, bits, kernel, false);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_rows(num_words, bits, kernels::active_kernel(), true);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_rows(num_words, bits, kernel, true);
}

}  // namespace sw::wavesim
