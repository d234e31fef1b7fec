#include "wavesim/eval_program.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "util/error.h"

namespace sw::wavesim {

namespace {

/// Words per fused sub-block: sized so one block's slot matrix plus every
/// stage's output bits stay within L2 while still amortising the per-stage
/// kernel call over enough words for the SIMD lanes to matter.
constexpr std::size_t kBlockWords = 1024;

std::uint64_t stage_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// dst[c * dst_stride + r] = src[r * src_stride + c] for r < rows,
/// c < cols. Whole 8x8 byte tiles move as eight u64 rows transposed in
/// registers (three rounds of masked swaps: 4x4, 2x2, then 1x1 blocks), so
/// a tile costs eight loads and eight stores instead of 64 byte moves.
void transpose_bytes(const std::uint8_t* src, std::size_t src_stride,
                     std::size_t rows, std::size_t cols, std::uint8_t* dst,
                     std::size_t dst_stride) {
  const auto scalar = [&](std::size_t r0, std::size_t r1, std::size_t c0,
                          std::size_t c1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c = c0; c < c1; ++c) {
        dst[c * dst_stride + r] = src[r * src_stride + c];
      }
    }
  };
  // The register rounds assume byte k of a row sits in bits 8k..8k+7.
  if constexpr (std::endian::native != std::endian::little) {
    scalar(0, rows, 0, cols);
    return;
  }
  const std::size_t rows8 = rows & ~std::size_t{7};
  const std::size_t cols8 = cols & ~std::size_t{7};
  for (std::size_t r0 = 0; r0 < rows8; r0 += 8) {
    for (std::size_t c0 = 0; c0 < cols8; c0 += 8) {
      std::uint64_t x[8];
      for (std::size_t i = 0; i < 8; ++i) {
        std::memcpy(&x[i], src + (r0 + i) * src_stride + c0, 8);
      }
      for (std::size_t i = 0; i < 4; ++i) {
        const std::uint64_t t = ((x[i] >> 32) ^ x[i + 4]) & 0xFFFFFFFFull;
        x[i] ^= t << 32;
        x[i + 4] ^= t;
      }
      for (const std::size_t i : {0, 1, 4, 5}) {
        const std::uint64_t t =
            ((x[i] >> 16) ^ x[i + 2]) & 0x0000FFFF0000FFFFull;
        x[i] ^= t << 16;
        x[i + 2] ^= t;
      }
      for (const std::size_t i : {0, 2, 4, 6}) {
        const std::uint64_t t =
            ((x[i] >> 8) ^ x[i + 1]) & 0x00FF00FF00FF00FFull;
        x[i] ^= t << 8;
        x[i + 1] ^= t;
      }
      for (std::size_t i = 0; i < 8; ++i) {
        std::memcpy(dst + (c0 + i) * dst_stride + r0, &x[i], 8);
      }
    }
  }
  scalar(0, rows8, cols8, cols);
  scalar(rows8, rows, 0, cols);
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

/// One pool chunk's block buffers, carved from a single uninitialised
/// allocation: every byte is written before it is read.
struct EvalProgram::BlockScratch {
  BlockScratch(std::size_t block_words, std::size_t max_slots,
               std::size_t primary_slots, std::size_t stage_outputs)
      : storage(std::make_unique_for_overwrite<std::uint8_t[]>(
            block_words *
            (2 * max_slots + primary_slots + 2 * stage_outputs))),
        slots(storage.get()),
        columns(slots + block_words * max_slots),
        primary(columns + block_words * max_slots),
        stage_out(primary + block_words * primary_slots),
        stage_cols(stage_out + block_words * stage_outputs) {}

  std::unique_ptr<std::uint8_t[]> storage;
  std::uint8_t* slots;       ///< words x stage slots: the kernel's input
  std::uint8_t* columns;     ///< stage slots x words: the same, slot-major
  std::uint8_t* primary;     ///< primary slots x words: the block's input
  std::uint8_t* stage_out;   ///< per stage, words x channels (kernel output)
  std::uint8_t* stage_cols;  ///< per stage, channels x words
};

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
  identity_ = spec_ == identity_program(spec_.stages.front().gate);
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

void EvalProgram::eval_range(const kernels::Kernel& kernel,
                             std::span<const std::uint8_t> bits,
                             std::size_t begin, std::size_t end,
                             BlockScratch& scratch,
                             StageTimings* timings) const {
  const std::size_t block = end - begin;
  const std::size_t n = num_channels();
  const std::size_t prim = num_primary_slots();
  // The gather works slot-major: with the block's primary matrix and every
  // stage's outputs transposed to one contiguous column per slot or
  // channel, each input slot's word loop is a plain fill or an XORed copy.
  // The primary transpose is charged to stage 0.
  std::uint64_t stage_start = timings ? stage_clock_ns() : 0;
  transpose_bytes(bits.data() + begin * prim, prim, block, prim,
                  scratch.primary, block);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const EvalPlan& plan = stages_[s]->plan();
    const auto& sources = spec_.stages[s].sources;
    const std::size_t slots = plan.slot_count();
    // Gather: re-encode this stage's drive bits from constants, primary
    // columns and earlier stages' decoded verdicts, one slot at a time —
    // the source kind is decided once per slot, not per word. A negated
    // source is one XOR — the physical drive-phase flip costs nothing here
    // either.
    for (std::size_t j = 0; j < slots; ++j) {
      const SlotSource& src = sources[j];
      const auto flip = static_cast<std::uint8_t>(src.negated ? 1 : 0);
      std::uint8_t* col = scratch.columns + j * block;
      switch (src.kind) {
        case SlotSource::Kind::kZero:
        case SlotSource::Kind::kOne:
          std::memset(col, (src.kind == SlotSource::Kind::kOne ? 1 : 0) ^ flip,
                      block);
          break;
        case SlotSource::Kind::kPrimary: {
          const std::uint8_t* in = scratch.primary + src.index * block;
          for (std::size_t w = 0; w < block; ++w) {
            col[w] = static_cast<std::uint8_t>(
                static_cast<std::uint8_t>(in[w] != 0) ^ flip);
          }
          break;
        }
        case SlotSource::Kind::kStage: {
          const std::uint8_t* in =
              scratch.stage_cols + (src.stage * n + src.index) * block;
          for (std::size_t w = 0; w < block; ++w) col[w] = in[w] ^ flip;
          break;
        }
      }
    }
    transpose_bytes(scratch.columns, block, slots, block, scratch.slots,
                    slots);
    // Decode through the stage plan's own precision verdicts.
    std::uint8_t* out = scratch.stage_out + s * block * n;
    kernels::eval_plan_bits(kernel, plan, scratch.slots, 0, block, out);
    if (s + 1 < stages_.size()) {
      transpose_bytes(out, n, block, n, scratch.stage_cols + s * n * block,
                      block);
    }
    if (timings) {
      const std::uint64_t now = stage_clock_ns();
      timings->ns[s].fetch_add(now - stage_start, std::memory_order_relaxed);
      stage_start = now;
    }
  }
}

std::vector<std::uint8_t> EvalProgram::evaluate_impl(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel, bool all_stages,
    StageTimings* timings) const {
  SW_REQUIRE(timings == nullptr || timings->ns.size() == stages_.size(),
             "stage timings must be sized num_stages");
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

  const std::size_t out_cols = all_stages ? num_stages * n : n;
  std::vector<std::uint8_t> result(num_words * out_cols);
  if (identity_) {
    // The caller's rows are the kernel's input: each pool chunk decodes in
    // place, with no transposes and no scratch.
    const EvalPlan& plan = stages_.front()->plan();
    pool_.parallel_for(num_words, [&](std::size_t begin, std::size_t end) {
      const std::uint64_t start = timings ? stage_clock_ns() : 0;
      kernels::eval_plan_bits(kernel, plan, bits.data(), begin, end,
                              result.data());
      if (timings) {
        timings->ns[0].fetch_add(stage_clock_ns() - start,
                                 std::memory_order_relaxed);
      }
    });
    return result;
  }
  pool_.parallel_for(num_words, [&](std::size_t chunk_begin,
                                    std::size_t chunk_end) {
    BlockScratch scratch(std::min(kBlockWords, chunk_end - chunk_begin),
                         max_slots_, prim, num_stages * n);
    for (std::size_t begin = chunk_begin; begin < chunk_end;
         begin += kBlockWords) {
      const std::size_t end = std::min(begin + kBlockWords, chunk_end);
      const std::size_t block = end - begin;
      eval_range(kernel, bits, begin, end, scratch, timings);
      if (all_stages) {
        for (std::size_t w = 0; w < block; ++w) {
          std::uint8_t* dst = result.data() + (begin + w) * out_cols;
          for (std::size_t s = 0; s < num_stages; ++s) {
            std::memcpy(dst + s * n, scratch.stage_out + s * block * n + w * n,
                        n);
          }
        }
      } else {
        std::memcpy(result.data() + begin * n,
                    scratch.stage_out + (num_stages - 1) * block * n,
                    block * n);
      }
    }
  });
  return result;
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), false,
                       nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_impl(num_words, bits, kernel, false, nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    StageTimings* timings) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), false,
                       timings);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits) const {
  return evaluate_impl(num_words, bits, kernels::active_kernel(), true,
                       nullptr);
}

std::vector<std::uint8_t> EvalProgram::evaluate_all_bits(
    std::size_t num_words, std::span<const std::uint8_t> bits,
    const kernels::Kernel& kernel) const {
  return evaluate_impl(num_words, bits, kernel, true, nullptr);
}

}  // namespace sw::wavesim
