#include "wavesim/eval_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <limits>
#include <numeric>

#include "core/encoding.h"
#include "util/error.h"
#include "wavesim/wave_engine.h"

namespace sw::wavesim {

namespace {

/// Per-detector contribution count above which the exhaustive 2^k
/// validation sweep is refused (2^24 float adds per detector is already
/// ~0.1 s; real layouts sit at k = m, a handful). A detector too wide to
/// validate runs an f64 rescue lane rather than trusting the error bound
/// alone.
constexpr std::size_t kMaxValidatedContributions = 24;

/// How much head-room a detector's double-precision decode margin must
/// have over its worst-case f32 accumulation error before f32 is accepted.
/// The paper's layouts clear this by many orders of magnitude; a detector
/// within one order of magnitude of flipping a bit has no business running
/// in single precision even if today's enumeration happens to pass.
constexpr double kMarginSafetyFactor = 8.0;

}  // namespace

EvalPlan::EvalPlan(const sw::core::DataParallelGate& gate,
                   Precision precision)
    : requested_(resolve_precision(precision)) {
  const auto& layout = gate.layout();
  const auto& engine = gate.engine();
  const auto& freqs = layout.spec.frequencies;
  num_channels_ = freqs.size();
  num_inputs_ = layout.spec.num_inputs;
  SW_REQUIRE(slot_count() <= std::numeric_limits<std::uint32_t>::max(),
             "slot count exceeds the plan's 32-bit slot index range");

  det_offsets_.reserve(layout.detectors.size() + 1);
  det_offsets_.push_back(0);
  det_channels_.reserve(layout.detectors.size());
  for (const auto& det : layout.detectors) {
    const double f = freqs[det.channel];
    // Each contribution is the engine's own steady phasor of that single
    // source driven at phase 0 / pi, appended in scalar source order, so a
    // kernel summing the detector's range in index order reproduces the
    // scalar evaluation bitwise (x + 0 == x keeps skipped sources
    // invisible, but the match check below also keeps the plan compact).
    for (const auto& s : layout.sources) {
      const double sf = freqs[s.channel];
      if (std::abs(sf - f) > kDefaultFreqTol * f) continue;
      WaveSource src;
      src.x = s.x;
      src.frequency = sf;
      src.amplitude = s.amplitude;
      src.phase = sw::core::kPhaseZero;
      const std::complex<double> zero =
          engine.steady_phasor({&src, 1}, det.x, f);
      src.phase = sw::core::kPhaseOne;
      const std::complex<double> one =
          engine.steady_phasor({&src, 1}, det.x, f);
      re0_.push_back(zero.real());
      im0_.push_back(zero.imag());
      re1_.push_back(one.real());
      im1_.push_back(one.imag());
      slots_.push_back(
          static_cast<std::uint32_t>(s.channel * num_inputs_ + s.input));
      channels_.push_back(static_cast<std::uint32_t>(s.channel));
      inputs_.push_back(static_cast<std::uint32_t>(s.input));
    }
    det_channels_.push_back(det.channel);
    det_offsets_.push_back(re0_.size());
  }

  det_results_.resize(det_channels_.size());
  std::iota(det_results_.begin(), det_results_.end(), std::size_t{0});

  if (requested_ == Precision::kFloat32) build_f32();
  build_tables();
}

TableDiagram compile_diagram(std::span<const std::uint64_t> table,
                             std::span<const std::uint32_t> vars) {
  const std::size_t k = vars.size();
  SW_REQUIRE(k <= kMaxTableInputs,
             "a decision diagram takes at most kMaxTableInputs variables");
  const std::size_t entries = std::size_t{1} << k;
  SW_REQUIRE(table.size() == (entries + 63) / 64,
             "a truth table over k variables holds 2^k bits");
  TableDiagram diagram;
  // The unique table that shares cofactors: per variable, the values of the
  // muxes made on it so far (a level holds a few for a threshold function).
  std::array<std::vector<std::uint16_t>, kMaxTableInputs> made;
  // The value of entries [first, first + 2^j), a function of variables
  // [0, j): Shannon expansion on variable j - 1, children first, so the
  // mux list comes out in evaluation order.
  const auto build = [&](const auto& self, std::size_t j,
                         std::size_t first) -> std::uint16_t {
    if (j == 0) {
      return static_cast<std::uint16_t>((table[first / 64] >> (first % 64)) &
                                        1);
    }
    const std::uint16_t lo = self(self, j - 1, first);
    const std::uint16_t hi =
        self(self, j - 1, first + (std::size_t{1} << (j - 1)));
    if (lo == hi) return lo;
    for (const std::uint16_t value : made[j - 1]) {
      const TableMux& mux = diagram.muxes[value - 2];
      if (mux.lo == lo && mux.hi == hi) return value;
    }
    const auto value = static_cast<std::uint16_t>(diagram.muxes.size() + 2);
    made[j - 1].push_back(value);
    diagram.muxes.push_back({vars[j - 1], lo, hi});
    return value;
  };
  diagram.root = build(build, k, 0);
  return diagram;
}

std::optional<DetectorTable> tabulate_detector(
    std::span<const double> re0, std::span<const double> re1,
    std::span<const std::uint32_t> slots) {
  SW_REQUIRE(re0.size() == slots.size() && re1.size() == slots.size(),
             "a detector's constants and slots pair up");
  DetectorTable table;
  std::vector<std::uint8_t> var_of;
  std::vector<char> first_use;
  for (const std::uint32_t slot : slots) {
    const auto var = static_cast<std::size_t>(
        std::find(table.vars.begin(), table.vars.end(), slot) -
        table.vars.begin());
    first_use.push_back(var == table.vars.size());
    if (first_use.back()) {
      if (var == kMaxTableInputs) return std::nullopt;
      table.vars.push_back(slot);
    }
    var_of.push_back(static_cast<std::uint8_t>(var));
  }
  table.bits.assign(((std::size_t{1} << table.vars.size()) + 63) / 64, 0);
  // Depth first over the contributions in plan order: one that reads a
  // slot for the first time branches on its bit, a later one on that slot
  // follows the bit already chosen. Each leaf's sum is then its
  // assignment's accumulation in plan order from 0.0, the additions
  // eval_bits performs, and a prefix shared by many assignments is added
  // once.
  const auto visit = [&](const auto& self, std::size_t c, std::size_t a,
                         double sum) -> void {
    if (c == slots.size()) {
      if (sum < 0.0) table.bits[a / 64] |= std::uint64_t{1} << (a % 64);
      return;
    }
    const std::size_t bit = std::size_t{1} << var_of[c];
    if (first_use[c]) {
      self(self, c + 1, a, sum + re0[c]);
      self(self, c + 1, a | bit, sum + re1[c]);
    } else {
      self(self, c + 1, a, sum + ((a & bit) != 0 ? re1[c] : re0[c]));
    }
  };
  visit(visit, 0, 0, 0.0);
  return table;
}

void EvalPlan::build_tables() {
  // All or nothing: one detector too wide leaves the plan untabulated, and
  // every detector of it decodes by phasor sum.
  const std::size_t nd = num_detectors();
  table_offsets_.assign(nd + 1, 0);
  table_roots_.assign(nd, 0);
  std::vector<TableMux> muxes;
  std::vector<std::uint16_t> roots(nd);
  std::vector<std::size_t> offsets{0};
  std::size_t max_muxes = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t begin = det_offsets_[d];
    const std::size_t count = det_offsets_[d + 1] - begin;
    const std::optional<DetectorTable> table = tabulate_detector(
        std::span<const double>(re0_).subspan(begin, count),
        std::span<const double>(re1_).subspan(begin, count),
        std::span<const std::uint32_t>(slots_).subspan(begin, count));
    if (!table) return;
    const TableDiagram diagram = compile_diagram(table->bits, table->vars);
    muxes.insert(muxes.end(), diagram.muxes.begin(), diagram.muxes.end());
    roots[d] = diagram.root;
    offsets.push_back(muxes.size());
    max_muxes = std::max(max_muxes, diagram.muxes.size());
  }
  tabulated_ = true;
  table_muxes_ = std::move(muxes);
  table_offsets_ = std::move(offsets);
  table_roots_ = std::move(roots);
  max_table_muxes_ = max_muxes;
}

void EvalPlan::build_f32() {
  // A detector's decode depends only on the bits governing its own
  // contributions, so enumerating all 2^k bit assignments per detector
  // covers every input word the plan can ever see. (If two contributions
  // shared a slot the enumeration would visit a superset of the reachable
  // sign patterns — still conservative.) For each assignment the f64 sum
  // gives the true decode margin and a replay of the exact f32 kernel
  // accumulation (constants rounded to float, summed in index order in
  // float) gives the decode f32 would serve. A detector is accepted only
  // if every reachable decode matches AND its smallest margin clears the
  // analytic worst-case error bound with kMarginSafetyFactor of head-room;
  // either test alone would do, together they guard both the enumerated
  // reality and the non-enumerable neighbourhood (e.g. non-canonical bit
  // bytes route through the same sign selection, so no new sums arise).
  //
  // The verdict is per detector. Rejected detectors don't demote the plan:
  // they are moved behind the accepted ones (partition_detectors) and
  // served by f64 rescue lanes, so one thin-margin detector costs its own
  // lane, not the whole layout's f32 speedup.
  constexpr double kEps32 = 1.1920928955078125e-7;  // 2^-23

  const std::size_t nd = num_detectors();
  std::vector<char> accepted(nd, 0);
  double min_margin = std::numeric_limits<double>::infinity();
  double max_bound = 0.0;
  std::string first_reason;
  auto reject = [&](const char* why) {
    if (first_reason.empty()) first_reason = why;
  };

  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t begin = det_offsets_[d];
    const std::size_t k = det_offsets_[d + 1] - begin;
    if (k > kMaxValidatedContributions) {
      reject("detector has too many contributions to validate exhaustively");
      continue;
    }
    // Worst-case |float sum - double sum|: each constant rounds once on
    // conversion (<= eps/2 relative) and each of the k-1 adds rounds once
    // (<= eps/2 of a partial sum bounded by the absolute-value sum), so
    // (k + 1) * eps/2 * sum|c| over-covers both with first-order slack
    // absorbed by the safety factor.
    double abs_sum = 0.0;
    for (std::size_t i = begin; i < begin + k; ++i) {
      abs_sum += std::max(std::abs(re0_[i]), std::abs(re1_[i]));
    }
    const double bound =
        0.5 * static_cast<double>(k + 1) * kEps32 * abs_sum;
    max_bound = std::max(max_bound, bound);

    double det_margin = std::numeric_limits<double>::infinity();
    bool decode_ok = true;
    const std::size_t combos = std::size_t{1} << k;
    for (std::size_t bits = 0; bits < combos; ++bits) {
      double sum64 = 0.0;
      float sum32 = 0.0f;
      for (std::size_t i = 0; i < k; ++i) {
        const bool set = (bits >> i) & 1u;
        const double c = set ? re1_[begin + i] : re0_[begin + i];
        sum64 += c;
        sum32 += static_cast<float>(c);
      }
      if ((sum64 < 0.0) != (static_cast<double>(sum32) < 0.0)) {
        decode_ok = false;
      }
      det_margin = std::min(det_margin, std::abs(sum64));
    }
    min_margin = std::min(min_margin, det_margin);
    if (!decode_ok) {
      reject("validation sweep found a bit assignment whose f32 decode "
             "disagrees with the double plan");
      continue;
    }
    if (det_margin < kMarginSafetyFactor * bound) {
      reject("decode margin too thin for f32 accumulation error");
      continue;
    }
    accepted[d] = 1;
    ++num_f32_detectors_;
  }

  min_decode_margin_ = std::isinf(min_margin) ? 0.0 : min_margin;
  f32_error_bound_ = max_bound;
  num_rescue_ = nd - num_f32_detectors_;

  if (num_f32_detectors_ == 0) {
    if (num_rescue_ > 0) {
      f32_rejection_ = first_reason + "; serving the double plan";
    }
    return;  // degenerate: exactly the f64 plan (empty-layout case included)
  }
  if (num_rescue_ > 0) {
    partition_detectors(accepted);
    f32_rejection_ = std::to_string(num_rescue_) + " of " +
                     std::to_string(nd) + " detectors rejected (" +
                     first_reason + "); serving f64 rescue lanes for them";
  }

  // Float mirrors over the accepted (now leading) detectors' contributions
  // only — the rescue lanes never read them.
  const std::size_t nf = det_offsets_[num_f32_detectors_];
  re0_f32_.reserve(nf);
  re1_f32_.reserve(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    re0_f32_.push_back(static_cast<float>(re0_[i]));
    re1_f32_.push_back(static_cast<float>(re1_[i]));
  }
}

void EvalPlan::partition_detectors(const std::vector<char>& accepted) {
  // Stable two-run permutation: accepted detectors first, rescued after,
  // each run in original layout order. Rebuilds every detector-indexed and
  // contribution-indexed array in permuted order; det_results_ remembers
  // each plan-order detector's original layout position so result rows
  // never observe the reorder.
  const std::size_t nd = det_channels_.size();
  std::vector<std::size_t> order;
  order.reserve(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    if (accepted[d]) order.push_back(d);
  }
  for (std::size_t d = 0; d < nd; ++d) {
    if (!accepted[d]) order.push_back(d);
  }

  std::vector<std::size_t> offsets;
  std::vector<std::size_t> channels;
  std::vector<std::size_t> results;
  offsets.reserve(nd + 1);
  offsets.push_back(0);
  channels.reserve(nd);
  results.reserve(nd);
  sw::util::AlignedVector<double> re0, im0, re1, im1;
  sw::util::AlignedVector<std::uint32_t> slots, chans, inputs;
  re0.reserve(re0_.size());
  im0.reserve(im0_.size());
  re1.reserve(re1_.size());
  im1.reserve(im1_.size());
  slots.reserve(slots_.size());
  chans.reserve(channels_.size());
  inputs.reserve(inputs_.size());

  for (const std::size_t d : order) {
    const std::size_t begin = det_offsets_[d];
    const std::size_t end = det_offsets_[d + 1];
    for (std::size_t i = begin; i < end; ++i) {
      re0.push_back(re0_[i]);
      im0.push_back(im0_[i]);
      re1.push_back(re1_[i]);
      im1.push_back(im1_[i]);
      slots.push_back(slots_[i]);
      chans.push_back(channels_[i]);
      inputs.push_back(inputs_[i]);
    }
    channels.push_back(det_channels_[d]);
    results.push_back(det_results_[d]);
    offsets.push_back(re0.size());
  }

  det_offsets_ = std::move(offsets);
  det_channels_ = std::move(channels);
  det_results_ = std::move(results);
  re0_ = std::move(re0);
  im0_ = std::move(im0);
  re1_ = std::move(re1);
  im1_ = std::move(im1);
  slots_ = std::move(slots);
  channels_ = std::move(chans);
  inputs_ = std::move(inputs);
}

std::string EvalPlan::precision_label() const {
  if (has_f32()) return "f32";
  if (!is_block()) return "f64";
  return "block-f32(" + std::to_string(num_f32_detectors_) + "/" +
         std::to_string(num_detectors()) + ")";
}

}  // namespace sw::wavesim
