#include "wavesim/eval_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <limits>

#include "core/encoding.h"
#include "util/error.h"
#include "wavesim/wave_engine.h"

namespace sw::wavesim {

EvalPlan::EvalPlan(const sw::core::DataParallelGate& gate) {
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
    // Each contribution is the real part of the engine's own steady phasor
    // of that single source driven at phase 0 / pi, appended in scalar
    // source order, so a kernel summing the detector's range in index order
    // reproduces the real part of the scalar evaluation bitwise (x + 0 == x
    // keeps skipped sources invisible, but the match check below also keeps
    // the plan compact).
    for (const auto& s : layout.sources) {
      const double sf = freqs[s.channel];
      if (std::abs(sf - f) > kDefaultFreqTol * f) continue;
      WaveSource src;
      src.x = s.x;
      src.frequency = sf;
      src.amplitude = s.amplitude;
      src.phase = sw::core::kPhaseZero;
      re0_.push_back(engine.steady_phasor({&src, 1}, det.x, f).real());
      src.phase = sw::core::kPhaseOne;
      re1_.push_back(engine.steady_phasor({&src, 1}, det.x, f).real());
      slots_.push_back(
          static_cast<std::uint32_t>(s.channel * num_inputs_ + s.input));
    }
    det_channels_.push_back(det.channel);
    det_offsets_.push_back(re0_.size());
  }

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

}  // namespace sw::wavesim
