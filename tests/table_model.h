// Decision diagrams read assignment by assignment, and the enumeration
// oracle they must equal: a model of Kernel::eval_tables and of
// build_diagram that shares no code with either, checked against the f64
// sum and the scalar gate path (DataParallelGate::evaluate).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/encoding.h"
#include "core/gate.h"
#include "wavesim/eval_plan.h"

namespace sw::testing {

/// The diagram's verdicts on 64 assignments at once: bit b of column(s) is
/// slot s's bit in assignment b.
template <typename Column>
std::uint64_t read_diagram_64(const sw::wavesim::TableDiagram& diagram,
                              const Column& column) {
  std::vector<std::uint64_t> values{0, ~std::uint64_t{0}};
  for (const sw::wavesim::TableMux& m : diagram.muxes) {
    const std::uint64_t x = column(m.slot);
    values.push_back((values[m.lo] & ~x) | (values[m.hi] & x));
  }
  return values[diagram.root];
}

/// The value of `diagram` where slot s holds slot_bits[s].
inline bool read_diagram(const sw::wavesim::TableDiagram& diagram,
                         const std::vector<std::uint8_t>& slot_bits) {
  return (read_diagram_64(diagram, [&](std::uint32_t s) {
            return slot_bits[s] != 0 ? ~std::uint64_t{0} : 0;
          }) & 1) != 0;
}

/// Detector d's diagram, as the plan holds it.
inline sw::wavesim::TableDiagram plan_diagram(const sw::wavesim::EvalPlan& plan,
                                              std::size_t d) {
  const auto muxes = plan.table_muxes(d);
  return {{muxes.begin(), muxes.end()}, plan.table_root(d)};
}

/// Detector d's contributions: its constants and the slot each reads.
struct Contributions {
  std::span<const double> re0;
  std::span<const double> re1;
  std::span<const std::uint32_t> slots;
};

inline Contributions detector_contributions(const sw::wavesim::EvalPlan& plan,
                                            std::size_t d) {
  const auto offsets = plan.detector_offsets();
  const std::size_t begin = offsets[d];
  const std::size_t count = offsets[d + 1] - begin;
  return {plan.re0().subspan(begin, count), plan.re1().subspan(begin, count),
          plan.slots().subspan(begin, count)};
}

/// A detector's exact truth table by enumeration: entry a (bit a % 64 of
/// bits[a / 64]) is its verdict where contribution i reads bit i of a.
struct DetectorTable {
  std::size_t num_vars = 0;
  std::vector<std::uint64_t> bits;

  bool at(std::size_t a) const {
    return ((bits[a / 64] >> (a % 64)) & 1) != 0;
  }
};

/// The enumeration oracle: for each of the 2^k assignments, the constants
/// summed in contribution order from 0.0 (the accumulation eval_bits
/// performs), verdict sum < 0. Depth first, so a prefix shared by many
/// assignments is added once.
inline DetectorTable tabulate_detector(const Contributions& c) {
  const std::size_t k = c.slots.size();
  EXPECT_LE(k, 24u) << "the oracle enumerates 2^k sums";
  DetectorTable table{k, {}};
  table.bits.resize(((std::size_t{1} << k) + 63) / 64);
  const auto visit = [&](const auto& self, std::size_t i, std::size_t a,
                         double sum) -> void {
    if (i == k) {
      if (sum < 0.0) table.bits[a / 64] |= std::uint64_t{1} << (a % 64);
      return;
    }
    self(self, i + 1, a, sum + c.re0[i]);
    self(self, i + 1, a | (std::size_t{1} << i), sum + c.re1[i]);
  };
  visit(visit, 0, 0, 0.0);
  return table;
}

/// Muxes of the reduced ordered diagram of `table`, variable 0 on top: per
/// level c, the distinct sub-functions left by fixing variables 0..c-1
/// that depend on variable c.
inline std::size_t reduced_size(const DetectorTable& table) {
  const std::size_t k = table.num_vars;
  std::size_t muxes = 0;
  for (std::size_t c = 0; c < k; ++c) {
    std::set<std::vector<bool>> level;
    for (std::size_t p = 0; p < (std::size_t{1} << c); ++p) {
      // Entry j of the sub-function is assignment p + j * 2^c, so
      // variable c is bit 0 of j.
      std::vector<bool> sub;
      bool depends = false;
      for (std::size_t j = 0; j < (std::size_t{1} << (k - c)); ++j) {
        sub.push_back(table.at(p + (j << c)));
        depends = depends || (j % 2 == 1 && sub[j] != sub[j - 1]);
      }
      if (depends) level.insert(std::move(sub));
    }
    muxes += level.size();
  }
  return muxes;
}

/// The truth table `diagram` computes where contribution i reads slot
/// slots[i] (variable i of the table), 64 assignments per u64.
inline std::vector<std::uint64_t> diagram_table(
    const sw::wavesim::TableDiagram& diagram,
    std::span<const std::uint32_t> slots) {
  // Bit b of word w is assignment 64w + b: variable i < 6 follows a fixed
  // pattern within the word, a higher one is constant across it.
  constexpr std::uint64_t kLowVars[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::size_t k = slots.size();
  // The same diagram over variable indices instead of slots.
  sw::wavesim::TableDiagram by_var = diagram;
  for (sw::wavesim::TableMux& m : by_var.muxes) {
    m.slot = static_cast<std::uint32_t>(
        std::find(slots.begin(), slots.end(), m.slot) - slots.begin());
  }
  std::vector<std::uint64_t> bits(((std::size_t{1} << k) + 63) / 64);
  for (std::size_t w = 0; w < bits.size(); ++w) {
    bits[w] = read_diagram_64(by_var, [&](std::uint32_t i) {
      if (i < 6) return kLowVars[i];
      return ((w >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
    });
  }
  if (k < 6) bits[0] &= (std::uint64_t{1} << (std::size_t{1} << k)) - 1;
  return bits;
}

/// Every detector of `plan` is tabulated, and its diagram is the reduced
/// ordered diagram of the enumeration oracle's table: the same verdict on
/// all 2^k assignments, and as many muxes.
inline void expect_diagrams_match_oracle(const sw::wavesim::EvalPlan& plan) {
  ASSERT_TRUE(plan.tabulated());
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    const Contributions c = detector_contributions(plan, d);
    const DetectorTable oracle = tabulate_detector(c);
    const sw::wavesim::TableDiagram diagram = plan_diagram(plan, d);
    EXPECT_EQ(diagram_table(diagram, c.slots), oracle.bits)
        << plan.num_channels() << " channels x " << plan.num_inputs()
        << " inputs, detector " << d;
    EXPECT_EQ(diagram.muxes.size(), reduced_size(oracle))
        << plan.num_channels() << " channels x " << plan.num_inputs()
        << " inputs, detector " << d;
  }
}

/// Every detector of `gate`'s plan is tabulated, and each of the 2^k
/// assignments of its k slots (every other slot 0), read through its
/// diagram, equals the scalar gate path's decode of that detector.
inline void expect_tables_match_gate(const sw::core::DataParallelGate& gate,
                                     const sw::wavesim::EvalPlan& plan) {
  ASSERT_TRUE(plan.tabulated());
  const std::size_t n = plan.num_channels();
  const std::size_t m = plan.num_inputs();
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    const auto vars = detector_contributions(plan, d).slots;
    const sw::wavesim::TableDiagram diagram = plan_diagram(plan, d);
    for (std::size_t a = 0; a < (std::size_t{1} << vars.size()); ++a) {
      std::vector<std::uint8_t> slot_bits(plan.slot_count(), 0);
      std::vector<sw::core::Bits> inputs(n, sw::core::Bits(m, 0));
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const auto bit = static_cast<std::uint8_t>((a >> i) & 1);
        slot_bits[vars[i]] = bit;
        inputs[vars[i] / m][vars[i] % m] = bit;
      }
      const auto results = gate.evaluate(inputs);
      ASSERT_EQ(read_diagram(diagram, slot_bits), results[d].logic != 0)
          << n << " channels x " << m << " inputs, detector " << d
          << ", assignment " << a;
    }
  }
}

}  // namespace sw::testing
