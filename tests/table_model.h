// Decision diagrams read one assignment at a time, bit by bit: a model of
// Kernel::eval_tables that shares no code with any kernel, checked against
// the scalar gate path (DataParallelGate::evaluate).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/encoding.h"
#include "core/gate.h"
#include "wavesim/eval_plan.h"

namespace sw::testing {

/// The value of `diagram` where slot s holds slot_bits[s].
inline bool read_diagram(const sw::wavesim::TableDiagram& diagram,
                         const std::vector<std::uint8_t>& slot_bits) {
  std::vector<bool> values{false, true};
  for (const sw::wavesim::TableMux& m : diagram.muxes) {
    values.push_back(slot_bits[m.slot] != 0 ? values[m.hi] : values[m.lo]);
  }
  return values[diagram.root];
}

/// Detector d's diagram, as the plan holds it.
inline sw::wavesim::TableDiagram plan_diagram(const sw::wavesim::EvalPlan& plan,
                                              std::size_t d) {
  const auto muxes = plan.table_muxes(d);
  return {{muxes.begin(), muxes.end()}, plan.table_root(d)};
}

/// The distinct slots detector d reads, in order of first use.
inline std::vector<std::uint32_t> detector_slots(
    const sw::wavesim::EvalPlan& plan, std::size_t d) {
  const auto offsets = plan.detector_offsets();
  std::vector<std::uint32_t> vars;
  for (std::size_t i = offsets[d]; i < offsets[d + 1]; ++i) {
    if (std::find(vars.begin(), vars.end(), plan.slots()[i]) == vars.end()) {
      vars.push_back(plan.slots()[i]);
    }
  }
  return vars;
}

/// Every detector of `gate`'s plan is tabulated, and each of the 2^k
/// assignments of its k distinct slots (every other slot 0), read through
/// its diagram, equals the scalar gate path's decode of that detector.
inline void expect_tables_match_gate(const sw::core::DataParallelGate& gate,
                                     const sw::wavesim::EvalPlan& plan) {
  ASSERT_TRUE(plan.tabulated());
  const std::size_t n = plan.num_channels();
  const std::size_t m = plan.num_inputs();
  for (std::size_t d = 0; d < plan.num_detectors(); ++d) {
    const std::vector<std::uint32_t> vars = detector_slots(plan, d);
    ASSERT_LE(vars.size(), sw::wavesim::kMaxTableInputs);
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
