// The evaluation precision, a constant: every plan, kernel and decode runs
// in double. Served detectors decode from exact decision diagrams of the
// f64 phasor sum (see EvalPlan), and that sum, kernels::eval_bits, is the
// reference. Its name is what peers and scrapes read: the registry
// advert's precision field and the sw_serve_kernel_info label.
#pragma once

#include <cstdint>
#include <string_view>

namespace sw::wavesim {

enum class Precision : std::uint8_t {
  kFloat64,  ///< double plan arrays, bit-exact vs the scalar gate path
};

/// Canonical short name: "f64".
constexpr std::string_view precision_name(Precision) { return "f64"; }

/// The precision of every plan in the process.
constexpr Precision active_precision() { return Precision::kFloat64; }

}  // namespace sw::wavesim
