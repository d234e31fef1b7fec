// Frozen, layout-derived evaluation plan in structure-of-arrays form.
//
// For a fixed gate layout the contribution of source j to detector d is one
// of exactly two complex constants (launch phase 0 or pi). PR 1 stored the
// pair as an array of structs inside BatchEvaluator, which interleaved the
// phasor constants with indexing metadata and blocked vectorisation of the
// per-word accumulation. EvalPlan is the extracted, immutable artefact: the
// constants live in separate contiguous cache-line-aligned arrays
// (re0/re1), the per-contribution flat input-slot index in its own array,
// and detectors are described by [offset, offset+count) ranges over those
// arrays — exactly the shape the kernels in wavesim/kernels consume. A
// decode reads only the sign of a sum's real part, so the plan keeps only
// the real parts of the constants; a word's phase, amplitude and margin
// come from the physics path, DataParallelGate::evaluate.
//
// The arrays preserve scalar source order per detector, and every constant
// is produced by the same engine arithmetic as the scalar path, so any
// kernel that accumulates a detector's range in index order is bit-for-bit
// identical to DataParallelGate::evaluate by construction.
//
// Tables. A detector's verdict is a fixed Boolean function of the input
// slots its contributions read. The plan freezes it as that function's
// reduced ordered decision diagram, variables in summation order (the first
// contribution on top): a straight-line list of muxes over slot columns
// (TableMux) with shared cofactors, which the kernels' eval_tables runs on
// 64 words per u64. The diagram is exact: its verdict is the detector's f64
// constants summed in plan order from 0.0 (the accumulation
// kernels::eval_bits performs), verdict sum < 0, at any margin, a
// near-cancelling sum included.
//
// build_diagram makes it without enumerating assignments. Rounding to
// nearest keeps x -> fl(x + c) monotone, so for any bits of the later
// contributions the verdict is monotone in the partial sum, and every
// sub-function of the diagram is one interval of the f64 partial sum at its
// level. A node is that interval: the intersection of its two children's
// preimages under the node's two constants, each bound found by a bracketed
// search over ordered f64 bit patterns, and memoised per level (the
// interval construction of Abio et al., "A New Look at BDDs for
// Pseudo-Boolean Constraints", JAIR 45, 2012). The cost grows with the
// diagram, not with 2^k. A majority of m inputs is (m+1)^2/4 muxes. The
// plan is tabulated() when every detector's diagram fits kMaxTableMuxes; a
// plan with one larger detector keeps none.
//
// An EvalPlan is immutable after construction and holds no reference to the
// gate or engine, so it is safe to share across threads and to cache (see
// sw::serve::PlanCache, which stores one per layout and hands it to every
// request for that layout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/gate.h"
#include "util/aligned.h"

namespace sw::wavesim {

/// Most muxes a detector's decision diagram may have and still be
/// tabulated. A reduced ordered diagram over 11 variables has at most 509,
/// so this covers every detector of up to 11 inputs, and a majority of up
/// to 43 inputs ((m+1)^2/4 muxes). The kernels' scratch is 128 B per
/// diagram value per tile, about 64 KiB at the budget.
inline constexpr std::size_t kMaxTableMuxes = 512;

/// One mux of a decision diagram: its value is `hi` where the column of plan
/// slot `slot` has a 1 and `lo` where it has a 0. `lo` and `hi` name values
/// of the same diagram: 0 is the constant 0, 1 the constant 1, and r >= 2
/// the value of mux r - 2, which always comes earlier in the list.
struct TableMux {
  std::uint32_t slot = 0;
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;
};

/// A reduced ordered decision diagram: muxes in evaluation order and the
/// value (same naming as TableMux::lo) that is the verdict.
struct TableDiagram {
  std::vector<TableMux> muxes;
  std::uint16_t root = 0;
};

/// Builds the reduced ordered decision diagram of a detector whose
/// contribution c reads slot slots[c] and adds re0[c] on a 0, re1[c] on a
/// 1: its verdict is the constants summed in contribution order from 0.0,
/// sum < 0. Variable c is slot slots[c], so contribution 0 is on top, and
/// the muxes are listed a level at a time, the deepest first. Every slot
/// may be read once (a validated layout drives each slot from one source)
/// and every constant must be finite; anything else throws.
/// std::nullopt when the diagram has more than kMaxTableMuxes muxes: the
/// build stops at the first mux past the budget, and a detector reading
/// more slots than the budget is refused before any search, so the build
/// recurses at most kMaxTableMuxes deep.
std::optional<TableDiagram> build_diagram(std::span<const double> re0,
                                          std::span<const double> re1,
                                          std::span<const std::uint32_t> slots);

class EvalPlan {
 public:
  /// Builds the plan from the gate's layout via its engine (one
  /// steady-phasor solve per (detector, source, launch-phase) triple — the
  /// expensive per-layout cost the serve-layer cache amortises). Neither
  /// the gate nor the engine needs to outlive the plan. Sources match
  /// detectors within kDefaultFreqTol, the scalar path's one tolerance,
  /// which bit-exact equivalence requires.
  explicit EvalPlan(const sw::core::DataParallelGate& gate);

  std::size_t num_channels() const { return num_channels_; }
  std::size_t num_inputs() const { return num_inputs_; }
  /// Input slots per word: num_channels() * num_inputs(); the bit of input
  /// `in` on channel `ch` lives at flat column ch * num_inputs() + in.
  std::size_t slot_count() const { return num_channels_ * num_inputs_; }
  std::size_t num_detectors() const { return det_channels_.size(); }
  std::size_t num_contributions() const { return re0_.size(); }

  /// Detector d's contributions occupy indices [detector_offsets()[d],
  /// detector_offsets()[d + 1]) of the per-contribution arrays, in scalar
  /// source order. Size num_detectors() + 1. Detector d is the layout's
  /// detector d.
  std::span<const std::size_t> detector_offsets() const {
    return det_offsets_;
  }
  /// Output channel written by detector d (row index of the decoded bit).
  std::span<const std::size_t> detector_channels() const {
    return det_channels_;
  }

  /// Per-contribution SoA arrays (all of size num_contributions(), 64-byte
  /// aligned): real part of the phasor contributed when the governing bit
  /// is 0 resp. 1.
  std::span<const double> re0() const { return re0_; }
  std::span<const double> re1() const { return re1_; }

  /// Flat input-slot index of each contribution's governing bit (column
  /// into a packed word row; always < slot_count()): channel * num_inputs()
  /// + input.
  std::span<const std::uint32_t> slots() const { return slots_; }

  // ------------------------------------------------------------ tables --

  /// True iff every detector's decision diagram fits kMaxTableMuxes, so
  /// the plan carries them all (the kernels' eval_tables then decodes the
  /// whole plan). A plan without detectors is tabulated.
  bool tabulated() const { return tabulated_; }
  /// Detector d's diagram muxes; empty on an untabulated plan and for a
  /// detector whose verdict is constant.
  std::span<const TableMux> table_muxes(std::size_t d) const {
    return std::span<const TableMux>(table_muxes_)
        .subspan(table_offsets_[d], table_offsets_[d + 1] - table_offsets_[d]);
  }
  /// Detector d's verdict, named as TableMux::lo names values.
  std::uint16_t table_root(std::size_t d) const { return table_roots_[d]; }
  /// Muxes over every detector: the table decode's work per 64 words.
  std::size_t num_table_muxes() const { return table_muxes_.size(); }
  /// Largest diagram of any detector (the kernels' scratch per value).
  std::size_t max_table_muxes() const { return max_table_muxes_; }

 private:
  void build_tables();

  std::size_t num_channels_ = 0;
  std::size_t num_inputs_ = 0;

  std::vector<std::size_t> det_offsets_;
  std::vector<std::size_t> det_channels_;

  sw::util::AlignedVector<double> re0_;
  sw::util::AlignedVector<double> re1_;
  sw::util::AlignedVector<std::uint32_t> slots_;

  bool tabulated_ = false;
  std::vector<TableMux> table_muxes_;
  std::vector<std::size_t> table_offsets_;
  std::vector<std::uint16_t> table_roots_;
  std::size_t max_table_muxes_ = 0;
};

}  // namespace sw::wavesim
