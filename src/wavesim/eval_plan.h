// Frozen, layout-derived evaluation plan in structure-of-arrays form.
//
// For a fixed gate layout the contribution of source j to detector d is one
// of exactly two complex constants (launch phase 0 or pi). PR 1 stored the
// pair as an array of structs inside BatchEvaluator, which interleaved the
// phasor constants with indexing metadata and blocked vectorisation of the
// per-word accumulation. EvalPlan is the extracted, immutable artefact: the
// constants live in separate contiguous cache-line-aligned arrays
// (re0/im0/re1/im1), the per-contribution flat input-slot index in its own
// array, and detectors are described by [offset, offset+count) ranges over
// those arrays — exactly the shape the kernels in wavesim/kernels consume.
//
// The arrays preserve scalar source order per detector, and every constant
// is produced by the same engine arithmetic as the scalar path, so any
// kernel that accumulates a detector's range in index order is bit-for-bit
// identical to DataParallelGate::evaluate by construction.
//
// A plan built with Precision::kFloat32 additionally carries float mirrors
// of the real-part arrays for the wide f32 kernels — but only for detectors
// that have been *proved* safe at build time. The margin proof runs per
// detector: the minimum decode margin (the smallest |Re| any bit assignment
// can produce at that detector) is computed in double, checked against a
// worst-case f32 accumulation error bound, and an exhaustive validation
// sweep replays the exact f32 accumulation to confirm every reachable
// decode matches the double plan. The proof's verdict is a per-detector
// precision tag, not an all-or-nothing plan property:
//
//   * every detector proved  -> a pure f32 plan (has_f32(), the PR 4 case);
//   * every detector rejected -> the plan degenerates to exactly the double
//     plan (no float arrays, identical decode path);
//   * a mix -> a *block-f32* plan: detectors are partitioned at build time
//     into two contiguous runs — the proved detectors first (served by f32
//     accumulation over the float mirrors), the rejected ones after (served
//     by f64 "rescue lanes" over the double arrays) — so the kernels'
//     eval_bits runs two branch-free loops instead of a per-detector
//     precision branch. detector_results() maps each plan-order detector
//     back to its original layout position for the ChannelResult paths.
//
// Decoded bits are identical across precisions on every plan this class
// will ever serve: f32 lanes are enumerated-proved, rescue lanes are f64 by
// construction.
//
// An EvalPlan is immutable after construction and holds no reference to the
// gate or engine, so it is safe to share across threads and to cache (see
// sw::serve::PlanCache, which stores one per (layout, precision) and hands
// it to every request for that layout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/gate.h"
#include "util/aligned.h"
#include "wavesim/precision.h"

namespace sw::wavesim {

class EvalPlan {
 public:
  /// Builds the plan from the gate's layout via its engine (one
  /// steady-phasor solve per (detector, source, launch-phase) triple — the
  /// expensive per-layout cost the serve-layer cache amortises). Neither
  /// the gate nor the engine needs to outlive the plan. `freq_tol` is the
  /// relative source/detector frequency matching tolerance and must equal
  /// the scalar path's for bit-exact equivalence. `precision` is the
  /// *requested* precision (kAuto defers to SW_EVAL_PRECISION / f64); the
  /// per-detector margin analysis decides what is actually served — see
  /// num_f32_detectors() / effective_precision().
  explicit EvalPlan(const sw::core::DataParallelGate& gate,
                    double freq_tol = kDefaultFreqTol,
                    Precision precision = Precision::kAuto);

  double freq_tol() const { return freq_tol_; }
  std::size_t num_channels() const { return num_channels_; }
  std::size_t num_inputs() const { return num_inputs_; }
  /// Input slots per word: num_channels() * num_inputs(); the bit of input
  /// `in` on channel `ch` lives at flat column ch * num_inputs() + in.
  std::size_t slot_count() const { return num_channels_ * num_inputs_; }
  std::size_t num_detectors() const { return det_channels_.size(); }
  std::size_t num_contributions() const { return re0_.size(); }

  /// Detector d's contributions occupy indices [detector_offsets()[d],
  /// detector_offsets()[d + 1]) of the per-contribution arrays, in scalar
  /// source order. Size num_detectors() + 1. Detector indices are *plan
  /// order*: on a block-f32 plan the proved detectors occupy [0,
  /// num_f32_detectors()) and the rescue detectors the rest; everywhere
  /// else plan order equals layout order.
  std::span<const std::size_t> detector_offsets() const {
    return det_offsets_;
  }
  /// Output channel written by detector d (row index of the decoded bit).
  std::span<const std::size_t> detector_channels() const {
    return det_channels_;
  }
  /// Original layout position of plan-order detector d — the element index
  /// the ChannelResult kernels write, so reordering detectors for the
  /// block-f32 partition never reorders caller-visible results. Identity
  /// on every non-block plan.
  std::span<const std::size_t> detector_results() const {
    return det_results_;
  }

  /// Per-contribution SoA arrays (all of size num_contributions(), 64-byte
  /// aligned): real/imaginary parts of the phasor contributed when the
  /// governing bit is 0 resp. 1.
  std::span<const double> re0() const { return re0_; }
  std::span<const double> im0() const { return im0_; }
  std::span<const double> re1() const { return re1_; }
  std::span<const double> im1() const { return im1_; }

  /// Flat input-slot index of each contribution's governing bit (column
  /// into a packed word row; always < slot_count()).
  std::span<const std::uint32_t> slots() const { return slots_; }
  /// The same governing bit as (channel, input) coordinates, for callers
  /// that index nested per-channel words instead of packed rows.
  std::span<const std::uint32_t> channels() const { return channels_; }
  std::span<const std::uint32_t> inputs() const { return inputs_; }

  // ------------------------------------------------------- f32 variant --

  /// What the caller asked for, kAuto already resolved (kFloat64/kFloat32).
  Precision requested_precision() const { return requested_; }
  /// The strict verdict: kFloat32 iff *every* decode runs in f32
  /// (has_f32()), kFloat64 otherwise — including block-f32 plans, whose
  /// mix is reported by num_f32_detectors()/num_f64_rescue_detectors()
  /// and precision_label() instead of widening this enum.
  Precision effective_precision() const {
    return has_f32() ? Precision::kFloat32 : Precision::kFloat64;
  }
  /// True iff every detector passed the margin proof (pure f32 plan: the
  /// kernels' eval_bits accumulates every detector in f32).
  bool has_f32() const {
    return requested_ == Precision::kFloat32 &&
           num_f32_detectors_ == num_detectors();
  }

  /// Detectors served by f32 accumulation — plan-order indices
  /// [0, num_f32_detectors()). 0 unless kFloat32 was requested.
  std::size_t num_f32_detectors() const { return num_f32_detectors_; }
  /// Detectors that failed the margin proof and run f64 rescue lanes —
  /// plan-order indices [num_f32_detectors(), num_detectors()). 0 when f32
  /// was never requested (nothing was rescued).
  std::size_t num_f64_rescue_detectors() const { return num_rescue_; }
  /// A genuine mix: some detectors f32, some rescued; the kernels'
  /// eval_bits runs both.
  bool is_block() const { return num_f32_detectors_ > 0 && num_rescue_ > 0; }

  /// Human-readable precision mix: "f64", "f32", or "block-f32(7/8)" —
  /// what logs, stats strings and benches print.
  std::string precision_label() const;

  /// Float mirrors of the real-part arrays, covering exactly the f32 run's
  /// contributions: indices [0, detector_offsets()[num_f32_detectors()]).
  /// Empty when no detector was proved. Only the real parts exist in f32:
  /// the packed decode consumes nothing but sign(Re), and the
  /// ChannelResult paths (which need im for phase and amplitude) always
  /// run in double — those are analog readouts, not thresholded bits, so
  /// single precision buys nothing worth the loss.
  std::span<const float> re0_f32() const { return re0_f32_; }
  std::span<const float> re1_f32() const { return re1_f32_; }

  /// Smallest |Re| any bit assignment can produce at any enumerated
  /// detector, in double (the decode threshold is Re < 0, so this is the
  /// worst-case distance to a bit flip). 0 when the margin analysis was
  /// skipped (kFloat64 requested) or no detector could be enumerated.
  double min_decode_margin() const { return min_decode_margin_; }
  /// Worst-case |f32 accumulation - f64 accumulation| bound over all
  /// detectors and bit assignments (conversion + summation rounding).
  double f32_error_bound() const { return f32_error_bound_; }

  /// Why a kFloat32 request could not run f32 everywhere; empty when every
  /// detector was proved or f32 was never requested. On a block plan this
  /// names how many detectors were rescued and the first rejection reason.
  /// Surfaced through PlanCacheStats / ServiceStats so operators can see
  /// which layouts refuse f32.
  const std::string& f32_rejection() const { return f32_rejection_; }

 private:
  void build_f32();
  void partition_detectors(const std::vector<char>& accepted);

  double freq_tol_ = kDefaultFreqTol;
  Precision requested_ = Precision::kFloat64;
  std::size_t num_channels_ = 0;
  std::size_t num_inputs_ = 0;

  std::vector<std::size_t> det_offsets_;
  std::vector<std::size_t> det_channels_;
  std::vector<std::size_t> det_results_;

  sw::util::AlignedVector<double> re0_;
  sw::util::AlignedVector<double> im0_;
  sw::util::AlignedVector<double> re1_;
  sw::util::AlignedVector<double> im1_;
  sw::util::AlignedVector<std::uint32_t> slots_;
  sw::util::AlignedVector<std::uint32_t> channels_;
  sw::util::AlignedVector<std::uint32_t> inputs_;

  sw::util::AlignedVector<float> re0_f32_;
  sw::util::AlignedVector<float> re1_f32_;
  std::size_t num_f32_detectors_ = 0;
  std::size_t num_rescue_ = 0;
  double min_decode_margin_ = 0.0;
  double f32_error_bound_ = 0.0;
  std::string f32_rejection_;
};

}  // namespace sw::wavesim
