// The one request type of the serving API.
//
// EvalRequest is a single value: a packed word batch bound to *either* a
// single gate layout *or* a multi-stage ProgramSpec, plus an optional
// per-request precision hint, consumed by EvaluatorService::submit /
// submit_async. Both targets become one wavesim::EvalProgram in the
// service (a gate is the one-stage, identity-source case), so they differ
// only in how the packed matrix's columns are named.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/encoding.h"
#include "core/gate_design.h"
#include "obs/trace.h"
#include "wavesim/eval_program.h"
#include "wavesim/precision.h"

namespace sw::serve {

/// One evaluation request. Exactly one of `layout` / `program` must be
/// set; both are borrowed — submit() copies what it needs (the cache key
/// bytes on the fast path, the spec itself only on a cache miss) before it
/// returns, so the pointee need only outlive the submit call itself.
struct EvalRequest {
  /// Single-gate target: packed_bits is the row-major num_words x
  /// slot_count matrix, slot = channel * num_inputs + input (the same
  /// columns as a one-stage program whose slot j reads primary column j).
  const sw::core::GateLayout* layout = nullptr;
  /// Multi-stage target: packed_bits is the row-major num_words x
  /// primary_slot_count() matrix of EvalProgram::evaluate_bits (column =
  /// channel * num_primary_inputs + input); the result carries the last
  /// stage's decoded bits.
  const sw::wavesim::ProgramSpec* program = nullptr;
  std::vector<std::uint8_t> packed_bits;
  std::size_t num_words = 0;
  /// Per-request precision override; unset uses the service's configured
  /// precision. Distinct precisions cache as distinct plan entries.
  std::optional<sw::wavesim::Precision> precision;
  /// Carried through the service and returned (with the service's phase
  /// spans appended) in ResultBatch::trace. A transport that stamps its
  /// own spans first (wire decode) seeds it here; trace.track survives
  /// untouched, trace.id is overwritten with the service request id.
  sw::obs::TraceContext trace;
  /// When false (default) the service records the finished trace into its
  /// own TraceRecorder at settle. The event server sets true and records
  /// the trace itself, after appending wire-encode and write-queue spans.
  bool defer_trace_record = false;

  static EvalRequest for_layout(const sw::core::GateLayout& layout,
                                std::vector<std::uint8_t> packed_bits,
                                std::size_t num_words) {
    EvalRequest r;
    r.layout = &layout;
    r.packed_bits = std::move(packed_bits);
    r.num_words = num_words;
    return r;
  }

  static EvalRequest for_program(const sw::wavesim::ProgramSpec& program,
                                 std::vector<std::uint8_t> packed_bits,
                                 std::size_t num_words) {
    EvalRequest r;
    r.program = &program;
    r.packed_bits = std::move(packed_bits);
    r.num_words = num_words;
    return r;
  }

  /// Convenience: pack the nested per-channel batch shape of
  /// DataParallelGate::evaluate (`batch[word][channel][input]`) against a
  /// layout.
  static EvalRequest for_batch(
      const sw::core::GateLayout& layout,
      const std::vector<std::vector<sw::core::Bits>>& batch);
};

}  // namespace sw::serve
