// The one request type of the serving API.
//
// EvalRequest is a single value: a word batch bound to *either* a single
// gate layout *or* a multi-stage ProgramSpec, plus an optional per-request
// precision hint, consumed by EvaluatorService::submit / submit_async.
// Both targets become one wavesim::EvalProgram in the service (a gate is
// the one-stage, identity-source case), so they differ only in how the
// input slots are named.
//
// Inside the service a batch is only ever bit-sliced columns
// (kernels/kernel.h): a request carries its primary slot columns, and the
// result is the last stage's channel columns. Rows exist only at the
// in-process edges: for_layout / for_program convert a caller's row-major
// byte matrix to columns once, and submit() hands the result back as rows
// (ResultBatch::bits). A transport that decodes straight to columns
// (EvalServer) sets `columns` itself and takes the result columns from
// submit_async.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  /// Single-gate target: input slot = channel * num_inputs + input (the
  /// same slots as a one-stage program whose slot j reads primary slot j).
  const sw::core::GateLayout* layout = nullptr;
  /// Multi-stage target: primary slot = channel * num_primary_inputs +
  /// input; the result carries the last stage's decoded bits.
  const sw::wavesim::ProgramSpec* program = nullptr;
  /// The words' input slots as bit-sliced columns: one per slot
  /// (slot_count, or primary_slot_count() for a program), each
  /// kernels::column_words(num_words) u64s, slot j's column at
  /// j * column_words(num_words), word w at bit w % 64 of u64 w / 64.
  std::vector<std::uint64_t> columns;
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

  /// `rows` is the row-major num_words x slot_count byte matrix of
  /// BatchEvaluator::evaluate_bits (nonzero = 1), converted to columns
  /// here. Throws sw::util::Error when its size is not num_words x
  /// slot_count (including when that product overflows).
  static EvalRequest for_layout(const sw::core::GateLayout& layout,
                                std::span<const std::uint8_t> rows,
                                std::size_t num_words);

  /// `rows` is the row-major num_words x primary_slot_count() matrix of
  /// EvalProgram::evaluate_bits, converted to columns here; same checks.
  static EvalRequest for_program(const sw::wavesim::ProgramSpec& program,
                                 std::span<const std::uint8_t> rows,
                                 std::size_t num_words);

  /// Convenience: pack the nested per-channel batch shape of
  /// DataParallelGate::evaluate (`batch[word][channel][input]`) against a
  /// layout.
  static EvalRequest for_batch(
      const sw::core::GateLayout& layout,
      const std::vector<std::vector<sw::core::Bits>>& batch);
};

}  // namespace sw::serve
