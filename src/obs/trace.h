// Per-request tracing: fixed-slot span recording, a bounded trace ring,
// and Chrome trace-event / Perfetto JSON export.
//
// Every request carries a TraceContext by value through the serving
// layers. Each layer stamps the phases it owns — the transport stamps wire
// decode/encode and socket write-queue time, the service stamps admission
// wait, plan lookup/build, queue wait and kernel execution, the sweep
// coordinator stamps per-shard assign/send/wait/retire (and re-shard
// events). A span is two steady_clock reads into a fixed-size slot array:
// no allocation, no locking, nothing shared until the request settles,
// when the whole context is copied into a bounded mutex ring
// (TraceRecorder) that the trace endpoint snapshots. trace_json() renders
// a snapshot in the Chrome trace-event format, so a dump loads directly
// into Perfetto or chrome://tracing with one named track per request.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sw::obs {

/// The instrumented phases. Names (phase_name) are stable identifiers:
/// they appear in trace JSON, the slow-request log and smoke-test greps.
enum class Phase : std::uint8_t {
  // Service request phases.
  kAdmission = 0,  ///< waiting for admission control to admit the words
  kPlanLookup,     ///< plan-cache fast-path lookup on the submit thread
  kQueue,          ///< admitted, waiting for a worker to pick the request up
  kPlanBuild,      ///< cache miss: building the plan / program on the worker
  kKernel,         ///< evaluate_bits: the SIMD kernel pass
  kStage,          ///< one program stage's share of the kernel pass (arg = stage)
  // Transport phases.
  kWireDecode,     ///< parsing + decoding the request's wire frame
  kDesign,         ///< designing a wire spec's layout the server had not cached
  kWireEncode,     ///< encoding the response frame into the write buffer
  kWriteQueue,     ///< response sitting in the socket write queue
  // Sweep-coordinator shard phases (arg = worker index).
  kShardAssign,    ///< shard acquired for a worker
  kShardSend,      ///< request frame written to the worker socket
  kShardWait,      ///< in flight, waiting for the worker's reply
  kShardRetire,    ///< reply received, decoded and merged
  kReshard,        ///< shard duplicated away from an overdue worker
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kReshard) + 1;

std::string_view phase_name(Phase phase);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Phase phase = Phase::kAdmission;
  /// Phase-specific argument: stage index for kStage, worker index for the
  /// shard phases; 0 when unused.
  std::uint32_t arg = 0;
};

/// Monotonic nanoseconds (steady_clock) — the one clock every span uses,
/// so spans from different threads of one process order correctly.
std::uint64_t now_ns();

/// Fixed-slot span recorder carried by value with the request. Slots
/// exhausted past kMaxSpans are dropped silently (the request still
/// serves; its trace is merely truncated) and counted in `truncated`.
class TraceContext {
 public:
  static constexpr std::size_t kMaxSpans = 24;
  /// Sentinel slot returned by begin() once the context is full.
  static constexpr std::size_t kNoSlot = kMaxSpans;

  /// Request id (service) or shard index (coordinator): the trace-JSON
  /// event id and the slow-log key.
  std::uint64_t id = 0;
  /// Track the events render on (Perfetto "tid"): connection id, worker
  /// index — whatever groups related requests into one timeline row.
  std::uint64_t track = 0;

  /// Open a span now; returns its slot for end(), or kNoSlot when full.
  std::size_t begin(Phase phase, std::uint32_t arg = 0);
  /// Close the span opened at `slot` (ignores kNoSlot).
  void end(std::size_t slot);
  /// Record a pre-measured span (used for accumulated per-stage time and
  /// instantaneous events, where start==end is legal).
  void add(Phase phase, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint32_t arg = 0);

  std::size_t size() const { return used_; }
  const Span& span(std::size_t i) const { return spans_[i]; }
  bool truncated() const { return truncated_; }

  /// Wall span of the whole trace: latest end over all closed spans minus
  /// earliest start (0 when empty). What the slow-request log thresholds.
  std::uint64_t total_ns() const;
  /// Sum of the closed spans matching `phase` (for tests and the slow log).
  std::uint64_t phase_ns(Phase phase) const;

 private:
  std::array<Span, kMaxSpans> spans_{};
  std::size_t used_ = 0;
  bool truncated_ = false;
};

/// Bounded mutex ring of settled traces. Record cost is one lock plus a
/// ~600-byte copy — small against the request it describes; the ring keeps
/// the most recent `capacity` traces so the trace endpoint always answers
/// with current behaviour.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 256);

  /// Slow-request logging: any recorded trace whose total span meets or
  /// exceeds `seconds` prints a per-phase breakdown to stderr. <= 0
  /// disables (the default).
  void set_slow_threshold(double seconds);

  void record(const TraceContext& trace);

  /// Most-recent-first ring copy.
  std::vector<TraceContext> snapshot() const;

  std::uint64_t recorded_total() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceContext> ring_;
  std::size_t filled_ = 0;
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  double slow_threshold_s_ = 0.0;
};

/// Render traces as one Chrome trace-event JSON document:
/// `{"traceEvents":[…]}` with complete ("X") events named by phase,
/// timestamps in microseconds, pid = this process, tid = trace.track, and
/// a process_name metadata record carrying `process_name`. Loads directly
/// in Perfetto / chrome://tracing.
std::string trace_json(const std::vector<TraceContext>& traces,
                       std::string_view process_name);

/// Splice several trace_json documents (e.g. coordinator + each worker's
/// fetched dump) into one: their traceEvents arrays are concatenated.
/// Documents with no events contribute nothing; the result is a valid
/// document even when every input is empty.
std::string merge_trace_json(const std::vector<std::string>& documents);

}  // namespace sw::obs
