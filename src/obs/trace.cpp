#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace sw::obs {

namespace {

constexpr std::string_view kPhaseNames[kNumPhases] = {
    "admission",  "plan_lookup", "queue",       "plan_build",  "kernel",
    "stage",      "wire_decode", "wire_encode", "write_queue", "shard_assign",
    "shard_send", "shard_wait",  "shard_retire", "reshard",
};

}  // namespace

std::string_view phase_name(Phase phase) {
  const auto idx = static_cast<std::size_t>(phase);
  return idx < kNumPhases ? kPhaseNames[idx] : std::string_view("unknown");
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t TraceContext::begin(Phase phase, std::uint32_t arg) {
  if (used_ >= kMaxSpans) {
    truncated_ = true;
    return kNoSlot;
  }
  const std::size_t slot = used_++;
  spans_[slot].phase = phase;
  spans_[slot].arg = arg;
  spans_[slot].start_ns = now_ns();
  spans_[slot].end_ns = 0;
  return slot;
}

void TraceContext::end(std::size_t slot) {
  if (slot >= kMaxSpans) return;
  spans_[slot].end_ns = now_ns();
}

void TraceContext::add(Phase phase, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint32_t arg) {
  if (used_ >= kMaxSpans) {
    truncated_ = true;
    return;
  }
  spans_[used_++] = Span{start_ns, end_ns, phase, arg};
}

std::uint64_t TraceContext::total_ns() const {
  std::uint64_t first = UINT64_MAX;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < used_; ++i) {
    if (spans_[i].end_ns == 0) continue;  // still open: excluded
    first = std::min(first, spans_[i].start_ns);
    last = std::max(last, spans_[i].end_ns);
  }
  return last > first ? last - first : 0;
}

std::uint64_t TraceContext::phase_ns(Phase phase) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < used_; ++i) {
    if (spans_[i].phase == phase && spans_[i].end_ns >= spans_[i].start_ns) {
      total += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return total;
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TraceRecorder::set_slow_threshold(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  slow_threshold_s_ = seconds;
}

void TraceRecorder::record(const TraceContext& trace) {
  double threshold;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[next_] = trace;
    next_ = (next_ + 1) % ring_.size();
    if (filled_ < ring_.size()) ++filled_;
    ++recorded_;
    threshold = slow_threshold_s_;
  }
  // Log outside the lock: stderr is slow and the breakdown is per-trace
  // local data.
  const double total_s = static_cast<double>(trace.total_ns()) * 1e-9;
  if (threshold > 0.0 && total_s >= threshold) {
    std::string breakdown;
    char buf[96];
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Span& s = trace.span(i);
      if (s.end_ns < s.start_ns) continue;
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      const std::string_view name = phase_name(s.phase);
      std::snprintf(buf, sizeof(buf), " %.*s=%.3fms",
                    static_cast<int>(name.size()), name.data(), ms);
      breakdown += buf;
    }
    std::fprintf(stderr,
                 "[sw::obs] slow request id=%" PRIu64 " track=%" PRIu64
                 " total=%.3fms:%s%s\n",
                 trace.id, trace.track, total_s * 1e3, breakdown.c_str(),
                 trace.truncated() ? " (truncated)" : "");
  }
}

std::vector<TraceContext> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceContext> out;
  out.reserve(filled_);
  // Most recent first: walk backwards from the overwrite cursor.
  for (std::size_t i = 0; i < filled_; ++i) {
    const std::size_t idx = (next_ + ring_.size() - 1 - i) % ring_.size();
    out.push_back(ring_[idx]);
  }
  return out;
}

std::uint64_t TraceRecorder::recorded_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::string trace_json(const std::vector<TraceContext>& traces,
                       std::string_view process_name) {
  const int pid = static_cast<int>(::getpid());
  std::string out;
  out.reserve(256 + traces.size() * TraceContext::kMaxSpans * 96);
  out += "{\"traceEvents\":[\n";
  char buf[256];
  // Process-name metadata so Perfetto labels the track group; pid keys the
  // merge of several processes' dumps into distinct track groups.
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                "\"args\":{\"name\":\"%.*s\"}}",
                pid, static_cast<int>(process_name.size()),
                process_name.data());
  out += buf;
  for (const TraceContext& trace : traces) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Span& s = trace.span(i);
      if (s.end_ns < s.start_ns) continue;  // never closed: skip
      const std::string_view name = phase_name(s.phase);
      // Chrome trace-event "X" (complete) event; timestamps in µs. A
      // zero-duration event (re-shard) still renders as a slice.
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%" PRIu64
          ",\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%.*s\","
          "\"args\":{\"id\":%" PRIu64 ",\"arg\":%" PRIu32 "}}",
          pid, trace.track, static_cast<double>(s.start_ns) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
          static_cast<int>(name.size()), name.data(), trace.id, s.arg);
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

std::string merge_trace_json(const std::vector<std::string>& documents) {
  std::string merged = "{\"traceEvents\":[\n";
  bool first = true;
  for (const std::string& doc : documents) {
    // The emitter's shape is fixed (this file owns it), so splicing on the
    // first '[' and last ']' is exact, not heuristic.
    const std::size_t open = doc.find('[');
    const std::size_t close = doc.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open + 1) {
      continue;
    }
    std::string inner = doc.substr(open + 1, close - open - 1);
    const std::size_t begin = inner.find_first_not_of(" \n\r\t");
    const std::size_t end = inner.find_last_not_of(" \n\r\t");
    if (begin == std::string::npos) continue;
    if (!first) merged += ",\n";
    merged.append(inner, begin, end - begin + 1);
    first = false;
  }
  merged += "\n]}\n";
  return merged;
}

}  // namespace sw::obs
