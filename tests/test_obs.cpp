// Observability subsystem tests: histogram bucket edges, the golden
// Prometheus exposition text, cumulative monotonicity, the standard
// ladders, exact counts under concurrent records, fixed-slot trace
// contexts (span accounting, truncation), the bounded trace ring, and the
// Chrome trace-event JSON export — parsed back by a minimal JSON parser
// so a malformed document fails here, not in Perfetto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"
#include "util/error.h"

namespace {

using sw::obs::Histogram;
using sw::obs::HistogramSnapshot;
using sw::obs::Phase;
using sw::obs::TraceContext;
using sw::obs::TraceRecorder;

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h(1.0, 2.0, 4);  // bounds 1, 2, 4, 8 (+Inf implicit)
  h.record(-3.0);  // negative clamps into the first bucket
  h.record(0.5);
  h.record(1.0);   // le is inclusive: lands in the le="1" bucket
  h.record(1.5);
  h.record(8.0);
  h.record(9.0);   // past the last finite bound: +Inf bucket

  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  ASSERT_EQ(s.counts.size(), 5u);
  EXPECT_EQ(s.counts[0], 3u);  // -3, 0.5, 1.0
  EXPECT_EQ(s.counts[1], 1u);  // 1.5
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);  // 8.0
  EXPECT_EQ(s.counts[4], 1u);  // 9.0
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, -3.0 + 0.5 + 1.0 + 1.5 + 8.0 + 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), s.sum / 6.0);
  EXPECT_EQ(s.cumulative(0), 3u);
  EXPECT_EQ(s.cumulative(3), 5u);
  EXPECT_EQ(s.cumulative(s.bounds.size()), 6u);
}

TEST(ObsHistogram, GoldenPrometheusExposition) {
  Histogram h(1.0, 10.0, 2);  // bounds 1, 10
  h.record(0.5);
  h.record(5.0);
  h.record(100.0);
  std::string out;
  sw::obs::append_histogram(out, "t_seconds", h.snapshot());
  EXPECT_EQ(out,
            "t_seconds_bucket{le=\"1\"} 1\n"
            "t_seconds_bucket{le=\"10\"} 2\n"
            "t_seconds_bucket{le=\"+Inf\"} 3\n"
            "t_seconds_sum 105.5\n"
            "t_seconds_count 3\n");
}

TEST(ObsHistogram, CumulativeBucketsAreMonotonic) {
  Histogram h = Histogram::for_seconds();
  // A spread hitting sub-first-bound, mid-ladder and +Inf territory.
  for (const double v : {1e-7, 3e-6, 4e-5, 1e-3, 0.02, 0.02, 1.0, 40.0}) {
    h.record(v);
  }
  const HistogramSnapshot s = h.snapshot();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
    const std::uint64_t c = s.cumulative(i);
    EXPECT_GE(c, prev) << "cumulative shrank at bucket " << i;
    prev = c;
  }
  EXPECT_EQ(prev, s.count);
}

TEST(ObsHistogram, StandardLaddersCoverServingRanges) {
  const HistogramSnapshot seconds = Histogram::for_seconds().snapshot();
  ASSERT_EQ(seconds.bounds.size(), 25u);
  EXPECT_DOUBLE_EQ(seconds.bounds.front(), 1e-6);
  EXPECT_GT(seconds.bounds.back(), 10.0);  // ~16.8s: admission stalls fit
  const HistogramSnapshot words = Histogram::for_words().snapshot();
  ASSERT_EQ(words.bounds.size(), 12u);
  EXPECT_DOUBLE_EQ(words.bounds.front(), 1.0);
  EXPECT_GT(words.bounds.back(), 4e6);  // the 2^16-word paper sweep fits

  EXPECT_THROW(Histogram(0.0, 2.0, 4), sw::util::Error);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), sw::util::Error);
  EXPECT_THROW(Histogram(1.0, 2.0, 0), sw::util::Error);
}

TEST(ObsHistogram, ConcurrentRecordsCountExactly) {
  // The service's completed count is its latency histogram's count, so
  // concurrent records from every worker must each count exactly once.
  Histogram h = Histogram::for_seconds();
  constexpr int kThreads = 4;
  constexpr int kRecords = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRecords; ++i) h.record(1.0);
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.snapshot();
  constexpr std::uint64_t kTotal = std::uint64_t{kThreads} * kRecords;
  EXPECT_EQ(s.count, kTotal);
  EXPECT_EQ(s.sum, static_cast<double>(kTotal));  // exact: integers < 2^53
  std::uint64_t buckets = 0;
  for (const std::uint64_t c : s.counts) buckets += c;
  EXPECT_EQ(buckets, s.count);
}

TEST(ObsTrace, SpansAccumulateByPhaseAndTruncatePastCapacity) {
  TraceContext t;
  t.id = 42;
  t.track = 3;
  const std::size_t slot = t.begin(Phase::kKernel);
  ASSERT_NE(slot, TraceContext::kNoSlot);
  t.end(slot);
  t.add(Phase::kQueue, 1000, 4000);
  t.add(Phase::kQueue, 5000, 6000);
  t.add(Phase::kReshard, 7000, 7000, /*arg=*/2);  // instantaneous is legal
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.phase_ns(Phase::kQueue), 4000u);
  EXPECT_EQ(t.phase_ns(Phase::kReshard), 0u);
  EXPECT_EQ(t.phase_ns(Phase::kAdmission), 0u);
  EXPECT_EQ(t.span(3).arg, 2u);
  EXPECT_FALSE(t.truncated());

  // Filling every remaining slot must not lose the request — begin()
  // degrades to kNoSlot and end(kNoSlot) is a no-op.
  while (t.size() < TraceContext::kMaxSpans) t.add(Phase::kStage, 1, 2);
  const std::size_t overflow = t.begin(Phase::kWireEncode);
  EXPECT_EQ(overflow, TraceContext::kNoSlot);
  t.end(overflow);
  t.add(Phase::kWireEncode, 1, 2);
  EXPECT_EQ(t.size(), TraceContext::kMaxSpans);
  EXPECT_TRUE(t.truncated());
}

TEST(ObsTrace, RecorderKeepsMostRecentTracesBounded) {
  TraceRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceContext t;
    t.id = i;
    t.add(Phase::kKernel, 100 * i, 100 * i + 50);
    recorder.record(t);
  }
  EXPECT_EQ(recorder.recorded_total(), 10u);
  const auto traces = recorder.snapshot();
  ASSERT_EQ(traces.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(traces[i].id, 9u - i) << "snapshot is not most-recent-first";
  }
  // A tiny slow threshold exercises the slow-request log path (stderr);
  // recording must stay well-defined either way.
  recorder.set_slow_threshold(1e-12);
  TraceContext slow;
  slow.id = 99;
  slow.add(Phase::kKernel, 0, 5'000'000);
  recorder.record(slow);
  EXPECT_EQ(recorder.snapshot().front().id, 99u);
}

/// Minimal recursive-descent JSON parser: validates the full grammar the
/// trace emitter can produce and collects every string value stored under
/// a "name" key. Throws std::runtime_error on any syntax error, so a
/// malformed dump fails here instead of inside Perfetto.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text)
      : p_(text.c_str()), end_(p_ + text.size()) {}

  void parse() {
    value();
    ws();
    if (p_ != end_) fail("trailing characters after the document");
  }

  const std::vector<std::string>& names() const { return names_; }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error: " + why);
  }
  void ws() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\n' || *p_ == '\r' || *p_ == '\t')) {
      ++p_;
    }
  }
  char peek() {
    if (p_ >= end_) fail("unexpected end of input");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }
  void value() {
    ws();
    switch (peek()) {
      case '{': object(); return;
      case '[': array(); return;
      case '"': (void)string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
  }
  void object() {
    expect('{');
    ws();
    if (peek() == '}') { ++p_; return; }
    for (;;) {
      ws();
      const std::string key = string();
      ws();
      expect(':');
      ws();
      if (key == "name" && peek() == '"') {
        names_.push_back(string());
      } else {
        value();
      }
      ws();
      if (peek() == ',') { ++p_; continue; }
      expect('}');
      return;
    }
  }
  void array() {
    expect('[');
    ws();
    if (peek() == ']') { ++p_; return; }
    for (;;) {
      value();
      ws();
      if (peek() == ',') { ++p_; continue; }
      expect(']');
      return;
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (p_ >= end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c == '\\') {
        if (p_ >= end_) fail("dangling escape");
        out += *p_++;
        continue;
      }
      out += c;
    }
  }
  void literal(const char* word) {
    for (const char* w = word; *w != '\0'; ++w) {
      if (p_ >= end_ || *p_ != *w) fail(std::string("bad literal ") + word);
      ++p_;
    }
  }
  void number() {
    const char* start = p_;
    while (p_ < end_ &&
           (*p_ == '-' || *p_ == '+' || *p_ == '.' || *p_ == 'e' ||
            *p_ == 'E' || (*p_ >= '0' && *p_ <= '9'))) {
      ++p_;
    }
    if (p_ == start) fail("expected a value");
  }

  const char* p_;
  const char* end_;
  std::vector<std::string> names_;
};

bool contains(const std::vector<std::string>& names, const std::string& s) {
  return std::find(names.begin(), names.end(), s) != names.end();
}

TEST(ObsTraceJson, RendersValidJsonWithPhaseNamesAndSkipsOpenSpans) {
  TraceContext a;
  a.id = 1;
  a.track = 7;
  a.add(Phase::kWireDecode, 500, 900);
  a.add(Phase::kKernel, 1000, 5000);
  TraceContext b;
  b.id = 2;
  b.track = 8;
  b.add(Phase::kReshard, 2000, 2000, /*arg=*/3);
  (void)b.begin(Phase::kQueue);  // left open: must not render

  const std::string doc = sw::obs::trace_json({a, b}, "unit-test");
  MiniJsonParser parser(doc);
  ASSERT_NO_THROW(parser.parse()) << doc;
  EXPECT_TRUE(contains(parser.names(), "process_name")) << doc;
  EXPECT_TRUE(contains(parser.names(), "unit-test")) << doc;
  EXPECT_TRUE(contains(parser.names(), "wire_decode")) << doc;
  EXPECT_TRUE(contains(parser.names(), "kernel")) << doc;
  EXPECT_TRUE(contains(parser.names(), "reshard")) << doc;
  EXPECT_FALSE(contains(parser.names(), "queue")) << doc;
}

TEST(ObsTraceJson, MergeSplicesDocumentsAndHandlesEmpty) {
  TraceContext a;
  a.id = 1;
  a.add(Phase::kKernel, 1000, 2000);
  const std::string first = sw::obs::trace_json({a}, "proc-a");
  TraceContext b;
  b.id = 2;
  b.add(Phase::kShardSend, 3000, 4000);
  const std::string second = sw::obs::trace_json({b}, "proc-b");

  const std::string merged = sw::obs::merge_trace_json({first, second});
  MiniJsonParser parser(merged);
  ASSERT_NO_THROW(parser.parse()) << merged;
  EXPECT_TRUE(contains(parser.names(), "proc-a"));
  EXPECT_TRUE(contains(parser.names(), "proc-b"));
  EXPECT_TRUE(contains(parser.names(), "kernel"));
  EXPECT_TRUE(contains(parser.names(), "shard_send"));

  const std::string none = sw::obs::merge_trace_json({});
  MiniJsonParser empty_parser(none);
  ASSERT_NO_THROW(empty_parser.parse()) << none;
  const std::string bare = sw::obs::trace_json({}, "idle");
  MiniJsonParser bare_parser(bare);
  ASSERT_NO_THROW(bare_parser.parse()) << bare;
}

}  // namespace
