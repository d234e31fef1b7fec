// Workload gate_small_tcp: serving-sized 24-word v2 requests over loopback
// TCP. One client thread drives two connections, each keeping four tagged
// requests in flight (closed loop), against an in-process EvalServer whose
// service runs two workers. Each request targets one of three warm
// 8-channel majority layouts (3, 5 and 7 inputs), drawn from the seed. The
// kernel is about a microsecond of a request, so this workload measures
// the per-request overhead of the net codec, event loop, admission, queue,
// plan lookup and tracing.
#include <poll.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "bench_common.h"
#include "common.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "net/eval_server.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "serve/layout_hash.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kWords = 24;
constexpr std::size_t kChannels = 8;
constexpr std::array<std::size_t, 3> kInputCounts{3, 5, 7};
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDepth = 4;
/// Distinct pre-generated requests; each connection cycles through them.
constexpr std::size_t kPoolRequests = 4096;
constexpr std::size_t kWarmupRequests = 256;
/// Requests a traced window may send: a window sends up to kDepth past the
/// bound on each connection, and the server may record the warm-up's last
/// kDepth requests per connection after the window starts (it records a
/// trace once the reply has drained); the ring must hold them all.
constexpr std::uint64_t kTracedRequests =
    kTracedRingCapacity - 2 * kConnections * kDepth;

struct PoolRequest {
  std::size_t layout = 0;
  std::vector<std::uint8_t> bits;      ///< kWords x slot_count
  std::vector<std::uint8_t> expected;  ///< kWords x kChannels, scalar kernel
};

struct Setup {
  sw::disp::Waveguide wg = sw::bench::paper_waveguide();
  sw::disp::FvmswDispersion model{wg};
  sw::core::InlineGateDesigner designer{model};
  std::vector<sw::core::GateLayout> layouts;
  std::vector<std::uint64_t> hashes;
  std::vector<PoolRequest> pool;
  double design_us = 0.0;
  std::unique_ptr<sw::serve::EvaluatorService> service;
  std::unique_ptr<sw::net::EvalServer> server;
};

struct Pending {
  Clock::time_point sent;
  std::uint64_t tag = 0;
  std::size_t pool_index = 0;
  bool live = false;
};

struct ClientConn {
  sw::net::Connection sock;
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;
  std::vector<std::uint8_t> wbuf;
  std::uint64_t next_tag = 1;
  std::size_t inflight = 0;
  std::size_t cursor = 0;  ///< next pool index
  /// One slot per pipelined request; replies complete out of order, so a
  /// reply is matched to its slot by tag.
  std::array<Pending, kDepth> pending{};
};

/// One window of client traffic.
struct Window {
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t attempted = 0;
  std::uint64_t verified_words = 0;
  std::uint64_t cells = 0;  ///< per word: input slots + output channels
  LatencySample latencies;
  std::vector<std::string> failures;
  double encode_us = 0.0;  ///< summed; traced windows only
  double decode_us = 0.0;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
  double words_per_s() const {
    return static_cast<double>(verified_words) / seconds();
  }
};

class Client {
 public:
  explicit Client(const Setup& setup) : setup_(setup) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      auto conn = std::make_unique<ClientConn>();
      conn->sock = sw::net::Connection::connect(
          setup.server->local_endpoint(), 5000ms);
      conn->cursor = c;
      conns_.push_back(std::move(conn));
    }
  }

  /// Closed loop until `seconds` pass or `max_requests` have been sent,
  /// then drain every in-flight request. `timed_codec` stamps the client
  /// encode/decode calls (traced windows only).
  Window run(double seconds, std::uint64_t max_requests, bool timed_codec) {
    Window w;
    w.start = Clock::now();
    const auto deadline =
        w.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    for (;;) {
      const bool sending =
          Clock::now() < deadline && w.attempted < max_requests;
      std::size_t inflight = 0;
      for (auto& conn : conns_) {
        if (sending) fill(*conn, w, timed_codec);
        inflight += conn->inflight;
      }
      if (inflight == 0) break;
      if (!await_replies(w, timed_codec)) break;
    }
    w.end = Clock::now();
    return w;
  }

 private:
  void fill(ClientConn& conn, Window& w, bool timed_codec) {
    conn.wbuf.clear();
    while (conn.inflight < kDepth) {
      const std::size_t index = conn.cursor % setup_.pool.size();
      conn.cursor += kConnections;
      const PoolRequest& r = setup_.pool[index];
      const sw::core::GateLayout& layout = setup_.layouts[r.layout];
      const std::uint64_t tag = conn.next_tag++;
      Pending& p = *std::find_if(conn.pending.begin(), conn.pending.end(),
                                 [](const Pending& q) { return !q.live; });
      p.sent = Clock::now();
      p.tag = tag;
      p.pool_index = index;
      p.live = true;
      sw::net::append_frame_message(
          conn.wbuf,
          sw::serve::make_request_view(layout.spec, setup_.hashes[r.layout],
                                       index * kWords, kWords, r.bits),
          tag);
      if (timed_codec) w.encode_us += seconds_since(p.sent) * 1e6;
      ++conn.inflight;
      ++w.attempted;
    }
    if (!conn.wbuf.empty()) conn.sock.send_all(conn.wbuf, 10000ms);
  }

  /// Wait for and process replies; false when the server went silent (every
  /// in-flight request is then failed).
  bool await_replies(Window& w, bool timed_codec) {
    std::array<pollfd, kConnections> fds{};
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = conns_[c]->sock.fd();
      fds[c].events = conns_[c]->inflight > 0 ? POLLIN : 0;
    }
    const int ready = ::poll(fds.data(), fds.size(), 10000);
    if (ready <= 0) {
      for (auto& conn : conns_) {
        for (auto& p : conn->pending) {
          if (!p.live) continue;
          p.live = false;
          w.failures.push_back("timed out awaiting a reply");
        }
        conn->inflight = 0;
      }
      return false;
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_replies(*conns_[c], w, timed_codec);
      }
    }
    return true;
  }

  void read_replies(ClientConn& conn, Window& w, bool timed_codec) {
    constexpr std::size_t kChunk = 64u << 10;
    const std::size_t old = conn.rbuf.size();
    conn.rbuf.resize(old + kChunk);
    const auto got = conn.sock.recv_some({conn.rbuf.data() + old, kChunk});
    conn.rbuf.resize(old + static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                               got, 0)));
    SW_REQUIRE(got != 0, "server closed the connection mid-run");
    for (;;) {
      const std::size_t avail = conn.rbuf.size() - conn.rpos;
      if (avail < sw::net::kMessageHeaderSize) break;
      const auto header = sw::net::parse_message_header(
          {conn.rbuf.data() + conn.rpos, sw::net::kMessageHeaderSize});
      const std::size_t total =
          sw::net::kMessageHeaderSize +
          static_cast<std::size_t>(header.payload_size);
      if (avail < total) break;
      const std::span<const std::uint8_t> payload{
          conn.rbuf.data() + conn.rpos + sw::net::kMessageHeaderSize,
          static_cast<std::size_t>(header.payload_size)};
      settle(conn, header, payload, w, timed_codec);
      conn.rpos += total;
    }
    // Keep only the partial message left over, so the buffer stays the
    // size of one read however long the run.
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(conn.rpos));
    conn.rpos = 0;
  }

  void settle(ClientConn& conn, const sw::net::MessageHeader& header,
              std::span<const std::uint8_t> payload, Window& w,
              bool timed_codec) {
    const auto it = std::find_if(
        conn.pending.begin(), conn.pending.end(), [&](const Pending& q) {
          return q.live && q.tag == header.tag;
        });
    if (it == conn.pending.end()) {
      // Nothing to match it to; the request it answers (if any) times out.
      w.failures.push_back("reply carries tag " + std::to_string(header.tag) +
                           " with no request in flight");
      return;
    }
    Pending& p = *it;
    p.live = false;
    --conn.inflight;
    const PoolRequest& r = setup_.pool[p.pool_index];
    const auto t0 = Clock::now();
    sw::net::verify_message_payload(header, payload);
    if (header.kind == sw::net::MessageKind::kError) {
      sw::net::Message m;
      m.kind = header.kind;
      m.payload.assign(payload.begin(), payload.end());
      w.failures.push_back("error reply: " +
                           sw::net::decode_error_message(m).text);
      return;
    }
    const auto frame = sw::serve::decode_frame(payload);
    if (timed_codec) w.decode_us += seconds_since(t0) * 1e6;
    if (frame.matrix != r.expected) {
      w.failures.push_back("reply bits differ from the scalar reference");
      return;
    }
    const auto now = Clock::now();
    w.latencies.add(
        std::chrono::duration<double, std::micro>(now - p.sent).count());
    w.verified_words += kWords;
    w.cells += kWords * (r.bits.size() / kWords + kChannels);
  }

  const Setup& setup_;
  std::vector<std::unique_ptr<ClientConn>> conns_;
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed, bool traced) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  for (const std::size_t m : kInputCounts) {
    sw::core::GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies = sw::bench::paper_frequencies();
    s->layouts.push_back(s->designer.design(spec));
  }
  s->design_us = seconds_since(t0) * 1e6 / kInputCounts.size();
  for (const auto& layout : s->layouts) {
    s->hashes.push_back(sw::serve::hash_layout(layout));
  }

  // The oracle: every pooled request evaluated once by the scalar kernel.
  const sw::wavesim::WaveEngine engine(s->model, s->wg.material.alpha);
  std::vector<std::unique_ptr<sw::core::DataParallelGate>> gates;
  std::vector<std::unique_ptr<sw::wavesim::BatchEvaluator>> evaluators;
  for (const auto& layout : s->layouts) {
    gates.push_back(
        std::make_unique<sw::core::DataParallelGate>(layout, engine));
    evaluators.push_back(std::make_unique<sw::wavesim::BatchEvaluator>(
        *gates.back(), sw::wavesim::BatchOptions{.num_threads = 1}));
  }
  auto rng = seeded_rng(seed, /*stream=*/1);
  s->pool.resize(kPoolRequests);
  for (PoolRequest& r : s->pool) {
    r.layout = static_cast<std::size_t>(rng() % kInputCounts.size());
    const std::size_t slots = kInputCounts[r.layout] * kChannels;
    r.bits.resize(kWords * slots);
    fill_random_bits(rng, r.bits.data(), r.bits.size());
    r.expected = evaluators[r.layout]->evaluate_bits(
        kWords, r.bits, sw::wavesim::kernels::scalar_kernel());
  }

  sw::serve::ServiceOptions options;
  options.num_threads = 2;
  if (traced) options.trace_capacity = kTracedRingCapacity;
  s->service = std::make_unique<sw::serve::EvaluatorService>(
      s->model, s->wg.material.alpha, options);
  const sw::core::InlineGateDesigner* designer = &s->designer;
  s->server = std::make_unique<sw::net::EvalServer>(
      *s->service,
      [designer](const sw::core::GateSpec& spec) {
        return designer->design(spec);
      },
      sw::net::Endpoint::parse("tcp:127.0.0.1:0"));
  return s;
}

}  // namespace

Result run_gate_small_tcp(const RunConfig& config) {
  Result result;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<Client> client;
  // Set-up ends with a warm-up pass over every layout: the server designs
  // and caches each layout, the service builds each plan.
  const auto start = [&](bool traced) {
    client.reset();
    auto s = make_setup(config.seed, traced);
    client = std::make_unique<Client>(*s);
    const Window warm = client->run(60.0, kWarmupRequests, false);
    SW_REQUIRE(warm.failures.empty(),
               "warm-up failed: " + warm.failures.front());
    return s;
  };
  const double setup_s =
      timed_setups(config.traced ? 1 : config.setup_reps, setup,
                   [&] { return start(false); });
  // A traced window stops sending before the trace ring could wrap, so its
  // spans cover every request it sent; at this workload's rate that is a
  // few seconds, shorter than --seconds. A traced run's untraced window is
  // one window stopping at the same request count, so the two compare like
  // with like.
  const int windows = config.traced ? 1 : kWindows;
  const Window plain = fastest_window(
      windows,
      [&] {
        Window w = client->run(config.seconds / windows,
                               config.traced ? kTracedRequests : UINT64_MAX,
                               false);
        result.attempted += w.attempted;
        for (const auto& f : w.failures) result.fail(f);
        return w;
      },
      [](const Window& w) { return w.words_per_s(); });
  const double words_per_s = plain.words_per_s();
  report_latency(result, plain.latencies,
                 "send to verified reply, fastest window");

  if (!config.traced) {
    result.set("setup_s", setup_s);
    result.set("words_per_s", words_per_s);
    result.set("requests_per_s", words_per_s / static_cast<double>(kWords));
    result.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  client.reset();
  setup.reset();
  setup = start(true);
  const auto before = setup->service->stats();
  const auto counters_before = setup->server->counters();
  const std::uint64_t ring_start =
      setup->service->trace_recorder().recorded_total();
  const Window traced = client->run(config.seconds, kTracedRequests, true);
  const auto after = setup->service->stats();
  const auto counters_after = setup->server->counters();
  result.attempted += traced.attempted;
  for (const auto& f : traced.failures) result.fail(f);

  SpanTotals spans;
  const auto traces =
      newest_traces(setup->service->trace_recorder(), ring_start);
  for (const auto& t : traces) spans.add_trace(t);
  report_service_layers(result, before, after, spans);

  const double n = static_cast<double>(traced.latencies.count());
  const double words = static_cast<double>(traced.verified_words);
  result.set("net.client_encode_us",
             traced.encode_us / static_cast<double>(traced.attempted));
  result.set("net.client_decode_us", traced.decode_us / n);
  result.set("net.bytes_per_word",
             static_cast<double>(
                 (counters_after.bytes_read - counters_before.bytes_read) +
                 (counters_after.bytes_written -
                  counters_before.bytes_written)) /
                 words);
  result.set("net.backpressure_pauses",
             static_cast<double>(counters_after.backpressure_pauses -
                                 counters_before.backpressure_pauses));
  result.set("wavesim.kernel_bytes_per_word",
             static_cast<double>(traced.cells) / words);
  result.set("core.design_us", setup->design_us);

  const double mean_latency = traced.latencies.mean();
  const double attributed = traced.encode_us / n + traced.decode_us / n +
                            service_attributed_us(spans, traces.size());
  result.set("unattributed_pct",
             100.0 * (mean_latency - attributed) / mean_latency);
  const double traced_wps = traced.words_per_s();
  result.set("trace_overhead_pct",
             100.0 * (words_per_s - traced_wps) / words_per_s);

  char line[320];
  std::snprintf(line, sizeof line,
                "traced window: %zu requests in %.2f s, %zu service traces "
                "(ring %zu), mean latency %.2f us, attributed %.2f us; "
                "untraced window %.2f s: %.0f vs traced %.0f words/s",
                static_cast<std::size_t>(traced.latencies.count()),
                traced.seconds(), traces.size(), kTracedRingCapacity,
                mean_latency, attributed, plain.seconds(), words_per_s,
                traced_wps);
  result.note(line);
  result.note("wavesim.kernel_bytes_per_word is computed: (input slots + "
              "output channels) per word, one byte each");
  return result;
}

}  // namespace perfbench
