// Experiment E8 — networked serving throughput.
//
// The serving question behind the net subsystem: what does the socket
// transport cost relative to handing the same batches to the in-process
// EvaluatorService? A client pushes the same stream of 4096-word packed
// batches (the sweep-shard shape) three ways — pipelined in-process
// submits, localhost TCP through net::EvalServer, and a unix-domain
// socket — all against one shared service so every path runs the same
// cached SIMD plan. Results are cross-checked bit-for-bit first, then a
// hard floor gates CI: localhost TCP must sustain >= 0.75x the in-process
// cached-plan words/s (since the PR 6 pipelined event core, the transport
// overlaps the wire codec with evaluation, so it may cost at most a third
// of the evaluation it feeds). Emits BENCH_net.json for the CI artifact
// trail.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <deque>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
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
#include "wavesim/wave_engine.h"

namespace {

using namespace sw;
using namespace std::chrono_literals;

// The sweep-shard serving shape: big packed batches against the paper's
// 8-channel, 3-input majority fabric.
constexpr std::size_t kNumInputs = 3;
constexpr std::size_t kChannels = 8;
constexpr std::size_t kWordsPerBatch = 4096;
constexpr std::size_t kBatches = 24;

struct NetBenchSetup {
  disp::Waveguide wg = bench::paper_waveguide();
  disp::FvmswDispersion model{wg};
  core::InlineGateDesigner designer{model};
  core::GateLayout layout;
  std::vector<std::uint8_t> batch;
  serve::EvaluatorService service;
  net::EvalServer tcp_server;
  net::EvalServer unix_server;

  static serve::ServiceOptions service_options() {
    serve::ServiceOptions options;
    options.admission.max_queued_requests = kBatches * 2 + 8;
    return options;
  }

  NetBenchSetup()
      : layout([this] {
          core::GateSpec spec;
          spec.num_inputs = kNumInputs;
          spec.frequencies = bench::paper_frequencies();
          return designer.design(spec);
        }()),
        service(model, wg.material.alpha, service_options()),
        tcp_server(
            service,
            [this](const core::GateSpec& spec) {
              return designer.design(spec);
            },
            net::Endpoint::parse("tcp:127.0.0.1:0")),
        unix_server(
            service,
            [this](const core::GateSpec& spec) {
              return designer.design(spec);
            },
            // PID-unique path: a second concurrent run must not unlink
            // and bind over this one's live socket.
            net::Endpoint::parse("unix:/tmp/swlogic_bench_net." +
                                 std::to_string(::getpid()) + ".sock")) {
    const std::size_t slots = kChannels * kNumInputs;
    batch.resize(kWordsPerBatch * slots);
    std::mt19937 rng(20260727);
    std::bernoulli_distribution coin(0.5);
    for (auto& b : batch) b = coin(rng) ? 1 : 0;
  }
};

NetBenchSetup& setup() {
  static NetBenchSetup s;
  return s;
}

/// Pipelined in-process client: the cached-plan baseline the socket paths
/// are measured against.
std::vector<std::uint8_t> run_inprocess(NetBenchSetup& s) {
  std::deque<std::future<serve::ResultBatch>> inflight;
  for (std::size_t i = 0; i < kBatches; ++i) {
    inflight.push_back(s.service.submit(serve::EvalRequest::for_layout(s.layout, s.batch, kWordsPerBatch)));
  }
  std::vector<std::uint8_t> last;
  while (!inflight.empty()) {
    last = inflight.front().get().bits;
    inflight.pop_front();
  }
  return last;
}

/// Pipelined requests in flight per connection. Kept under the server's
/// max_inflight_per_connection so back-pressure never pauses the read side
/// mid-benchmark.
constexpr std::size_t kPipelineDepth = 8;

/// Socket client: split the batch stream over a few connections, each
/// keeping kPipelineDepth tagged frames in flight (the PR 6 event server
/// completes them out of order; replies are matched back by tag).
std::vector<std::uint8_t> run_socket(NetBenchSetup& s,
                                     const net::Endpoint& endpoint,
                                     std::size_t connections) {
  const std::uint64_t hash = serve::hash_layout(s.layout);
  std::vector<std::thread> clients;
  std::vector<std::uint8_t> last;
  std::vector<std::exception_ptr> errors(connections);
  std::mutex last_mutex;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        auto conn = net::Connection::connect(endpoint, 5000ms);
        std::vector<std::uint8_t> request;
        std::vector<std::uint8_t> rbuf;
        std::size_t rpos = 0;
        std::vector<std::uint8_t> mine;
        std::size_t next = c;      // next batch index to send
        std::size_t inflight = 0;
        std::size_t received = 0;
        std::size_t total = 0;
        for (std::size_t i = c; i < kBatches; i += connections) ++total;
        // Buffered reads: one recv may carry several pipelined replies, so
        // parse from a rolling buffer instead of two syscalls per message.
        constexpr std::size_t kRecvChunk = 64u << 10;
        const auto ensure_buffered = [&](std::size_t need) {
          while (rbuf.size() - rpos < need) {
            const std::size_t old = rbuf.size();
            rbuf.resize(old + kRecvChunk);
            const auto got = conn.recv_some({rbuf.data() + old, kRecvChunk});
            if (got < 0) {
              rbuf.resize(old);
              SW_REQUIRE(conn.wait_readable(30000ms),
                         "timed out awaiting a reply mid-benchmark");
              continue;
            }
            SW_REQUIRE(got > 0, "server closed mid-benchmark");
            rbuf.resize(old + static_cast<std::size_t>(got));
          }
        };
        while (received < total) {
          // Refill the pipeline window in bursts (hysteresis keeps the
          // depth >= half the cap with a few frames per send syscall).
          if (next < kBatches && inflight <= kPipelineDepth / 2) {
            request.clear();
            while (inflight < kPipelineDepth && next < kBatches) {
              net::append_frame_message(
                  request,
                  serve::make_request_view(s.layout.spec, hash,
                                           next * kWordsPerBatch,
                                           kWordsPerBatch, s.batch),
                  /*tag=*/next);
              next += connections;
              ++inflight;
            }
            conn.send_all(request, 10000ms);
          }
          ensure_buffered(net::kMessageHeaderSize);
          const auto header = net::parse_message_header(
              {rbuf.data() + rpos, net::kMessageHeaderSize});
          ensure_buffered(net::kMessageHeaderSize + header.payload_size);
          const std::span<const std::uint8_t> payload{
              rbuf.data() + rpos + net::kMessageHeaderSize,
              static_cast<std::size_t>(header.payload_size)};
          net::verify_message_payload(header, payload);
          if (header.kind == net::MessageKind::kError) {
            net::Message err;
            err.kind = header.kind;
            err.payload.assign(payload.begin(), payload.end());
            const auto info = net::decode_error_message(err);
            throw net::RemoteError(info.code, info.text);
          }
          SW_REQUIRE(header.kind == net::MessageKind::kFrame,
                     "unexpected reply kind mid-benchmark");
          auto frame = serve::decode_frame(payload);
          // The tag must identify the request this completion answers.
          SW_REQUIRE(frame.word_offset == header.tag * kWordsPerBatch,
                     "reply tag does not match its frame's word range");
          mine = std::move(frame.matrix);
          rpos += net::kMessageHeaderSize + header.payload_size;
          if (rpos == rbuf.size()) {
            rbuf.clear();
            rpos = 0;
          }
          --inflight;
          ++received;
        }
        std::lock_guard<std::mutex> lock(last_mutex);
        last = std::move(mine);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return last;
}

void run_experiment(bench::BenchJson& json) {
  auto& s = setup();
  const double words = static_cast<double>(kBatches * kWordsPerBatch);
  const std::size_t connections =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
  std::printf("%zu batches x %zu words, %zu-input %zu-channel layout, "
              "%zu socket connection(s)\n\n",
              kBatches, kWordsPerBatch, kNumInputs, kChannels, connections);

  // Warm the plan cache; steady state is what serving measures.
  (void)s.service.submit(serve::EvalRequest::for_layout(s.layout, s.batch, kWordsPerBatch)).get();

  // Interleaved best-of-N: one round times all three paths back to back,
  // so a noisy-neighbour window on a shared core hits them alike instead
  // of deflating whichever path it happened to land on. The per-path best
  // then compares clean windows against clean windows.
  constexpr int kRounds = 5;
  const auto timed = [](const auto& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  std::vector<std::uint8_t> expected, via_tcp, via_unix;
  double inprocess_s = std::numeric_limits<double>::infinity();
  double tcp_s = inprocess_s;
  double unix_s = inprocess_s;
  for (int round = 0; round < kRounds; ++round) {
    inprocess_s =
        std::min(inprocess_s, timed([&] { expected = run_inprocess(s); }));
    tcp_s = std::min(tcp_s, timed([&] {
              via_tcp =
                  run_socket(s, s.tcp_server.local_endpoint(), connections);
            }));
    unix_s = std::min(unix_s, timed([&] {
               via_unix = run_socket(s, s.unix_server.local_endpoint(),
                                     connections);
             }));
  }

  SW_REQUIRE(via_tcp == expected && via_unix == expected,
             "socket results diverged from the in-process sweep");

  const auto stats = s.service.stats();
  std::printf("in-process pipelined : %8.1f ms  (%10.0f words/s, kernel: "
              "%s)\n",
              inprocess_s * 1e3, words / inprocess_s, stats.kernel.c_str());
  std::printf("TCP localhost        : %8.1f ms  (%10.0f words/s, %.2fx "
              "in-process)\n",
              tcp_s * 1e3, words / tcp_s, inprocess_s / tcp_s);
  std::printf("unix-domain socket   : %8.1f ms  (%10.0f words/s, %.2fx "
              "in-process)\n\n",
              unix_s * 1e3, words / unix_s, inprocess_s / unix_s);
  std::printf("service latency: mean %.0f us over %llu request(s)\n\n",
              stats.request_latency.mean() * 1e6,
              static_cast<unsigned long long>(stats.request_latency.count));

  json.add("inprocess_pipelined", stats.kernel, "f64", words / inprocess_s);
  json.add("tcp_localhost", stats.kernel, "f64", words / tcp_s);
  json.add("unix_localhost", stats.kernel, "f64", words / unix_s);

  std::fflush(stdout);
  // The acceptance bar: with pipelining overlapping the wire codec and
  // evaluation, localhost TCP must sustain >= 0.75x the in-process
  // cached-plan words/s.
  SW_REQUIRE(inprocess_s / tcp_s >= 0.75,
             "localhost TCP serving fell below 0.75x in-process throughput");
}

void BM_TcpBatchRoundTrip(benchmark::State& state) {
  auto& s = setup();
  auto conn =
      net::Connection::connect(s.tcp_server.local_endpoint(), 5000ms);
  for (auto _ : state) {
    net::send_message(conn,
                      net::make_frame_message(serve::make_request_frame(
                          s.layout, 0, kWordsPerBatch, s.batch)),
                      10000ms);
    auto response = net::recv_frame(conn, 30000ms);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWordsPerBatch));
}
BENCHMARK(BM_TcpBatchRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== E8: networked serving — localhost sockets vs in-process ===\n\n");
  sw::bench::BenchJson json("BENCH_net.json");
  run_experiment(json);
  json.write("bench_net_throughput");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
