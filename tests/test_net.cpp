// Networked-serving tests: endpoint parsing, socket round trips and
// timeout behaviour over TCP and unix-domain transports, the message
// envelope, EvalServer end-to-end against the in-process evaluator
// (including pipelined tagged out-of-order completion, warm small frames
// evaluated inline on the event thread under a per-turn fairness bound,
// frames trickled a few bytes per read or straddling the read chunk and
// buffer compaction, kShed mapping to a typed error frame on a surviving
// connection, connection-cap refusal with a live accept loop, metrics
// scraping and layout-hash rejection), the worker registry (advert codec,
// TTL upsert/expiry, tag echo), and the SweepCoordinator's distributed
// exhaustive sweep with its two-shard window per connection, a first
// shard for every worker, registry discovery, straggler re-sharding,
// shed-shard re-queueing, bit-exact duplicate deduplication and
// divergent-duplicate abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "net/eval_server.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "net/registry.h"
#include "net/socket.h"
#include "net/sweep_coordinator.h"
#include "obs/trace.h"
#include "serve/layout_hash.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::net;
using sw::core::DataParallelGate;
using sw::core::GateLayout;
using sw::core::GateSpec;
using sw::core::InlineGateDesigner;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::WaveEngine;
using namespace std::chrono_literals;

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

GateSpec majority_spec(std::size_t m, std::size_t n) {
  GateSpec spec;
  spec.num_inputs = m;
  for (std::size_t i = 1; i <= n; ++i) {
    spec.frequencies.push_back(1e10 * static_cast<double>(i));
  }
  return spec;
}

std::vector<std::uint8_t> random_matrix(std::size_t rows, std::size_t cols,
                                        unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::uint8_t> m(rows * cols);
  for (auto& b : m) b = coin(rng) ? 1 : 0;
  return m;
}

/// Value of a `name value` exposition line, or -1 when absent. Matches at
/// line starts only, so a name that prefixes another (rx_bytes_total vs a
/// labelled variant) cannot alias.
double metric_value(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return -1.0;
}

/// Everything a worker end needs: model, designer, service, server.
struct ServerFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  sw::serve::EvaluatorService service;
  EvalServer server;

  explicit ServerFixture(const Endpoint& endpoint,
                         sw::serve::ServiceOptions service_options = {},
                         EvalServerOptions server_options = {})
      : service(model, wg.material.alpha, std::move(service_options)),
        server(
            service,
            [this](const GateSpec& spec) { return designer.design(spec); },
            endpoint, server_options) {}
};

Endpoint loopback() { return Endpoint::parse("tcp:127.0.0.1:0"); }

/// Send one tagged request frame, encoded straight from `view`.
void send_frame(Connection& conn, const sw::serve::SweepFrameView& view,
                std::uint64_t tag) {
  std::vector<std::uint8_t> bytes;
  append_frame_message(bytes, view, tag);
  conn.send_all(bytes, 2000ms);
}

// ------------------------------------------------------------- endpoints --

TEST(NetEndpoint, ParsesTcpAndUnix) {
  const auto tcp = Endpoint::parse("tcp:127.0.0.1:8080");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8080);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:8080");

  const auto unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");
}

TEST(NetEndpoint, RejectsMalformed) {
  EXPECT_THROW((void)Endpoint::parse("tcp:127.0.0.1"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp::8080"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:65536"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("tcp:h:80x"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("unix:"), sw::util::Error);
  EXPECT_THROW((void)Endpoint::parse("udp:1.2.3.4:5"), sw::util::Error);
}

// ----------------------------------------------------- socket + envelope --

void roundtrip_over(const Endpoint& endpoint) {
  Listener listener(endpoint);
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(client.valid());

  // Error message client -> server.
  send_message(client, make_error_message(ErrorCode::kOverload, "busy"),
               1000ms);
  auto got = recv_message(*accepted, 2000ms);
  ASSERT_TRUE(got.has_value());
  const auto info = decode_error_message(*got);
  EXPECT_EQ(info.code, ErrorCode::kOverload);
  EXPECT_EQ(info.text, "busy");

  // Metrics text server -> client.
  send_message(*accepted,
               make_text_message(MessageKind::kMetricsResponse, "a 1\n"),
               1000ms);
  auto text = recv_message(client, 2000ms);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(decode_text_message(*text), "a 1\n");

  // Orderly close surfaces as nullopt, not an exception.
  client.close();
  EXPECT_FALSE(recv_message(*accepted, 2000ms).has_value());
}

TEST(NetSocket, TcpRoundtrip) { roundtrip_over(loopback()); }

TEST(NetSocket, UnixRoundtrip) {
  const std::string path =
      testing::TempDir() + "swlogic_net_roundtrip.sock";
  roundtrip_over(Endpoint::parse("unix:" + path));
}

TEST(NetSocket, RecvTimesOutOnSilentPeer) {
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)recv_message(*accepted, 100ms), TimeoutError);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 90ms);
  EXPECT_LT(waited, 5s) << "timeout must be bounded";
}

TEST(NetSocket, ConnectTimesOutWithoutListener) {
  // Bind-then-close gives a port with (almost certainly) nobody on it.
  std::uint16_t port;
  {
    Listener listener(loopback());
    port = listener.local_endpoint().port;
  }
  EXPECT_THROW((void)Connection::connect(
                   Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port)),
                   200ms),
               TimeoutError);
}

TEST(NetProtocol, CorruptEnvelopeRejected) {
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  ASSERT_TRUE(accepted.has_value());

  auto bytes = encode_message(
      make_error_message(ErrorCode::kInternal, "corrupt me"));
  bytes.back() ^= 0x01;  // payload flip -> checksum mismatch
  client.send_all(bytes, 1000ms);
  EXPECT_THROW((void)recv_message(*accepted, 2000ms), sw::util::Error);
}

TEST(NetProtocol, OversizedPayloadPrefixRejected) {
  auto bytes =
      encode_message(make_error_message(ErrorCode::kInternal, "x"));
  // Stamp an absurd payload_size (offset 16 in the v2 header) before any
  // body arrives: the decoder must reject from the header alone instead
  // of allocating.
  for (int i = 0; i < 8; ++i) bytes[16 + i] = 0xFF;
  Listener listener(loopback());
  Connection client;
  std::thread connector([&] {
    client = Connection::connect(listener.local_endpoint(), 2000ms);
  });
  auto accepted = listener.accept(2000ms);
  connector.join();
  client.send_all(bytes, 1000ms);
  EXPECT_THROW((void)recv_message(*accepted, 2000ms), sw::util::Error);
}

// ------------------------------------------------------------ EvalServer --

TEST(EvalServer, ServesBatchesBitExactWithMetrics) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t slots = 4 * 3;
  const std::size_t words = 257;  // odd size: exercises vector tails
  const auto matrix = random_matrix(words, slots, 42);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(words, matrix);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  for (int round = 0; round < 3; ++round) {
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     layout, 0, words, matrix)),
                 2000ms);
    const auto response = recv_frame(conn, 10000ms);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->kind, sw::serve::FrameKind::kResponse);
    EXPECT_EQ(response->num_words, words);
    EXPECT_EQ(response->num_cols, 4u);
    EXPECT_EQ(response->matrix, expected);
  }

  Message metrics_request;
  metrics_request.kind = MessageKind::kMetricsRequest;
  send_message(conn, metrics_request, 2000ms);
  auto metrics = recv_message(conn, 5000ms);
  ASSERT_TRUE(metrics.has_value());
  const std::string text = decode_text_message(*metrics);
  // Rounds 2 and 3 find the program cached and run inline on the event
  // thread; the service and transport metrics count them all the same.
  EXPECT_NE(text.find("sw_serve_requests_completed 3"), std::string::npos)
      << text;
  EXPECT_EQ(metric_value(text, "sw_net_responses_sent"), 3.0) << text;
  EXPECT_EQ(metric_value(text, "sw_serve_request_latency_seconds_count"), 3.0)
      << text;
  EXPECT_NE(text.find("sw_serve_latency_p99_seconds"), std::string::npos);
  EXPECT_NE(text.find("sw_serve_plan_cache_hits 2"), std::string::npos);
  EXPECT_NE(text.find("sw_net_frames_received 3"), std::string::npos);
  EXPECT_NE(text.find("sw_net_connections_accepted 1"), std::string::npos);
  // The kernel/precision identity gauge and the detector-granularity f32
  // share must scrape: the kernel label is the active kernel's name, and
  // the ratio and block-plan lines carry what the service's own stats say
  // (rendered as render_service_metrics does), whatever precision the
  // process resolved.
  EXPECT_NE(
      text.find("sw_serve_kernel_info{kernel=\"" +
                std::string(sw::wavesim::active_kernel_name()) + "\""),
      std::string::npos)
      << text;
  const sw::serve::ServiceStats stats = fx.service.stats();
  const double mix_total =
      static_cast<double>(stats.cache.f32_detectors) +
      static_cast<double>(stats.cache.f64_rescue_detectors);
  const double ratio =
      mix_total > 0.0
          ? static_cast<double>(stats.cache.f32_detectors) / mix_total
          : 0.0;
  char line[96];
  std::snprintf(line, sizeof line, "\nsw_serve_f32_detector_ratio %.9g\n",
                ratio);
  EXPECT_NE(text.find(line), std::string::npos) << text;
  std::snprintf(line, sizeof line, "\nsw_serve_plan_cache_block_plans %llu\n",
                static_cast<unsigned long long>(stats.cache.block_plans));
  EXPECT_NE(text.find(line), std::string::npos) << text;
  if (stats.precision == "f32") {
    // An f32 service built this fixture's plan with f32 detectors.
    EXPECT_GT(ratio, 0.0) << text;
  }

  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, 3u);
  EXPECT_EQ(counters.responses_sent, 3u);
  EXPECT_EQ(counters.metrics_requests, 1u);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, MetricsHistogramsAndByteCountersScrapeMonotonically) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t words = 64;
  const auto matrix = random_matrix(words, 4 * 3, 9);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  const auto roundtrip = [&] {
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     layout, 0, words, matrix)),
                 2000ms);
    ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());
  };
  roundtrip();

  const std::string first = fetch_text(
      fx.server.local_endpoint(), MessageKind::kMetricsRequest, 5000ms);
  // Every histogram family renders in full Prometheus form: cumulative
  // buckets ending at +Inf, then _sum and _count.
  for (const std::string fam :
       {"sw_serve_request_latency_seconds", "sw_serve_admission_wait_seconds",
        "sw_serve_queue_wait_seconds", "sw_serve_kernel_exec_seconds",
        "sw_serve_batch_words"}) {
    EXPECT_NE(first.find(fam + "_bucket{le=\"+Inf\"} "), std::string::npos)
        << fam << " buckets missing:\n" << first;
    EXPECT_GE(metric_value(first, fam + "_sum"), 0.0) << fam;
    EXPECT_GE(metric_value(first, fam + "_count"), 1.0) << fam;
  }
  EXPECT_EQ(metric_value(first, "sw_serve_request_latency_seconds_count"),
            1.0);
  EXPECT_EQ(metric_value(first, "sw_serve_batch_words_sum"),
            static_cast<double>(words));
  // The windowed summary gained mean and max next to the percentiles.
  EXPECT_GE(metric_value(first, "sw_serve_latency_mean_seconds"), 0.0);
  EXPECT_GE(metric_value(first, "sw_serve_latency_max_seconds"),
            metric_value(first, "sw_serve_latency_mean_seconds"));
  const double rx1 = metric_value(first, "sw_net_rx_bytes_total");
  const double tx1 = metric_value(first, "sw_net_tx_bytes_total");
  EXPECT_GT(rx1, 0.0) << first;
  EXPECT_GT(tx1, 0.0) << first;

  // Counter monotonicity: another request can only grow the totals.
  roundtrip();
  const std::string second = fetch_text(
      fx.server.local_endpoint(), MessageKind::kMetricsRequest, 5000ms);
  EXPECT_EQ(metric_value(second, "sw_serve_request_latency_seconds_count"),
            2.0);
  EXPECT_GT(metric_value(second, "sw_net_rx_bytes_total"), rx1);
  EXPECT_GT(metric_value(second, "sw_net_tx_bytes_total"), tx1);
  EXPECT_GE(metric_value(second, "sw_serve_kernel_exec_seconds_sum"),
            metric_value(first, "sw_serve_kernel_exec_seconds_sum"));
}

TEST(EvalServer, TraceRequestReturnsPerPhaseSpans) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t words = 64;
  const auto matrix = random_matrix(words, 4 * 3, 11);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_request_frame(
                   layout, 0, words, matrix)),
               2000ms);
  ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());

  Message trace_request;
  trace_request.kind = MessageKind::kTraceRequest;
  trace_request.tag = 9;
  send_message(conn, trace_request, 2000ms);
  const auto reply = recv_message(conn, 5000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->kind, MessageKind::kTraceResponse);
  EXPECT_EQ(reply->tag, 9u);
  const std::string json = decode_text_message(*reply);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The served request's full lifetime, phase by phase: decoded off the
  // wire, admitted, plan looked up, queued, evaluated, encoded, flushed.
  for (const std::string phase :
       {"wire_decode", "admission", "plan_lookup", "queue", "kernel",
        "wire_encode", "write_queue"}) {
    EXPECT_NE(json.find("\"name\":\"" + phase + "\""), std::string::npos)
        << "missing " << phase << " span:\n" << json;
  }
  EXPECT_EQ(fx.server.counters().trace_requests, 1u);

  // The one-shot client helper fetches the same document.
  const std::string again = fetch_text(fx.server.local_endpoint(),
                                       MessageKind::kTraceRequest, 5000ms);
  EXPECT_NE(again.find("\"name\":\"kernel\""), std::string::npos);
}

TEST(EvalServer, ShedMapsToErrorFrameNotDroppedConnection) {
  // One service worker held in place + a 1-deep admission queue: the
  // third concurrent request must shed.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> started{0};

  sw::serve::ServiceOptions options;
  options.num_threads = 1;
  options.admission.max_queued_requests = 1;
  options.admission.policy = sw::serve::OverloadPolicy::kShed;
  options.on_request_start = [&](std::uint64_t) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
  };

  ServerFixture fx(loopback(), std::move(options));
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const std::size_t slots = 2 * 3;
  const auto matrix = random_matrix(4, slots, 7);
  const auto request =
      sw::serve::make_request_frame(layout, 0, 4, matrix);

  auto conn_a = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto conn_b = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto conn_c = Connection::connect(fx.server.local_endpoint(), 2000ms);

  // A occupies the held worker; B fills the queue. Wait on the service's
  // own accounting at each step so C deterministically finds both budget
  // slots taken however slowly the handler threads get scheduled.
  send_message(conn_a, make_frame_message(request), 2000ms);
  while (started.load() == 0) std::this_thread::sleep_for(1ms);
  send_message(conn_b, make_frame_message(request), 2000ms);
  {
    // Generous deadline: on a one-core host a parallel ctest run can
    // starve B's handler thread for a long time; the steady state (held
    // worker + B queued) is what matters, not how fast it is reached.
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (fx.service.stats().queued_requests < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(fx.service.stats().queued_requests, 1u)
        << "request B never reached the admission queue";
  }

  send_message(conn_c, make_frame_message(request), 2000ms);
  bool shed = false;
  try {
    (void)recv_frame(conn_c, 60000ms);
  } catch (const RemoteError& e) {
    shed = true;
    EXPECT_EQ(e.code(), ErrorCode::kOverload);
  }
  EXPECT_TRUE(shed) << "third request should have been shed";

  // The shed connection stays serviceable: release the gate, drain A and
  // B (their completion frees the whole admission budget), then retry on
  // C — which must now be admitted and answered on the same connection.
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(recv_frame(conn_a, 60000ms).has_value());
  EXPECT_TRUE(recv_frame(conn_b, 60000ms).has_value());
  send_message(conn_c, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn_c, 60000ms).has_value());
  EXPECT_GE(fx.server.counters().overloads, 1u);
}

TEST(EvalServer, RejectsAlienGeometryWithTypedError) {
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(2, 6, 3);
  auto request = sw::serve::make_request_frame(layout, 0, 2, matrix);
  request.layout_hash ^= 0xdeadbeefull;  // claim a different geometry

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn, make_frame_message(request), 2000ms);
  try {
    (void)recv_frame(conn, 10000ms);
    FAIL() << "expected a typed error reply";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("hash mismatch"),
              std::string::npos);
  }
  // And the connection survives a bad request.
  request.layout_hash ^= 0xdeadbeefull;
  send_message(conn, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

TEST(EvalServer, RefusesMisShapedFramesBeforeDesigning) {
  // A frame whose column count is not its target's input slot count is
  // refused before the server designs anything (a cold v2 design runs on
  // the event thread) or sizes the frame's columns; the connection
  // survives.
  const Waveguide wg = paper_waveguide();
  const FvmswDispersion model{wg};
  const InlineGateDesigner designer{model};
  sw::serve::EvaluatorService service(model, wg.material.alpha);
  std::atomic<int> designs{0};
  EvalServer server(
      service,
      [&](const GateSpec& spec) {
        ++designs;
        return designer.design(spec);
      },
      loopback());
  const GateSpec spec = majority_spec(3, 4);  // 12 input slots
  sw::wavesim::ProgramSpec program;
  program.num_primary_inputs = 3;
  program.stages.push_back({spec, {}});
  for (std::uint32_t j = 0; j < 12; ++j) {
    program.stages[0].sources.push_back(
        {sw::wavesim::SlotSource::Kind::kPrimary, 0, j, false});
  }
  const std::size_t words = 64;

  auto conn = Connection::connect(server.local_endpoint(), 2000ms);
  for (const bool v3 : {false, true}) {
    for (const std::size_t cols : {11ul, 13ul, 24ul}) {
      sw::serve::SweepFrame frame;
      frame.kind = sw::serve::FrameKind::kRequest;
      frame.num_words = words;
      frame.num_cols = cols;
      if (v3) {
        frame.program = program;
        frame.layout_hash = sw::serve::hash_program(program);
      } else {
        frame.spec = spec;
      }
      frame.matrix = random_matrix(words, cols, 17);
      send_message(conn, make_frame_message(frame), 2000ms);
      try {
        (void)recv_frame(conn, 10000ms);
        FAIL() << "expected a typed error reply for " << cols << " columns";
      } catch (const RemoteError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
        EXPECT_NE(std::string(e.what()).find("input slots"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_EQ(designs.load(), 0);
  EXPECT_EQ(service.stats().submitted, 0u);

  // A well-shaped frame on the same connection is designed and served.
  const GateLayout layout = designer.design(spec);
  send_message(conn,
               make_frame_message(sw::serve::make_request_frame(
                   layout, 0, words, random_matrix(words, 12, 18))),
               2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
  EXPECT_EQ(designs.load(), 1);
}

TEST(EvalServer, TracesAColdDesignApartFromTheWireDecode) {
  // A cold v2 spec is designed on the event thread, after the frame is
  // decoded: its trace carries a design span of its own, longer than the
  // decode span, and the warm repeat carries none.
  ServerFixture fx(loopback());
  const GateLayout warm_up = fx.designer.design(majority_spec(2, 4));
  const GateLayout layout = fx.designer.design(majority_spec(3, 4));
  const std::size_t words = 64;
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  // Another spec first, so the cold request pays its design and no
  // first-frame setup.
  for (const GateLayout* l : {&warm_up, &layout, &layout}) {
    const std::size_t slots = l->spec.num_inputs * l->spec.frequencies.size();
    send_message(conn,
                 make_frame_message(sw::serve::make_request_frame(
                     *l, 0, words, random_matrix(words, slots, 23))),
                 2000ms);
    ASSERT_TRUE(recv_frame(conn, 10000ms).has_value());
  }
  // The server records a trace once its reply has left for the socket.
  std::vector<sw::obs::TraceContext> traces;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while ((traces = fx.service.trace_recorder().snapshot()).size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(traces.size(), 3u);
  const auto span_ns = [](const sw::obs::TraceContext& t,
                          sw::obs::Phase phase) -> std::int64_t {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t.span(i).phase == phase) {
        return static_cast<std::int64_t>(t.span(i).end_ns - t.span(i).start_ns);
      }
    }
    return -1;
  };
  // Most recent first: the warm repeat, then the cold request.
  const std::int64_t design = span_ns(traces[1], sw::obs::Phase::kDesign);
  const std::int64_t decode = span_ns(traces[1], sw::obs::Phase::kWireDecode);
  ASSERT_GE(design, 0) << "the cold request carries no design span";
  ASSERT_GE(decode, 0);
  EXPECT_LT(decode, design);
  EXPECT_EQ(span_ns(traces[0], sw::obs::Phase::kDesign), -1);
  EXPECT_GE(span_ns(traces[0], sw::obs::Phase::kWireDecode), 0);
}

TEST(EvalServer, RepliesAreTheBytesOfTheMatrixEncoder) {
  // Replies are packed straight from the result columns; their frames must
  // be byte for byte what encode_frame makes of the result rows, for full
  // and partial 64-word groups and a channel count with row padding.
  ServerFixture fx(loopback());
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  std::uint64_t tag = 1;
  for (const auto& [m, n] : {std::pair{3ul, 8ul}, std::pair{2ul, 5ul}}) {
    const GateLayout layout = fx.designer.design(majority_spec(m, n));
    const DataParallelGate gate(layout, engine);
    const BatchEvaluator evaluator(gate);
    for (const std::size_t words : {1ul, 64ul, 4097ul}) {
      const auto matrix = random_matrix(words, m * n, 29);
      const auto request =
          sw::serve::make_request_frame(layout, 5 * words, words, matrix);
      send_frame(conn, sw::serve::as_view(request), tag);
      const auto reply = recv_message(conn, 10000ms);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->kind, MessageKind::kFrame);
      EXPECT_EQ(reply->tag, tag);
      EXPECT_EQ(reply->payload,
                sw::serve::encode_frame(sw::serve::make_response_frame(
                    request, n, evaluator.evaluate_bits(words, matrix))))
          << m << " inputs x " << n << " channels, " << words << " words";
      ++tag;
    }
  }
}

TEST(EvalServer, ServesMoreLayoutsThanItsLayoutCacheHolds) {
  // The server keeps 32 designed v2 layouts. Forty distinct targets over
  // one pipelined connection make it drop entries, so later frames for a
  // dropped layout are designed and hash-checked again.
  ServerFixture fx(loopback());
  constexpr std::size_t kLayouts = 40;
  constexpr std::size_t kWords = 24;
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  std::vector<GateLayout> layouts;
  std::vector<std::vector<std::uint8_t>> matrices;
  std::vector<std::vector<std::uint8_t>> expected;
  for (std::size_t k = 0; k < kLayouts; ++k) {
    GateSpec spec = majority_spec(3, 2);
    for (double& f : spec.frequencies) f += 1e8 * static_cast<double>(k);
    layouts.push_back(fx.designer.design(spec));
    const DataParallelGate gate(layouts.back(), engine);
    const BatchEvaluator evaluator(gate, {.num_threads = 1});
    matrices.push_back(random_matrix(kWords, evaluator.slot_count(),
                                     static_cast<unsigned>(100 + k)));
    expected.push_back(evaluator.evaluate_bits(kWords, matrices.back()));
  }

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  // One burst of frames tagged by layout index; every reply is checked
  // against that layout's BatchEvaluator bits.
  const auto pipeline = [&](const std::vector<std::size_t>& indices) {
    std::vector<std::uint8_t> burst;
    for (const std::size_t k : indices) {
      append_frame_message(
          burst,
          sw::serve::make_request_view(layouts[k].spec,
                                       sw::serve::hash_layout(layouts[k]), 0,
                                       kWords, matrices[k]),
          k);
    }
    conn.send_all(burst, 5000ms);
    for (std::size_t i = 0; i < indices.size(); ++i) {
      auto message = recv_message(conn, 60000ms);
      ASSERT_TRUE(message.has_value());
      ASSERT_EQ(message->kind, MessageKind::kFrame);
      ASSERT_LT(message->tag, kLayouts);
      const auto frame = sw::serve::decode_frame(message->payload);
      EXPECT_EQ(frame.matrix, expected[message->tag])
          << "layout " << message->tag;
    }
  };
  std::vector<std::size_t> all(kLayouts);
  for (std::size_t k = 0; k < kLayouts; ++k) all[k] = k;
  pipeline(all);
  // The first layout again, then every layout: at least eight of them
  // were dropped from the server's layout cache by now.
  pipeline({0});
  pipeline(all);

  // A tampered hash still fails the geometry check for a layout the cache
  // dropped (and for one it holds).
  auto request =
      sw::serve::make_request_frame(layouts[0], 0, kWords, matrices[0]);
  request.layout_hash ^= 0xdeadbeefull;
  send_message(conn, make_frame_message(request), 2000ms);
  try {
    (void)recv_frame(conn, 10000ms);
    FAIL() << "expected a typed error reply";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("hash mismatch"),
              std::string::npos);
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.responses_sent, 2 * kLayouts + 1);
  EXPECT_EQ(counters.errors_sent, 1u);
}

/// Synthesize `bits` (a 3-ary truth table) into a majority cascade and
/// lower it onto an n-channel fabric.
sw::wavesim::ProgramSpec synthesize_program(std::uint16_t bits,
                                            std::size_t n) {
  sw::compile::Synthesizer synth;
  const auto circuit = synth.compile(sw::compile::TruthTable(3, bits));
  return sw::compile::lower_to_program(circuit, majority_spec(3, n));
}

/// Per-stage physics oracle (mirrors the serving-layer tests): every stage
/// evaluated as its own DataParallelGate, inputs gathered per SlotSource.
/// Returns stage-major outputs; the last n entries are the program output.
std::vector<std::uint8_t> physics_stage_outputs(
    const sw::wavesim::ProgramSpec& program,
    const InlineGateDesigner& designer, const WaveEngine& engine,
    std::span<const std::uint8_t> primary_row) {
  using sw::wavesim::SlotSource;
  const std::size_t n = program.num_channels();
  std::vector<std::uint8_t> stage_out;
  for (const auto& ss : program.stages) {
    const DataParallelGate gate(designer.design(ss.gate), engine);
    const std::size_t m = ss.gate.num_inputs;
    std::vector<sw::core::Bits> inputs(n, sw::core::Bits(m));
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (std::size_t k = 0; k < m; ++k) {
        const auto& src = ss.sources[ch * m + k];
        bool v = false;
        switch (src.kind) {
          case SlotSource::Kind::kZero: v = false; break;
          case SlotSource::Kind::kOne: v = true; break;
          case SlotSource::Kind::kPrimary:
            v = primary_row[src.index] != 0;
            break;
          case SlotSource::Kind::kStage:
            v = stage_out[src.stage * n + src.index] != 0;
            break;
        }
        inputs[ch][k] = static_cast<std::uint8_t>(v != src.negated);
      }
    }
    const auto results = gate.evaluate(inputs);
    std::vector<std::uint8_t> out(n);
    for (const auto& r : results) out[r.channel] = r.logic;
    stage_out.insert(stage_out.end(), out.begin(), out.end());
  }
  return stage_out;
}

TEST(EvalServer, ServesCompiledProgramsBitExact) {
  ServerFixture fx(loopback());
  const std::size_t n = 4;
  const std::uint16_t bits = 0x1B;
  const auto program = synthesize_program(bits, n);
  ASSERT_GE(program.num_stages(), 2u);  // a real cascade, not one gate
  const std::size_t words = 33;  // odd size: exercises vector tails
  const std::size_t cols = program.primary_slot_count();
  const auto matrix = random_matrix(words, cols, 71);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_program_request_frame(
                   program, 0, words, matrix)),
               2000ms);
  const auto response = recv_frame(conn, 10000ms);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->kind, sw::serve::FrameKind::kResponse);
  EXPECT_EQ(response->layout_hash, sw::serve::hash_program(program));
  EXPECT_EQ(response->num_words, words);
  EXPECT_EQ(response->num_cols, n);
  ASSERT_EQ(response->matrix.size(), words * n);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const sw::compile::TruthTable table(3, bits);
  for (std::size_t w = 0; w < words; ++w) {
    const std::span<const std::uint8_t> row{matrix.data() + w * cols, cols};
    const auto stages =
        physics_stage_outputs(program, fx.designer, engine, row);
    for (std::size_t ch = 0; ch < n; ++ch) {
      // The remote fused result equals the local per-stage physics …
      EXPECT_EQ(response->matrix[w * n + ch],
                stages[(program.num_stages() - 1) * n + ch])
          << "w=" << w << " ch=" << ch;
      // … and the Boolean function the client compiled.
      std::size_t a = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        a |= static_cast<std::size_t>(row[ch * 3 + i] != 0) << i;
      }
      EXPECT_EQ(response->matrix[w * n + ch], table.value(a) ? 1 : 0)
          << "w=" << w << " ch=" << ch;
    }
  }

  // Warm now: a pipelined burst of tagged program frames runs inline on
  // the event thread. The same matrix again must give the same bytes, and
  // fresh matrices the compiled function's table.
  constexpr std::uint64_t kBurst = 4;
  std::vector<std::vector<std::uint8_t>> matrices{matrix};
  for (std::uint64_t tag = 1; tag < kBurst; ++tag) {
    matrices.push_back(
        random_matrix(words, cols, static_cast<unsigned>(71 + tag)));
  }
  std::vector<std::uint8_t> burst;
  const std::uint64_t hash = sw::serve::hash_program(program);
  for (std::uint64_t tag = 0; tag < kBurst; ++tag) {
    append_frame_message(
        burst,
        sw::serve::make_program_request_view(program, hash, 0, words,
                                             matrices[tag]),
        tag);
  }
  conn.send_all(burst, 5000ms);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto message = recv_message(conn, 10000ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, MessageKind::kFrame);
    ASSERT_LT(message->tag, kBurst);
    const auto frame = sw::serve::decode_frame(message->payload);
    const auto& m = matrices[message->tag];
    if (message->tag == 0) {
      EXPECT_EQ(frame.matrix, response->matrix);
    }
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        std::size_t a = 0;
        for (std::size_t i = 0; i < 3; ++i) {
          a |= static_cast<std::size_t>(m[w * cols + ch * 3 + i] != 0) << i;
        }
        EXPECT_EQ(frame.matrix[w * n + ch], table.value(a) ? 1 : 0)
            << "tag=" << message->tag << " w=" << w << " ch=" << ch;
      }
    }
  }
}

TEST(EvalServer, PinnedWorkerRejectsProgramFramesWithTypedError) {
  // A worker pinned to wire v2 (a pre-program build) must answer a v3
  // program frame with kUnsupportedVersion — the typed reply coordinators
  // key version negotiation on — and keep serving v2 on the connection.
  EvalServerOptions server_options;
  server_options.max_wire_version = sw::serve::kWireVersion;
  ServerFixture fx(loopback(), {}, server_options);

  const auto program = synthesize_program(0xE8, 2);
  const auto matrix = random_matrix(2, program.primary_slot_count(), 81);
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn,
               make_frame_message(sw::serve::make_program_request_frame(
                   program, 0, 2, matrix)),
               2000ms);
  try {
    (void)recv_frame(conn, 10000ms);
    FAIL() << "expected a typed version error";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
    EXPECT_NE(std::string(e.what()).find("unsupported wire version"),
              std::string::npos);
  }
  // Fall back to v2 on the same connection: still served.
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  send_message(conn,
               make_frame_message(sw::serve::make_request_frame(
                   layout, 0, 2, random_matrix(2, 6, 83))),
               2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

TEST(EvalServer, ShutdownMessageSetsFlagWithoutStopping) {
  ServerFixture fx(loopback());
  EXPECT_FALSE(fx.server.shutdown_requested());
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  Message shutdown;
  shutdown.kind = MessageKind::kShutdown;
  send_message(conn, shutdown, 1000ms);
  EXPECT_TRUE(fx.server.wait_shutdown(5000ms));
  // Still serving after the flag: shutdown is a request, not a kill.
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 9);
  send_message(conn,
               make_frame_message(
                   sw::serve::make_request_frame(layout, 0, 1, matrix)),
               2000ms);
  EXPECT_TRUE(recv_frame(conn, 10000ms).has_value());
}

TEST(EvalServer, PipelinedTaggedRequestsCompleteOutOfOrder) {
  // One connection, six tagged shard requests sent back-to-back in a
  // single write, replies matched by tag: the event core must answer all
  // of them without a request/response lockstep, in whatever order the
  // evaluations finish. The burst goes twice: the first finds the plan
  // cold (pool), the second warm and small (inline on the event thread).
  ServerFixture fx(loopback());
  const GateSpec spec = majority_spec(3, 2);
  const GateLayout layout = fx.designer.design(spec);
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  constexpr std::size_t kDepth = 6;
  constexpr std::size_t kShardWords = 8;
  constexpr std::size_t kSlots = 2 * 3;
  const std::size_t channels = layout.spec.frequencies.size();
  const auto matrix = random_matrix(kDepth * kShardWords, kSlots, 21);

  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(kDepth * kShardWords, matrix);

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  std::vector<std::uint8_t> burst;
  for (std::size_t tag = 0; tag < kDepth; ++tag) {
    const auto view = sw::serve::make_request_view(
        layout.spec, hash, tag * kShardWords, kShardWords,
        std::span<const std::uint8_t>(matrix).subspan(
            tag * kShardWords * kSlots, kShardWords * kSlots));
    append_frame_message(burst, view, tag);
  }
  for (int round = 0; round < 2; ++round) {
    conn.send_all(burst, 5000ms);
    std::vector<bool> seen(kDepth, false);
    for (std::size_t i = 0; i < kDepth; ++i) {
      auto message = recv_message(conn, 60000ms);
      ASSERT_TRUE(message.has_value());
      ASSERT_EQ(message->kind, MessageKind::kFrame);
      const std::uint64_t tag = message->tag;
      ASSERT_LT(tag, kDepth);
      EXPECT_FALSE(seen[tag]) << "tag " << tag << " answered twice";
      seen[tag] = true;
      const auto frame = sw::serve::decode_frame(message->payload);
      EXPECT_EQ(frame.kind, sw::serve::FrameKind::kResponse);
      EXPECT_EQ(frame.word_offset, tag * kShardWords);
      EXPECT_EQ(frame.num_words, kShardWords);
      const std::vector<std::uint8_t> slice(
          expected.begin() + static_cast<std::ptrdiff_t>(
                                 tag * kShardWords * channels),
          expected.begin() + static_cast<std::ptrdiff_t>(
                                 (tag + 1) * kShardWords * channels));
      EXPECT_EQ(frame.matrix, slice)
          << "wrong bits for tag " << tag << " in round " << round;
    }
    for (std::size_t tag = 0; tag < kDepth; ++tag) {
      EXPECT_TRUE(seen[tag]) << "tag " << tag << " never answered";
    }
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, 2 * kDepth);
  EXPECT_EQ(counters.responses_sent, 2 * kDepth);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, WarmSmallFramesEvaluateOnTheEventThread) {
  // The Designer runs on the event thread (a v2 layout miss), so the
  // thread it last ran on names the event thread. A warm small frame is
  // evaluated there; a cold frame (the plan is built first) and a warm
  // frame whose kernel work passes kMaxInlineWork go to a service worker.
  const Waveguide wg = paper_waveguide();
  const FvmswDispersion model(wg);
  const InlineGateDesigner designer(model);
  std::mutex mutex;
  std::thread::id event_thread;
  std::vector<std::thread::id> evaluated_on;  // per request, in start order
  sw::serve::ServiceOptions options;
  options.on_request_start = [&](std::uint64_t) {
    std::lock_guard<std::mutex> lock(mutex);
    evaluated_on.push_back(std::this_thread::get_id());
  };
  sw::serve::EvaluatorService service(model, wg.material.alpha, options);
  EvalServer server(
      service,
      [&](const GateSpec& spec) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          event_thread = std::this_thread::get_id();
        }
        return designer.design(spec);
      },
      loopback());

  const GateLayout layout = designer.design(majority_spec(3, 4));
  const WaveEngine engine(model, wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  // One 4-channel 3-input word costs 12 contributions.
  constexpr std::size_t kSmall = 24;
  constexpr std::size_t kLarge = 4096;
  ASSERT_LE(kSmall * 12, sw::serve::EvaluatorService::kMaxInlineWork);
  ASSERT_GT(kLarge * 12, sw::serve::EvaluatorService::kMaxInlineWork);

  auto conn = Connection::connect(server.local_endpoint(), 2000ms);
  std::uint64_t tag = 0;
  for (const std::size_t words : {kSmall, kSmall, kLarge, kSmall}) {
    const auto matrix = random_matrix(words, 12, static_cast<unsigned>(++tag));
    send_frame(conn,
               sw::serve::make_request_view(
                   layout.spec, sw::serve::hash_layout(layout), 0, words,
                   matrix),
               tag);
    const auto reply = recv_message(conn, 60000ms);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->kind, MessageKind::kFrame);
    EXPECT_EQ(reply->tag, tag);
    EXPECT_EQ(sw::serve::decode_frame(reply->payload).matrix,
              evaluator.evaluate_bits(words, matrix))
        << "request " << tag;
  }
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(evaluated_on.size(), 4u);
  EXPECT_NE(evaluated_on[0], event_thread) << "cold: built on the pool";
  EXPECT_EQ(evaluated_on[1], event_thread) << "warm and small: inline";
  EXPECT_NE(evaluated_on[2], event_thread) << "warm but large: pooled";
  EXPECT_EQ(evaluated_on[3], event_thread) << "warm and small: inline";
}

TEST(EvalServer, ShedsAWarmSmallFrameWithATaggedOverloadReply) {
  // A frame that would run inline still passes admission first: with a
  // large request holding the words budget on the (single) worker, a warm
  // small frame is shed with a kOverload reply carrying its tag, and the
  // connection keeps serving once the budget frees.
  constexpr std::size_t kSmall = 24;
  constexpr std::size_t kLarge = 4096;  // 2-channel 3-input: pooled
  std::atomic<const sw::serve::EvaluatorService*> service{nullptr};
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<bool> large_started{false};
  sw::serve::ServiceOptions options;
  options.num_threads = 1;
  options.admission.policy = sw::serve::OverloadPolicy::kShed;
  options.admission.max_inflight_words = 64;
  options.on_request_start = [&](std::uint64_t) {
    if (service.load()->stats().inflight_words < kLarge) return;
    large_started.store(true);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, 60s, [&] { return gate_open; });
  };
  ServerFixture fx(loopback(), std::move(options));
  service.store(&fx.service);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto small = random_matrix(kSmall, 6, 51);
  const auto large = random_matrix(kLarge, 6, 53);
  const auto send = [&](Connection& conn, std::uint64_t tag,
                        std::size_t words,
                        const std::vector<std::uint8_t>& matrix) {
    send_frame(conn,
               sw::serve::make_request_view(layout.spec, hash, 0, words, matrix),
               tag);
  };
  const auto expect_frame = [&](Connection& conn, std::uint64_t tag,
                                std::size_t words,
                                const std::vector<std::uint8_t>& matrix) {
    const auto reply = recv_message(conn, 60000ms);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->kind, MessageKind::kFrame);
    EXPECT_EQ(reply->tag, tag);
    EXPECT_EQ(sw::serve::decode_frame(reply->payload).matrix,
              evaluator.evaluate_bits(words, matrix));
  };

  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send(conn, 1, kSmall, small);  // warms the plan
  expect_frame(conn, 1, kSmall, small);
  send(conn, 2, kLarge, large);  // admitted alone, then held on the worker
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!large_started.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(large_started.load());

  send(conn, 3, kSmall, small);
  const auto shed = recv_message(conn, 60000ms);
  ASSERT_TRUE(shed.has_value());
  ASSERT_EQ(shed->kind, MessageKind::kError);
  EXPECT_EQ(shed->tag, 3u);
  EXPECT_EQ(decode_error_message(*shed).code, ErrorCode::kOverload);

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  expect_frame(conn, 2, kLarge, large);
  send(conn, 4, kSmall, small);  // same connection, budget free: inline
  expect_frame(conn, 4, kSmall, small);
  EXPECT_EQ(fx.server.counters().overloads, 1u);
  EXPECT_EQ(fx.service.stats().shed, 1u);
}

TEST(EvalServer, InlineEvaluationsYieldToOtherConnectionsEachTurn) {
  // Every inline evaluation holds the event thread. Connection A
  // pipelines a burst of warm small frames in one write; B sends one
  // frame while A's first evaluation is held. A gets at most
  // max_inflight_per_connection inline evaluations per turn, so B's frame
  // must start within two turns' worth — not after A's whole burst. A and
  // B send different word counts, which the hook reads off the service's
  // in-flight words.
  constexpr std::size_t kBound = 4;
  constexpr std::size_t kBurst = 32;
  constexpr std::size_t kWordsA = 24;
  constexpr std::size_t kWordsB = 40;
  std::atomic<const sw::serve::EvaluatorService*> service{nullptr};
  std::mutex mutex;
  std::condition_variable cv;
  bool armed = false;
  bool b_sent = false;
  std::vector<std::size_t> order;  // in-flight words at each start, armed
  sw::serve::ServiceOptions options;
  options.on_request_start = [&](std::uint64_t) {
    const std::size_t words = service.load()->stats().inflight_words;
    std::unique_lock<std::mutex> lock(mutex);
    if (!armed) return;
    order.push_back(words);
    if (order.size() == 1) cv.wait_for(lock, 60s, [&] { return b_sent; });
  };
  EvalServerOptions server_options;
  server_options.max_inflight_per_connection = kBound;
  ServerFixture fx(loopback(), std::move(options), server_options);
  service.store(&fx.service);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto matrix_a = random_matrix(kWordsA, 6, 61);
  const auto matrix_b = random_matrix(kWordsB, 6, 63);
  const auto expected_a = evaluator.evaluate_bits(kWordsA, matrix_a);
  const auto expected_b = evaluator.evaluate_bits(kWordsB, matrix_b);
  const auto frame = [&](std::size_t words,
                         const std::vector<std::uint8_t>& matrix) {
    return sw::serve::make_request_view(layout.spec, hash, 0, words, matrix);
  };

  // Warm the plan (and both connections) before arming the hook.
  auto conn_a = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto conn_b = Connection::connect(fx.server.local_endpoint(), 2000ms);
  for (Connection* conn : {&conn_a, &conn_b}) {
    send_frame(*conn, frame(kWordsA, matrix_a), 0);
    ASSERT_TRUE(recv_message(*conn, 60000ms).has_value());
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    armed = true;
  }
  std::vector<std::uint8_t> burst;
  for (std::size_t tag = 1; tag <= kBurst; ++tag) {
    append_frame_message(burst, frame(kWordsA, matrix_a), tag);
  }
  conn_a.send_all(burst, 5000ms);
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!order.empty()) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "A's burst never started";
    std::this_thread::sleep_for(1ms);
  }
  send_frame(conn_b, frame(kWordsB, matrix_b), 100);
  {
    std::lock_guard<std::mutex> lock(mutex);
    b_sent = true;
  }
  cv.notify_all();

  const auto reply_b = recv_message(conn_b, 60000ms);
  ASSERT_TRUE(reply_b.has_value());
  ASSERT_EQ(reply_b->kind, MessageKind::kFrame);
  EXPECT_EQ(reply_b->tag, 100u);
  EXPECT_EQ(sw::serve::decode_frame(reply_b->payload).matrix, expected_b);
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto reply = recv_message(conn_a, 60000ms);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->kind, MessageKind::kFrame);
    EXPECT_EQ(sw::serve::decode_frame(reply->payload).matrix, expected_a);
  }

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(order.size(), kBurst + 1);
  const auto b_at = std::find(order.begin(), order.end(), kWordsB);
  ASSERT_NE(b_at, order.end());
  EXPECT_LE(static_cast<std::size_t>(b_at - order.begin()) + 1, 2 * kBound)
      << "B's frame waited behind A's burst";
  EXPECT_EQ(std::count(order.begin(), order.end(), kWordsA),
            static_cast<std::ptrdiff_t>(kBurst));
  // Yielding is not back-pressure.
  EXPECT_EQ(fx.server.counters().backpressure_pauses, 0u);
}

TEST(EvalServer, ServesTrickledAndChunkStraddlingFrames) {
  // The read path from both ends: a frame that arrives a few bytes per
  // recv, then pipelined frames whose boundaries fall inside the server's
  // 256 KiB read chunks and across its 1 MiB buffer compaction.
  ServerFixture fx(loopback());
  const GateLayout layout = fx.designer.design(majority_spec(3, 8));
  const std::uint64_t hash = sw::serve::hash_layout(layout);
  const std::size_t slots = 8 * 3;
  const WaveEngine engine(fx.model, fx.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  auto conn = Connection::connect(fx.server.local_endpoint(), 2000ms);

  // 1. One request written in 1-7-byte pieces, each its own segment.
  {
    const std::size_t words = 67;
    const auto matrix = random_matrix(words, slots, 91);
    std::vector<std::uint8_t> bytes;
    append_frame_message(
        bytes,
        sw::serve::make_request_view(layout.spec, hash, 0, words, matrix), 1);
    std::mt19937 rng(5);
    std::uniform_int_distribution<std::size_t> piece(1, 7);
    for (std::size_t sent = 0; sent < bytes.size();) {
      const std::size_t n = std::min(piece(rng), bytes.size() - sent);
      conn.send_all({bytes.data() + sent, n}, 2000ms);
      sent += n;
      std::this_thread::sleep_for(200us);
    }
    const auto message = recv_message(conn, 60000ms);
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->kind, MessageKind::kFrame);
    EXPECT_EQ(message->tag, 1u);
    const auto frame = sw::serve::decode_frame(message->payload);
    EXPECT_EQ(frame.num_words, words);
    EXPECT_EQ(frame.matrix, evaluator.evaluate_bits(words, matrix));
  }

  // 2. One write of five ~300 KB frames (1.5 MB): no frame boundary lines
  // up with a 256 KiB chunk, and the parsed prefix can pass 1 MiB while
  // the last frame is still partial, which compacts the buffer.
  {
    const std::size_t words = 100003;
    const std::size_t frames = 5;
    const auto matrix = random_matrix(words, slots, 93);
    const auto expected = evaluator.evaluate_bits(words, matrix);
    std::vector<std::uint8_t> burst;
    for (std::size_t i = 0; i < frames; ++i) {
      append_frame_message(
          burst,
          sw::serve::make_request_view(layout.spec, hash, i * words, words,
                                       matrix),
          100 + i);
    }
    ASSERT_GT(burst.size(), std::size_t{1} << 20);
    // The server keeps reading while it evaluates (five frames stay under
    // its in-flight and write-queue caps), so the write completes before
    // any reply is read.
    conn.send_all(burst, 60000ms);
    std::vector<bool> seen(frames, false);
    for (std::size_t i = 0; i < frames; ++i) {
      const auto message = recv_message(conn, 60000ms);
      ASSERT_TRUE(message.has_value());
      ASSERT_EQ(message->kind, MessageKind::kFrame);
      ASSERT_GE(message->tag, 100u);
      ASSERT_LT(message->tag, 100u + frames);
      const std::size_t k = static_cast<std::size_t>(message->tag - 100);
      EXPECT_FALSE(seen[k]) << "tag " << message->tag << " answered twice";
      seen[k] = true;
      const auto frame = sw::serve::decode_frame(message->payload);
      EXPECT_EQ(frame.word_offset, k * words);
      EXPECT_EQ(frame.num_words, words);
      EXPECT_EQ(frame.matrix, expected)
          << "wrong bits for tag " << message->tag;
    }
  }
  const auto counters = fx.server.counters();
  EXPECT_EQ(counters.frames_received, 6u);
  EXPECT_EQ(counters.responses_sent, 6u);
  EXPECT_EQ(counters.errors_sent, 0u);
}

TEST(EvalServer, RefusesConnectionsPastCapButKeepsAccepting) {
  EvalServerOptions server_options;
  server_options.max_connections = 2;
  ServerFixture fx(loopback(), {}, server_options);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 23);
  const auto request = sw::serve::make_request_frame(layout, 0, 1, matrix);

  // Prove each admission with a served request before connecting the
  // next peer: connect() only completes the TCP handshake (the kernel
  // backlog does that), so without the round trip the refusal could land
  // on any of the three.
  auto conn_a = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_a, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(conn_a, 60000ms).has_value());
  auto conn_b = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_b, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(conn_b, 60000ms).has_value());

  // The third connection must receive a *typed* refusal, then EOF — not
  // a silent drop, and not a hung accept loop.
  auto conn_c = Connection::connect(fx.server.local_endpoint(), 2000ms);
  auto refusal = recv_message(conn_c, 60000ms);
  ASSERT_TRUE(refusal.has_value());
  ASSERT_EQ(refusal->kind, MessageKind::kError);
  EXPECT_EQ(decode_error_message(*refusal).code, ErrorCode::kOverload);
  EXPECT_FALSE(recv_message(conn_c, 60000ms).has_value())
      << "refused connection should be closed after the error reply";

  {
    // connections_accepted counts every accept(), refused ones included;
    // the admitted population is the difference.
    const auto counters = fx.server.counters();
    EXPECT_GE(counters.connections_refused, 1u);
    EXPECT_EQ(counters.connections_accepted - counters.connections_refused,
              2u);
    EXPECT_LE(counters.active_connections, 2u);
  }

  // Freeing a slot re-opens admission: close B, wait for the server to
  // reap it, and a fresh connection must be served again.
  conn_b.close();
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (fx.server.counters().active_connections >= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_LT(fx.server.counters().active_connections, 2u)
      << "server never noticed the closed connection";
  auto conn_d = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(conn_d, make_frame_message(request), 2000ms);
  EXPECT_TRUE(recv_frame(conn_d, 60000ms).has_value())
      << "accept loop must stay live after refusals";
}

TEST(EvalServer, StopIsNotStalledByRefusedPeersThatNeverRead) {
  // Regression: the old thread-per-connection server sent the refusal
  // reply with a blocking write while holding the server mutex, so a
  // refused peer that never read could wedge accept *and* stop(). The
  // event core writes refusals non-blockingly; stop() must stay prompt
  // however many unread refusals are outstanding.
  EvalServerOptions server_options;
  server_options.max_connections = 1;
  ServerFixture fx(loopback(), {}, server_options);
  const GateLayout layout = fx.designer.design(majority_spec(3, 2));
  const auto matrix = random_matrix(1, 6, 29);
  const auto request = sw::serve::make_request_frame(layout, 0, 1, matrix);

  auto admitted = Connection::connect(fx.server.local_endpoint(), 2000ms);
  send_message(admitted, make_frame_message(request), 2000ms);
  ASSERT_TRUE(recv_frame(admitted, 60000ms).has_value());

  std::vector<Connection> silent;
  for (int i = 0; i < 3; ++i) {
    silent.push_back(Connection::connect(fx.server.local_endpoint(), 2000ms));
  }
  const auto refused_deadline = std::chrono::steady_clock::now() + 60s;
  while (fx.server.counters().connections_refused < 3 &&
         std::chrono::steady_clock::now() < refused_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(fx.server.counters().connections_refused, 3u);

  const auto t0 = std::chrono::steady_clock::now();
  fx.server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s)
      << "stop() stalled behind unread refusal replies";
}

// ---------------------------------------------------------------- registry --

TEST(NetRegistry, AdvertCodecRoundTripsAndRejectsMalformed) {
  std::vector<WorkerAdvert> adverts(2);
  adverts[0] = {"tcp:127.0.0.1:4101", "avx2", "f64", 2.5e7};
  adverts[1] = {"unix:/tmp/worker.sock", "scalar", "f32", 0.0};
  const auto bytes = encode_adverts(adverts);
  EXPECT_EQ(decode_adverts(bytes), adverts);

  // Truncation anywhere must throw, never read garbage.
  for (const std::size_t keep : {std::size_t{0}, bytes.size() / 2,
                                 bytes.size() - 1}) {
    std::span<const std::uint8_t> cut(bytes.data(), keep);
    EXPECT_THROW((void)decode_adverts(cut), sw::util::Error) << keep;
  }
  // Trailing bytes after the advertised count are corruption too.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)decode_adverts(padded), sw::util::Error);
  // An advert with no endpoint is useless to a coordinator: rejected.
  const auto empty_endpoint =
      encode_adverts({WorkerAdvert{"", "scalar", "f64", 0.0}});
  EXPECT_THROW((void)decode_adverts(empty_endpoint), sw::util::Error);
}

TEST(NetRegistry, RegisterUpsertsPerEndpointAndExpiresByTtl) {
  RegistryOptions registry_options;
  registry_options.ttl = 300ms;
  RegistryServer registry(loopback(), registry_options);

  WorkerAdvert a{"tcp:127.0.0.1:4201", "scalar", "f64", 1e6};
  WorkerAdvert b{"tcp:127.0.0.1:4202", "avx2", "f64", 3e6};
  register_worker(registry.local_endpoint(), a, 2000ms);
  // Regression: the upsert once keyed the entry map on a moved-out
  // endpoint string, so every worker landed on the same "" key and only
  // the last register survived. Both adverts must coexist.
  register_worker(registry.local_endpoint(), b, 2000ms);
  auto listed = fetch_registry(registry.local_endpoint(), 2000ms);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], a);  // snapshot order is keyed by endpoint
  EXPECT_EQ(listed[1], b);

  // A heartbeat for a known endpoint updates in place, no duplicate.
  a.words_per_second = 2e6;
  register_worker(registry.local_endpoint(), a, 2000ms);
  listed = fetch_registry(registry.local_endpoint(), 2000ms);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].words_per_second, 2e6);

  // Stop heartbeating and the adverts age out of the snapshot.
  std::this_thread::sleep_for(400ms);
  EXPECT_TRUE(fetch_registry(registry.local_endpoint(), 2000ms).empty());
}

TEST(NetRegistry, EchoesTagsAndRejectsUnsupportedKinds) {
  RegistryServer registry(loopback());
  auto conn = Connection::connect(registry.local_endpoint(), 2000ms);

  Message reg;
  reg.kind = MessageKind::kRegister;
  reg.tag = 77;
  reg.payload =
      encode_adverts({WorkerAdvert{"tcp:127.0.0.1:4301", "scalar", "f64", 0}});
  send_message(conn, reg, 2000ms);
  auto ack = recv_message(conn, 5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, MessageKind::kRegister);
  EXPECT_EQ(ack->tag, 77u);

  Message alien;
  alien.kind = MessageKind::kTraceRequest;
  alien.tag = 78;
  send_message(conn, alien, 2000ms);
  auto refused = recv_message(conn, 5000ms);
  ASSERT_TRUE(refused.has_value());
  ASSERT_EQ(refused->kind, MessageKind::kError);
  EXPECT_EQ(decode_error_message(*refused).code, ErrorCode::kBadRequest);
  EXPECT_EQ(refused->tag, 78u);

  // The connection survives the rejected message.
  reg.tag = 79;
  send_message(conn, reg, 2000ms);
  ack = recv_message(conn, 5000ms);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tag, 79u);
}

TEST(NetRegistry, MetricsCountUpsertsLiveAdvertsAndExpirations) {
  RegistryOptions options;
  options.ttl = 200ms;
  RegistryServer registry(loopback(), options);
  const WorkerAdvert a{"tcp:127.0.0.1:4401", "scalar", "f64", 1e6};
  const WorkerAdvert b{"tcp:127.0.0.1:4402", "avx2", "f32", 2e6};
  register_worker(registry.local_endpoint(), a, 2000ms);
  register_worker(registry.local_endpoint(), b, 2000ms);
  register_worker(registry.local_endpoint(), a, 2000ms);  // heartbeat

  const std::string text = fetch_text(registry.local_endpoint(),
                                      MessageKind::kMetricsRequest, 2000ms);
  EXPECT_EQ(metric_value(text, "sw_registry_upserts"), 3.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_live_adverts"), 2.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_expirations"), 0.0) << text;
  EXPECT_EQ(metric_value(text, "sw_registry_metrics_requests"), 1.0);
  EXPECT_GE(metric_value(text, "sw_registry_oldest_advert_age_seconds"),
            0.0);

  // Both adverts age past the TTL: the counters view prunes like
  // snapshot() does, so expirations land without any client traffic.
  std::this_thread::sleep_for(300ms);
  const auto counters = registry.counters();
  EXPECT_EQ(counters.live_adverts, 0u);
  EXPECT_EQ(counters.expirations, 2u);
  EXPECT_EQ(counters.upserts, 3u);
  EXPECT_EQ(counters.oldest_advert_age_s, 0.0);
}

// ------------------------------------------------- distributed sweeping --

/// The paper's exhaustive byte-operand workload: every (a, b) pair through
/// the 8-channel majority-as-AND fabric (third input pinned 0).
struct ExhaustiveSweep {
  static constexpr std::size_t kChannels = 8;
  static constexpr std::size_t kSlots = kChannels * 3;
  static constexpr std::size_t kWords = std::size_t{1} << 16;

  static std::vector<std::uint8_t> matrix() {
    std::vector<std::uint8_t> m(kWords * kSlots, 0);
    for (std::size_t v = 0; v < kWords; ++v) {
      const std::size_t a = v & 0xFFu;
      const std::size_t b = v >> kChannels;
      for (std::size_t ch = 0; ch < kChannels; ++ch) {
        m[v * kSlots + ch * 3 + 0] =
            static_cast<std::uint8_t>((a >> ch) & 1u);
        m[v * kSlots + ch * 3 + 1] =
            static_cast<std::uint8_t>((b >> ch) & 1u);
      }
    }
    return m;
  }
};

TEST(SweepCoordinator, DistributedExhaustiveSweepMatchesSingleProcess) {
  const GateSpec spec = majority_spec(3, ExhaustiveSweep::kChannels);
  ServerFixture worker_a(loopback());
  ServerFixture worker_b(loopback());
  const GateLayout layout = worker_a.designer.design(spec);
  const auto matrix = ExhaustiveSweep::matrix();

  const WaveEngine engine(worker_a.model, worker_a.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected =
      evaluator.evaluate_bits(ExhaustiveSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 4096;
  SweepCoordinator coordinator(
      {worker_a.server.local_endpoint(), worker_b.server.local_endpoint()},
      options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, ExhaustiveSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_EQ(report.shards, 16u);
  EXPECT_EQ(report.dead_workers, 0u);
  EXPECT_EQ(report.shards_per_worker.size(), 2u);
  EXPECT_EQ(report.shards_per_worker[0] + report.shards_per_worker[1], 16u);
  // No per-worker minimum: shard acquisition is pull-based, and with the
  // SIMD kernels a 4096-word shard evaluates in tens of microseconds —
  // on a single-core host one worker can legitimately drain the whole
  // queue while the other is still building its plan. That the work
  // flows to whichever worker makes progress is asserted
  // deterministically by the straggler test below (all shards end up on
  // the fast worker when the other is delayed).
}

TEST(SweepCoordinator, RecorderCapturesPerShardSpans) {
  const GateSpec spec = majority_spec(3, 4);
  ServerFixture worker(loopback());
  const GateLayout layout = worker.designer.design(spec);
  const std::size_t words = 4096;
  const auto matrix = random_matrix(words, 4 * 3, 21);

  sw::obs::TraceRecorder recorder(64);
  SweepOptions options;
  options.shard_words = 512;
  options.recorder = &recorder;
  SweepCoordinator coordinator({worker.server.local_endpoint()}, options);
  SweepReport report;
  (void)coordinator.run(layout, matrix, words, &report);
  ASSERT_EQ(report.shards, 8u);

  // One trace per shard assignment: id = shard index, track = worker
  // index, with the full assign -> send -> wait -> retire chain closed on
  // the completion path.
  const auto traces = recorder.snapshot();
  ASSERT_GE(traces.size(), 8u);
  std::vector<bool> retired(8, false);
  for (const auto& t : traces) {
    ASSERT_LT(t.id, 8u);
    EXPECT_EQ(t.track, 0u);
    if (t.phase_ns(sw::obs::Phase::kShardRetire) == 0) continue;
    EXPECT_GT(t.phase_ns(sw::obs::Phase::kShardSend), 0u);
    EXPECT_GT(t.phase_ns(sw::obs::Phase::kShardWait), 0u);
    retired[static_cast<std::size_t>(t.id)] = true;
  }
  for (std::size_t i = 0; i < retired.size(); ++i) {
    EXPECT_TRUE(retired[i]) << "shard " << i << " has no retire span";
  }
  // Healthy single-worker sweep: nothing was duplicated, so no reshard
  // events (the straggler path is exercised by the smoke script's leg 2).
  for (const auto& t : traces) {
    EXPECT_EQ(t.phase_ns(sw::obs::Phase::kReshard), 0u);
  }
}

/// A hand-rolled worker for fault injection: serves real evaluations but
/// can delay every response, corrupt response bits, or never answer.
class FaultyWorker {
 public:
  enum class Mode { kSlow, kStalled, kCorrupt };

  FaultyWorker(Mode mode, std::chrono::milliseconds delay,
               const GateLayout& layout, const FvmswDispersion& model,
               double alpha)
      : mode_(mode),
        delay_(delay),
        listener_(Endpoint::parse("tcp:127.0.0.1:0")),
        engine_(model, alpha),
        gate_(layout, engine_),
        evaluator_(gate_) {
    thread_ = std::thread([this] { serve(); });
  }

  ~FaultyWorker() {
    // Closing the listener wakes a serve() still waiting in accept(). Once
    // accept() has returned, serve() never touches the listener again and
    // ends on the coordinator's EOF, so it is joined first: closing under
    // it would race accept()'s read of the descriptor.
    if (!accept_returned_.load()) listener_.close();
    if (thread_.joinable()) thread_.join();
  }

  const Endpoint& endpoint() const { return listener_.local_endpoint(); }

  /// True once the worker holds its first request — tests gate the healthy
  /// worker on this so the faulty one deterministically owns a shard (on a
  /// one-core host the healthy worker would otherwise drain every shard
  /// before this thread is even scheduled).
  bool got_request() const { return got_request_.load(); }

 private:
  void serve() {
    auto conn = listener_.accept(30000ms);
    accept_returned_.store(true);
    if (!conn) return;
    try {
      // A conforming protocol-v2 peer: requests are answered in arrival
      // order, each reply echoing its request's tag.
      for (;;) {
        const auto request = recv_message(*conn, 30000ms);
        if (!request) return;  // coordinator closed: sweep is over
        const auto frame = sw::serve::decode_frame(request->payload);
        got_request_.store(true);
        if (mode_ == Mode::kStalled) {
          // Swallow every request; the shards must be re-sharded. Drain
          // until the coordinator abandons us (EOF) rather than replying.
          std::uint8_t sink[4096];
          while (conn->wait_readable(60000ms) && conn->recv_some(sink) != 0) {
          }
          return;
        }
        auto bits = evaluator_.evaluate_bits(
            static_cast<std::size_t>(frame.num_words), frame.matrix);
        if (mode_ == Mode::kCorrupt) bits[0] ^= 1;
        std::this_thread::sleep_for(delay_);
        const auto response = sw::serve::make_response_frame(
            frame, gate_.layout().spec.frequencies.size(), std::move(bits));
        send_message(*conn, make_frame_message(response, request->tag),
                     30000ms);
      }
    } catch (const sw::util::Error&) {
      // Coordinator tore the connection down mid-wait; fine.
    }
  }

  Mode mode_;
  std::chrono::milliseconds delay_;
  std::atomic<bool> got_request_{false};
  std::atomic<bool> accept_returned_{false};
  Listener listener_;
  WaveEngine engine_;
  DataParallelGate gate_;
  BatchEvaluator evaluator_;
  std::thread thread_;
};

/// Service options whose requests block until `faulty` has received one:
/// guarantees the faulty worker owns a shard before the healthy worker
/// starts retiring them, whatever the scheduler does.
sw::serve::ServiceOptions gated_on(
    const std::atomic<const FaultyWorker*>& faulty) {
  sw::serve::ServiceOptions options;
  options.on_request_start = [&faulty](std::uint64_t) {
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    const FaultyWorker* worker = nullptr;
    while (((worker = faulty.load()) == nullptr || !worker->got_request()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  return options;
}

struct SmallSweep {
  static constexpr std::size_t kChannels = 4;
  static constexpr std::size_t kSlots = kChannels * 3;
  static constexpr std::size_t kWords = 4096;
};

TEST(SweepCoordinator, KeepsTwoShardsInFlightPerConnection) {
  // One worker connection, two service threads: the coordinator must put a
  // second shard into the service while the first is still there, and
  // never a third. The first two requests are held together, so the
  // window is full and unanswered: the first waits for a second to start
  // beside it (bounded, so a stop-and-wait coordinator fails rather than
  // hangs), then both give a deeper window 200 ms to show a third. Every
  // request start and every tick of the hold samples how many shards the
  // service holds (admitted, not yet settled).
  constexpr std::size_t kShardWords = 512;
  std::atomic<const sw::serve::EvaluatorService*> service{nullptr};
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> peak{0};
  const auto in_service = [&] {
    const std::size_t n =
        service.load()->stats().inflight_words / kShardWords;
    std::size_t seen = peak.load();
    while (n > seen && !peak.compare_exchange_weak(seen, n)) {
    }
    return n;
  };
  sw::serve::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.on_request_start = [&](std::uint64_t) {
    (void)in_service();
    if (started.fetch_add(1) >= 2) return;
    const auto second_deadline = std::chrono::steady_clock::now() + 10s;
    while (started.load() < 2 &&
           std::chrono::steady_clock::now() < second_deadline) {
      std::this_thread::sleep_for(1ms);
    }
    const auto third_deadline = std::chrono::steady_clock::now() + 200ms;
    while (in_service() < 3 &&
           std::chrono::steady_clock::now() < third_deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  ServerFixture worker(loopback(), std::move(service_options));
  service.store(&worker.service);

  const GateLayout layout =
      worker.designer.design(majority_spec(3, SmallSweep::kChannels));
  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 37);
  const WaveEngine engine(worker.model, worker.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = kShardWords;  // 8 shards
  SweepCoordinator coordinator({worker.server.local_endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_EQ(report.shards, 8u);
  EXPECT_EQ(report.dead_workers, 0u);
  EXPECT_EQ(peak.load(), 2u)
      << "shards one connection had in the service at once";
}

TEST(SweepCoordinator, RequeuesAShedShardAndCompletes) {
  // Admission sheds past one shard's words, and the first request is held
  // until something has been shed: the window's second shard comes back
  // as a tagged kOverload reply, which must re-queue just that shard on a
  // connection that stays up.
  constexpr std::size_t kShardWords = 512;
  std::atomic<const sw::serve::EvaluatorService*> service{nullptr};
  std::atomic<bool> first{true};
  sw::serve::ServiceOptions service_options;
  service_options.admission.policy = sw::serve::OverloadPolicy::kShed;
  service_options.admission.max_inflight_words = kShardWords;
  service_options.on_request_start = [&](std::uint64_t) {
    if (!first.exchange(false)) return;
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (service.load()->stats().shed < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  ServerFixture worker(loopback(), std::move(service_options));
  service.store(&worker.service);

  const GateLayout layout =
      worker.designer.design(majority_spec(3, SmallSweep::kChannels));
  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 39);
  const WaveEngine engine(worker.model, worker.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = kShardWords;
  options.poll_tick = 10ms;  // the back-off after each shed shard
  // Only the re-queue may bring a shed shard back, not a straggler copy.
  options.straggler_deadline = 60s;
  SweepCoordinator coordinator({worker.server.local_endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_GE(report.overload_retries, 1u);
  EXPECT_EQ(report.resharded, 0u);
  EXPECT_EQ(report.dead_workers, 0u);
  EXPECT_GE(worker.service.stats().shed, report.overload_retries);
}

TEST(SweepCoordinator, ReshardsStragglersAndDedupsLateDuplicates) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  // A slow-but-correct worker: every shard it holds goes past the
  // straggler deadline, gets duplicated to the fast worker, and then
  // answers late — exercising re-shard AND bit-exact deduplication.
  FaultyWorker slow(FaultyWorker::Mode::kSlow, 700ms, layout, fast.model,
                    fast.wg.material.alpha);
  faulty.store(&slow);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 11);
  const WaveEngine engine(fast.model, fast.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;  // 8 shards
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  options.duplicate_grace = 10000ms;  // hold for the late replies
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), slow.endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_GE(report.resharded, 1u);
  EXPECT_GE(report.duplicate_results, 1u);
  EXPECT_EQ(report.dead_workers, 0u);
}

TEST(SweepCoordinator, CompletesWithAWorkerThatNeverAnswers) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  FaultyWorker stalled(FaultyWorker::Mode::kStalled, 0ms, layout,
                       fast.model, fast.wg.material.alpha);
  faulty.store(&stalled);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 13);
  const WaveEngine engine(fast.model, fast.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), stalled.endpoint()}, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);

  EXPECT_EQ(merged, expected);
  EXPECT_GE(report.resharded, 1u);
  EXPECT_EQ(report.shards_per_worker[0], report.shards)
      << "the live worker should have retired every shard";
}

TEST(SweepCoordinator, StalledWorkerGetsAShardInEverySweep) {
  // No gated_on hook: nothing holds the live worker back. The sweep is two
  // small shards, one window's worth, so the coordinator thread that opens
  // the start barrier (the last to connect, usually the last listed) could
  // claim both before the other thread wakes. The barrier therefore sets a
  // first shard aside for every connected worker: in every sweep, with the
  // stalled worker listed first or second, it must be sent a shard, and
  // that shard re-sharded to the live worker.
  constexpr std::size_t kWords = 32;
  constexpr std::size_t kShardWords = 16;
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  ServerFixture live(loopback());
  const GateLayout layout = live.designer.design(spec);
  const auto matrix = random_matrix(kWords, SmallSweep::kSlots, 41);
  const WaveEngine engine(live.model, live.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(kWords, matrix);

  constexpr int kSweeps = 20;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    // A stalled worker serves one connection, so each sweep gets its own.
    FaultyWorker stalled(FaultyWorker::Mode::kStalled, 0ms, layout,
                         live.model, live.wg.material.alpha);
    sw::obs::TraceRecorder recorder(64);
    SweepOptions options;
    options.shard_words = kShardWords;
    // Long enough that a coordinator thread woken late by a loaded host
    // still sends its reserved shard before the live worker may copy it.
    options.straggler_deadline = 100ms;
    options.poll_tick = 5ms;
    options.recorder = &recorder;
    const std::size_t stalled_index = sweep % 2;
    std::vector<Endpoint> workers{live.server.local_endpoint()};
    workers.insert(workers.begin() + static_cast<std::ptrdiff_t>(stalled_index),
                   stalled.endpoint());
    SweepCoordinator coordinator(workers, options);
    SweepReport report;
    const auto merged = coordinator.run(layout, matrix, kWords, &report);

    EXPECT_EQ(merged, expected) << "sweep " << sweep;
    const auto traces = recorder.snapshot();
    EXPECT_TRUE(std::any_of(traces.begin(), traces.end(),
                            [&](const sw::obs::TraceContext& t) {
                              return t.track == stalled_index &&
                                     t.phase_ns(
                                         sw::obs::Phase::kShardSend) > 0;
                            }))
        << "sweep " << sweep << ": the stalled worker was sent no shard";
    EXPECT_GE(report.resharded, 1u) << "sweep " << sweep;
    EXPECT_EQ(report.shards_per_worker[1 - stalled_index], report.shards)
        << "sweep " << sweep;
  }
}

TEST(SweepCoordinator, DivergentDuplicateAborts) {
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  std::atomic<const FaultyWorker*> faulty{nullptr};
  ServerFixture fast(loopback(), gated_on(faulty));
  const GateLayout layout = fast.designer.design(spec);
  FaultyWorker corrupt(FaultyWorker::Mode::kCorrupt, 700ms, layout,
                       fast.model, fast.wg.material.alpha);
  faulty.store(&corrupt);

  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 17);
  SweepOptions options;
  options.shard_words = 512;
  options.straggler_deadline = 150ms;
  options.poll_tick = 10ms;
  options.duplicate_grace = 10000ms;
  SweepCoordinator coordinator(
      {fast.server.local_endpoint(), corrupt.endpoint()}, options);
  try {
    (void)coordinator.run(layout, matrix, SmallSweep::kWords, nullptr);
    FAIL() << "divergent duplicate results must abort the sweep";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("diverge"), std::string::npos)
        << e.what();
  }
}

TEST(SweepCoordinator, DiscoversHeartbeatingWorkersAndSweepsBitExact) {
  // End-to-end discovery: two EvalServers heartbeat their adverts into a
  // registry, the coordinator takes its worker list from discover() alone
  // (no static endpoints anywhere), and the distributed sweep still
  // matches the in-process evaluator bit for bit.
  RegistryServer registry(loopback());
  EvalServerOptions server_options;
  server_options.registry = registry.local_endpoint();
  server_options.advertised_words_per_second = 1e6;
  ServerFixture worker_a(loopback(), {}, server_options);
  ServerFixture worker_b(loopback(), {}, server_options);

  const auto discovered = SweepCoordinator::discover(
      registry.local_endpoint(), 2, 30000ms);
  ASSERT_EQ(discovered.size(), 2u);
  std::vector<std::string> found;
  for (const auto& ep : discovered) found.push_back(ep.to_string());
  std::vector<std::string> served{
      worker_a.server.local_endpoint().to_string(),
      worker_b.server.local_endpoint().to_string()};
  std::sort(found.begin(), found.end());
  std::sort(served.begin(), served.end());
  EXPECT_EQ(found, served);

  // The adverts must carry real capability facts, not placeholders.
  for (const auto& advert : fetch_registry(registry.local_endpoint(), 2000ms)) {
    EXPECT_FALSE(advert.kernel.empty());
    EXPECT_FALSE(advert.precision.empty());
    EXPECT_EQ(advert.words_per_second, 1e6);
  }

  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  const GateLayout layout = worker_a.designer.design(spec);
  const auto matrix =
      random_matrix(SmallSweep::kWords, SmallSweep::kSlots, 31);
  const WaveEngine engine(worker_a.model, worker_a.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(SmallSweep::kWords, matrix);

  SweepOptions options;
  options.shard_words = 512;
  SweepCoordinator coordinator(discovered, options);
  SweepReport report;
  const auto merged =
      coordinator.run(layout, matrix, SmallSweep::kWords, &report);
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(report.dead_workers, 0u);
}

TEST(SweepCoordinator, DiscoverTimesOutOnAnEmptyRegistry) {
  RegistryServer registry(loopback());
  EXPECT_THROW((void)SweepCoordinator::discover(registry.local_endpoint(),
                                                1, 300ms),
               TimeoutError);
}

TEST(SweepCoordinator, AbortsWhenEveryWorkerIsUnreachable) {
  const GateSpec spec = majority_spec(3, 2);
  const Waveguide wg = paper_waveguide();
  const FvmswDispersion model(wg);
  const InlineGateDesigner designer(model);
  const GateLayout layout = designer.design(spec);
  const auto matrix = random_matrix(16, 6, 19);

  std::uint16_t dead_port;
  {
    Listener listener(loopback());
    dead_port = listener.local_endpoint().port;
  }
  SweepOptions options;
  options.connect_timeout = 200ms;
  SweepCoordinator coordinator(
      {Endpoint::parse("tcp:127.0.0.1:" + std::to_string(dead_port))},
      options);
  try {
    (void)coordinator.run(layout, matrix, 16, nullptr);
    FAIL() << "a sweep with no reachable workers must abort";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("all sweep workers failed"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepCoordinator, UnreachableWorkerLeavesNoShardInFlight) {
  // A worker whose connect fails counts toward the start barrier a moment
  // before it is marked dead, so the live worker's thread may open the
  // barrier in between and set a first shard aside for it. That shard
  // must return to the pending pool rather than wait out the straggler
  // deadline: with one live worker no sweep may re-shard.
  constexpr std::size_t kWords = 64;
  const GateSpec spec = majority_spec(3, SmallSweep::kChannels);
  ServerFixture live(loopback());
  const GateLayout layout = live.designer.design(spec);
  const auto matrix = random_matrix(kWords, SmallSweep::kSlots, 43);
  const WaveEngine engine(live.model, live.wg.material.alpha);
  const DataParallelGate gate(layout, engine);
  const BatchEvaluator evaluator(gate);
  const auto expected = evaluator.evaluate_bits(kWords, matrix);

  std::uint16_t dead_port;
  {
    Listener listener(loopback());
    dead_port = listener.local_endpoint().port;
  }
  const Endpoint unreachable =
      Endpoint::parse("tcp:127.0.0.1:" + std::to_string(dead_port));
  constexpr int kSweeps = 20;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    SweepOptions options;
    options.shard_words = 16;
    options.connect_timeout = 0ms;  // fail on the first refusal, no retry
    options.poll_tick = 1ms;
    const std::size_t dead_index = sweep % 2;
    std::vector<Endpoint> workers{live.server.local_endpoint()};
    workers.insert(workers.begin() + static_cast<std::ptrdiff_t>(dead_index),
                   unreachable);
    SweepCoordinator coordinator(workers, options);
    SweepReport report;
    const auto merged = coordinator.run(layout, matrix, kWords, &report);

    EXPECT_EQ(merged, expected) << "sweep " << sweep;
    EXPECT_EQ(report.dead_workers, 1u) << "sweep " << sweep;
    EXPECT_EQ(report.resharded, 0u) << "sweep " << sweep;
    EXPECT_EQ(report.shards_per_worker[1 - dead_index], report.shards)
        << "sweep " << sweep;
  }
}

}  // namespace
