// Sharded-sweep worker: evaluate request frames, answer response frames.
//
// File transport (the PR 2 flow, still the default):
//
//   example_sweep_worker <request-file> <response-file>
//   example_sweep_worker --transport=file <request-file> <response-file>
//
// reads one request, evaluates it, writes one response, exits.
//
// Socket transport (persistent worker process):
//
//   example_sweep_worker --transport=tcp  --listen tcp:127.0.0.1:7801
//   example_sweep_worker --transport=unix --listen unix:/tmp/sweep_w1.sock
//   [--max-seconds N] [--registry ENDPOINT] [--words-per-second W]
//
// binds a net::EvalServer over a local EvaluatorService and serves shard
// requests until a coordinator sends the shutdown message (exit 0) or the
// optional --max-seconds safety net expires (exit 2, so a harness can tell
// an orphaned worker from a clean shutdown). With --registry the server
// heartbeats a WorkerAdvert (endpoint, kernel, precision, the optional
// --words-per-second throughput hint) to an example_registry process so a
// coordinator can *discover* this worker instead of being handed its
// endpoint on the command line.
//
// Either way the worker re-designs the gate layout from the wire GateSpec
// against its locally constructed dispersion model and verifies the
// canonical layout hash against the coordinator's before evaluating a
// single word — geometry drift between binaries is a hard error, not a
// silent wrong answer. The file transport does it here; over a socket the
// service's plan cache does it with the server's Designer, once per spec
// on a service worker, and answers a mismatch with a kBadRequest error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/gate.h"
#include "core/gate_design.h"
#include "dispersion/fvmsw.h"
#include "net/eval_server.h"
#include "net/socket.h"
#include "serve/layout_hash.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "sweep_common.h"
#include "util/error.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

int run_file_mode(const std::string& request_path,
                  const std::string& response_path) {
  const auto request = sw::serve::read_frame_file(request_path);
  SW_REQUIRE(request.kind == sw::serve::FrameKind::kRequest && request.spec,
             "worker expects a request frame carrying a GateSpec");

  const auto wg = sweep_example::waveguide();
  const sw::disp::FvmswDispersion model(wg);
  const sw::core::InlineGateDesigner designer(model);
  const auto layout = designer.design(*request.spec);

  const std::uint64_t local_hash = sw::serve::hash_layout(layout);
  SW_REQUIRE(local_hash == request.layout_hash,
             "layout hash mismatch: worker geometry differs from "
             "coordinator geometry");

  const sw::wavesim::WaveEngine engine(model, wg.material.alpha);
  const sw::core::DataParallelGate gate(layout, engine);
  const sw::wavesim::BatchEvaluator evaluator(gate);
  SW_REQUIRE(request.num_cols == evaluator.slot_count(),
             "request slot count does not match the designed layout");

  auto bits = evaluator.evaluate_bits(
      static_cast<std::size_t>(request.num_words), request.matrix);
  const std::uint64_t channels = layout.spec.frequencies.size();
  sw::serve::write_frame_file(
      response_path,
      sw::serve::make_response_frame(request, channels, std::move(bits)));

  std::printf(
      "worker: %llu words @ offset %llu, layout %016llx, kernel %s — "
      "done\n",
      static_cast<unsigned long long>(request.num_words),
      static_cast<unsigned long long>(request.word_offset),
      static_cast<unsigned long long>(local_hash),
      std::string(sw::wavesim::active_kernel_name()).c_str());
  return 0;
}

int run_socket_mode(const sw::net::Endpoint& listen, long max_seconds,
                    const std::string& registry, double words_per_second) {
  const auto wg = sweep_example::waveguide();
  const sw::disp::FvmswDispersion model(wg);
  const sw::core::InlineGateDesigner designer(model);

  sw::serve::EvaluatorService service(model, wg.material.alpha);
  sw::net::EvalServerOptions options;
  if (!registry.empty()) {
    options.registry = sw::net::Endpoint::parse(registry);
    options.advertised_words_per_second = words_per_second;
  }
  sw::net::EvalServer server(
      service,
      [&designer](const sw::core::GateSpec& spec) {
        return designer.design(spec);
      },
      listen, options);

  std::printf("worker: listening on %s (kernel %s%s%s)\n",
              server.local_endpoint().to_string().c_str(),
              std::string(sw::wavesim::active_kernel_name()).c_str(),
              registry.empty() ? "" : ", registry ",
              registry.empty() ? "" : registry.c_str());
  std::fflush(stdout);

  const bool shut = server.wait_shutdown(
      std::chrono::milliseconds(max_seconds > 0 ? max_seconds * 1000 : 0));
  const auto counters = server.counters();
  server.stop();
  std::printf("worker: %s after %llu frame(s), %llu error reply(ies)\n",
              shut ? "shutdown requested" : "max-seconds safety net hit",
              static_cast<unsigned long long>(counters.frames_received),
              static_cast<unsigned long long>(counters.errors_sent));
  return shut ? 0 : 2;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <request-file> <response-file>\n"
               "       %s --transport=file <request-file> <response-file>\n"
               "       %s --transport=tcp|unix --listen ENDPOINT "
               "[--max-seconds N] [--registry ENDPOINT] "
               "[--words-per-second W]\n",
               argv0, argv0, argv0);
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  using sweep_example::Transport;
  Transport transport = Transport::kFile;
  std::string listen;
  std::string registry;
  double words_per_second = 0.0;
  long max_seconds = 0;
  std::vector<std::string> positional;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--transport=", 0) == 0) {
        transport = sweep_example::parse_transport(arg.substr(12));
      } else if (arg == "--listen" && i + 1 < argc) {
        listen = argv[++i];
      } else if (arg == "--registry" && i + 1 < argc) {
        registry = argv[++i];
      } else if (arg == "--words-per-second" && i + 1 < argc) {
        words_per_second = std::atof(argv[++i]);
      } else if (arg == "--max-seconds" && i + 1 < argc) {
        max_seconds = std::atol(argv[++i]);
      } else if (!arg.empty() && arg[0] == '-') {
        usage(argv[0]);
      } else {
        positional.push_back(arg);
      }
    }
    if (transport == Transport::kFile) {
      if (positional.size() != 2) usage(argv[0]);
      return run_file_mode(positional[0], positional[1]);
    }
    if (!positional.empty() || listen.empty()) usage(argv[0]);
    return run_socket_mode(sw::net::Endpoint::parse(listen), max_seconds,
                           registry, words_per_second);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: %s\n", e.what());
    return 1;
  }
}
