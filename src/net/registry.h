// Worker registry: service discovery for the sharded-sweep serving fleet.
//
// A sweep coordinator used to take its worker list on the command line,
// which breaks down as soon as workers come and go (restarts, autoscaling,
// multi-host launches racing the coordinator). The registry is the
// rendezvous point: each EvalServer registers itself with a WorkerAdvert —
// its serving endpoint plus the capability facts a scheduler cares about
// (evaluation kernel, precision, measured words/s) — and re-sends the
// advert as a heartbeat. The registry holds adverts in memory with a TTL;
// an entry whose heartbeats stop is dropped at the next snapshot, so a
// SIGKILLed worker disappears without any explicit deregistration.
// Coordinators ask for a snapshot (kRegistryRequest) and connect to the
// endpoints it lists.
//
// Advert list payload (kRegister carries exactly one, kRegistryResponse
// any number; integers little-endian, strings length-prefixed):
//
//   u64 count, then per advert:
//     u64 len + bytes  endpoint   ("tcp:HOST:PORT" / "unix:PATH")
//     u64 len + bytes  kernel     ("scalar" | "avx2" | …)
//     u64 len + bytes  precision  ("f64"; kept for older peers)
//     f64              words_per_second (0 = unmeasured)
//
// The registry is deliberately thread-per-connection and blocking: its
// traffic is a few frames per worker per TTL, so the event-driven core of
// eval_server would be machinery without a workload here.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/metrics.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace sw::net {

/// One worker's self-description, as registered and as served back to
/// coordinators.
struct WorkerAdvert {
  std::string endpoint;   ///< the worker's serving address, parseable
  std::string kernel;     ///< evaluation kernel (active_kernel_name())
  std::string precision;  ///< the plans' precision (always "f64")
  double words_per_second = 0.0;  ///< measured throughput hint; 0 unknown

  friend bool operator==(const WorkerAdvert&, const WorkerAdvert&) = default;
};

/// Codec for kRegister (exactly one advert) and kRegistryResponse (any
/// number) payloads; decoders throw sw::util::Error on malformed input.
std::vector<std::uint8_t> encode_adverts(
    const std::vector<WorkerAdvert>& adverts);
std::vector<WorkerAdvert> decode_adverts(
    std::span<const std::uint8_t> payload);

struct RegistryOptions {
  /// An advert not refreshed within the TTL is dropped at the next
  /// snapshot. Heartbeat senders should refresh at ttl / 3 or faster.
  std::chrono::milliseconds ttl{10'000};
  /// Accept-loop wake cadence (stop() latency bound).
  std::chrono::milliseconds poll_tick{50};
  /// Per-message IO budget for register/snapshot exchanges.
  std::chrono::milliseconds io_timeout{5'000};
};

/// In-memory TTL registry server. Serves kRegister (upsert + empty
/// kRegister ack), kRegistryRequest (kRegistryResponse with the live
/// adverts), kMetricsRequest (plain-text sw_registry_* health counters)
/// and kShutdown.
class RegistryServer {
 public:
  explicit RegistryServer(const Endpoint& endpoint,
                          RegistryOptions options = {});
  ~RegistryServer();

  RegistryServer(const RegistryServer&) = delete;
  RegistryServer& operator=(const RegistryServer&) = delete;

  const Endpoint& local_endpoint() const { return listener_.local_endpoint(); }

  /// The live adverts (expired entries pruned), keyed order by endpoint so
  /// snapshots are deterministic.
  std::vector<WorkerAdvert> snapshot();

  /// Registry-health counters. Prunes expired adverts first (like
  /// snapshot()), so live_adverts and oldest_advert_age_s describe only
  /// entries a coordinator could actually discover.
  RegistryCounters counters();

  /// The text document a kMetricsRequest receives (sw_registry_* lines).
  std::string metrics_text();

  /// Block until a kShutdown message arrives or `max_wait` elapses
  /// (`max_wait` <= 0 waits indefinitely); true when shutdown was
  /// requested.
  bool wait_shutdown(std::chrono::milliseconds max_wait);

  void stop();

 private:
  void accept_loop();
  void serve_connection(Connection connection);

  RegistryOptions options_;
  Listener listener_;

  std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;
  struct Entry {
    WorkerAdvert advert;
    std::chrono::steady_clock::time_point last_seen;
  };
  std::map<std::string, Entry> entries_;  ///< keyed by advert endpoint
  std::uint64_t upserts_ = 0;
  std::uint64_t expirations_ = 0;
  std::uint64_t registry_requests_ = 0;
  std::uint64_t metrics_requests_ = 0;
  std::vector<std::thread> threads_;
  std::thread accept_thread_;
};

/// Register `advert` with the registry at `registry`: connect, send one
/// kRegister, await the ack. One call per heartbeat; cheap enough that
/// callers reconnect each time (the registry is not on the serving path).
void register_worker(const Endpoint& registry, const WorkerAdvert& advert,
                     std::chrono::milliseconds timeout);

/// Fetch the live adverts from the registry at `registry`.
std::vector<WorkerAdvert> fetch_registry(const Endpoint& registry,
                                         std::chrono::milliseconds timeout);

}  // namespace sw::net
