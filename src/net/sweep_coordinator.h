// Multi-host sweep coordinator: shard an exhaustive evaluate_bits sweep
// across remote workers, retire shards on result receipt, and re-shard
// stragglers.
//
// The paper's headline workload — all 2^n operand words through an n-bit
// data-parallel gate — is embarrassingly parallel by word offset, so the
// coordinator splits the input matrix into contiguous word-range shards
// and streams them to N workers over the socket transport, one thread
// per worker connection.
//
// Each connection keeps a window of two shards in flight, so one shard
// evaluates while the next is encoded, sent and decoded. Every request
// carries a fresh envelope tag (never 0) and the server echoes it, so a
// reply is matched to its shard by tag, in whatever order it arrives.
// Replies already readable are retired before the next shard is encoded.
// A worker with one shard in flight claims only pending shards; only an
// idle worker (empty window) waits for work and may take a straggler
// duplicate, so no worker ever holds one shard twice. The depth is fixed,
// not an option: deeper windows mostly queue shards at the server (four
// gave 1.2x the words/s of two at 1.5x the median shard latency).
//
// No shard moves until every worker has connected or been declared dead
// (each bounded by `connect_timeout`). As that start barrier opens, one
// shard is set aside for each connected worker, so every worker gets a
// first shard before any window takes a second. Without the barrier a
// fast first worker could drain a small sweep before the others finish
// connecting, which would make load distribution a race against thread
// start-up.
//
// Completion is tracked per shard, not per worker:
//
//   * a shard is only retired when its response frame arrives and
//     validates (kind, layout hash, word range, channel count);
//   * a shard still in flight past `straggler_deadline` becomes eligible
//     for duplication, and the *fastest currently-idle* worker (most
//     shards completed, ties to the lowest index) claims it — a stalled
//     or SIGSTOPped worker therefore delays the sweep by about one
//     deadline (both shards of its window fall overdue together), and a
//     dead one by nothing at all once its connection errors out;
//   * when both the original and the duplicate eventually answer, the
//     second result is checked bit-for-bit against the first — a
//     divergent duplicate means non-deterministic workers, which for this
//     workload is data corruption, and aborts the sweep rather than
//     letting a coin flip decide the truth table. After the sweep
//     completes, a worker still owed replies waits up to
//     `duplicate_grace` for all of them.
//
// Failures are handled per shard. A tagged kOverload reply (the worker
// shed that request under admission control) re-queues only its shard;
// the connection stays up and the worker backs off one `poll_tick`
// before claiming again. A connection error, an unknown tag or a
// malformed reply returns every shard in the window to the pending pool
// and drops the worker. The sweep aborts only when every worker is gone
// or the wall deadline passes, so CI legs can never hang.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gate_design.h"
#include "net/socket.h"
#include "obs/trace.h"

namespace sw::net {

struct SweepOptions {
  /// Words per shard; the last shard takes the remainder.
  std::size_t shard_words = 4096;
  /// Budget for each worker connection attempt (retries inside).
  std::chrono::milliseconds connect_timeout{10000};
  /// Per-frame send/receive budget once a transfer has started.
  std::chrono::milliseconds io_timeout{10000};
  /// Cadence at which waiting workers re-check shard state.
  std::chrono::milliseconds poll_tick{50};
  /// Age past which an in-flight shard may be duplicated to an idle
  /// worker.
  std::chrono::milliseconds straggler_deadline{2000};
  /// After the sweep completes, how long a worker still owed a (by then
  /// redundant) response keeps listening so the duplicate can be
  /// dedup-verified instead of abandoned. 0 = abandon immediately.
  std::chrono::milliseconds duplicate_grace{0};
  /// Hard abort on the whole run — bounds every CI invocation.
  std::chrono::milliseconds max_wall{600000};
  /// Send a kShutdown message to each live worker after a successful
  /// sweep (the example workers exit on it).
  bool shutdown_workers = false;
  /// When set, every shard assignment records a trace (id = shard index,
  /// track = worker index) with assign/send/wait/retire spans, and each
  /// straggler duplication records a zero-length "reshard" event — so a
  /// sweep becomes a per-worker timeline in Perfetto. Borrowed; must
  /// outlive run().
  sw::obs::TraceRecorder* recorder = nullptr;
};

struct SweepReport {
  std::size_t shards = 0;            ///< shards the sweep was split into
  std::size_t resharded = 0;         ///< duplicate assignments issued
  std::size_t duplicate_results = 0; ///< redundant responses, dedup-verified
  std::size_t overload_retries = 0;  ///< shards shed by a worker and re-queued
  std::size_t dead_workers = 0;      ///< workers lost before completion
  std::vector<std::size_t> shards_per_worker;  ///< completed, by worker index
};

class SweepCoordinator {
 public:
  explicit SweepCoordinator(std::vector<Endpoint> workers,
                            SweepOptions options = {});

  /// Discover workers from a RegistryServer instead of a static list:
  /// poll the registry until at least `min_workers` live adverts are
  /// listed (or `timeout` passes — then throws TimeoutError). Returns the
  /// advertised endpoints in the registry's deterministic order; feed them
  /// to the constructor.
  static std::vector<Endpoint> discover(const Endpoint& registry,
                                        std::size_t min_workers,
                                        std::chrono::milliseconds timeout);

  /// Run the sweep: `matrix` is the row-major num_words x slot_count input
  /// (the evaluate_bits shape for `layout`); returns the merged row-major
  /// num_words x num_channels output, bit-for-bit what a single in-process
  /// evaluator would produce. Throws sw::util::Error when the sweep cannot
  /// complete (all workers lost, wall deadline, divergent duplicate,
  /// geometry mismatch).
  std::vector<std::uint8_t> run(const sw::core::GateLayout& layout,
                                const std::vector<std::uint8_t>& matrix,
                                std::size_t num_words,
                                SweepReport* report = nullptr);

  const std::vector<Endpoint>& workers() const { return workers_; }

 private:
  std::vector<Endpoint> workers_;
  SweepOptions options_;
};

}  // namespace sw::net
