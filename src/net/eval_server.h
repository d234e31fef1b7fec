// Networked front end over serve::EvaluatorService.
//
// One EvalServer owns a listening socket (TCP or unix-domain) and serves
// the sharded-sweep wire format to remote clients. Since PR 6 the server
// is an epoll-based event core rather than a thread per connection:
//
//  - One event thread owns every socket. Connections are non-blocking;
//    reads and writes run only when epoll reports readiness, into
//    per-connection buffers that are reused across requests (no per-frame
//    allocation in steady state).
//  - Requests are *pipelined*: a client may send any number of tagged
//    frames without waiting, and each reply carries its request's tag, so
//    replies are written in whatever order the evaluations finish.
//  - A request frame decodes straight to the kernels' bit-sliced columns
//    (serve::validate_frame + unpack_columns) after its column count is
//    checked against its target; the service evaluates columns, and the
//    reply is packed straight from the result columns. No byte matrix
//    exists on the serving path.
//  - The server holds no geometry. A v2 frame is submitted as a gate
//    target named by its GateSpec and its claimed layout hash (with the
//    server's Designer), a v3 frame as its ProgramSpec; the service's plan
//    cache resolves both. A warm v2 frame is one cache lookup. A cold one
//    is designed, hash-checked and built on a service worker, inside the
//    request's plan_build span, so the event thread never designs. A
//    target the cache refuses (a design error, a hash mismatch, a stage
//    past kMaxTableMuxes) is answered kBadRequest with its reason.
//  - Where a frame is evaluated is the service's call (submit_async). A
//    frame whose program is already cached and whose kernel work is small
//    (EvaluatorService::kMaxInlineWork) runs to completion on the event
//    thread: decode, lookup, kernel and encode in one turn, with no queue
//    and no completion hop. Its reply is sent, together with every other
//    reply of the connection's read turn, in one send when the turn ends.
//    Cold targets and large batches run concurrently on the service pool;
//    their replies come back through a completion queue and an eventfd.
//  - Fairness: an inline evaluation holds the event thread, so each
//    connection gets at most max_inflight_per_connection of them per
//    event-loop turn. A connection with complete frames still buffered
//    resumes next turn, after the connections with new socket data,
//    without waiting for more data of its own. A turn that evaluated
//    inline ends with a yield of the CPU, so a client thread that a
//    reply woke onto the event thread's CPU does not stay there.
//  - Back-pressure, not shedding: when a connection reaches
//    max_inflight_per_connection pooled-but-unanswered frames (or its
//    outgoing buffer backs up past max_pending_write_bytes), the server
//    simply stops *reading* that connection until it drains — TCP flow
//    control pushes back to the client, and no admitted frame is ever
//    dropped. Service-level overload keeps its typed semantics: a kShed
//    rejection is answered with a kOverload error message carrying the
//    request's tag, never by dropping the connection.
//  - kMetricsRequest messages are answered with the plain-text metrics
//    document (service stats, request-phase histograms, transport
//    counters); kTraceRequest with the service's trace ring as Chrome
//    trace-event JSON (obs::trace_json) — each served request carries
//    wire-decode, admission, plan lookup, (cold only) plan build, queue,
//    kernel, wire-encode and write-queue spans, recorded once its reply
//    reaches the socket.
//  - With `registry` set, a heartbeat thread periodically registers a
//    WorkerAdvert (endpoint, kernel, precision, measured words/s) with a
//    RegistryServer so coordinators can discover this worker instead of
//    being handed a static endpoint list.
//
// Connections past max_connections receive a typed kOverload refusal and
// are closed — written non-blockingly from the event thread, so an
// unreadable refused peer can never stall accepting or stop().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/metrics.h"
#include "net/protocol.h"
#include "net/registry.h"
#include "net/socket.h"
#include "serve/service.h"

namespace sw::net {

struct EvalServerOptions {
  /// Budget for a *stalled* transfer: a connection with pending work
  /// (half-read frame, unflushed replies, an unread refusal) that makes no
  /// progress for this long is dropped. Idle connections are not reaped.
  std::chrono::milliseconds frame_timeout{10000};
  /// Event-loop wake cadence when nothing is ready: bounds how fast the
  /// loop notices stop() and runs the stall reaper.
  std::chrono::milliseconds poll_tick{100};
  /// Connections beyond this are answered with a kOverload error and
  /// closed instead of admitted.
  std::size_t max_connections = 64;
  /// Pipelining cap: frames per connection on the service pool,
  /// submitted but unanswered, before the server pauses reading it. Keep
  /// max_connections x this within the service's admission queue budget so
  /// admission never blocks the event thread. Also the per-turn fairness
  /// bound: at most this many of a connection's frames are evaluated
  /// inline on the event thread per event-loop turn.
  std::size_t max_inflight_per_connection = 16;
  /// Outgoing-buffer cap per connection before reads are paused (a client
  /// that sends but never reads otherwise grows the reply buffer without
  /// bound).
  std::size_t max_pending_write_bytes = 4u << 20;
  /// When set, a heartbeat thread registers this worker with the registry
  /// at this endpoint every `heartbeat_interval`.
  std::optional<Endpoint> registry;
  std::chrono::milliseconds heartbeat_interval{2000};
  /// Throughput hint advertised to the registry (words/s; 0 = unmeasured).
  double advertised_words_per_second = 0.0;
  /// Endpoint string advertised to the registry; empty advertises
  /// local_endpoint() (override when serving behind NAT or on 0.0.0.0).
  std::string advertise;
  /// Newest wire frame version this worker accepts. The default serves
  /// both single-gate (v2) and program (v3) requests; pinning it to
  /// sw::serve::kWireVersion emulates a pre-program worker, which answers
  /// v3 frames with a typed kUnsupportedVersion error instead of treating
  /// them as corruption — the negotiation path version-mixed fleets rely
  /// on (and what the tests exercise).
  std::uint16_t max_wire_version = sw::serve::kWireVersionMax;
};

class EvalServer {
 public:
  /// Maps a v2 frame's GateSpec to the layout the service evaluates;
  /// usually InlineGateDesigner::design against the same dispersion model
  /// the service was built on. Each cold v2 request carries its own copy
  /// into the service, and the plan cache calls it there: on service
  /// workers, concurrently for distinct specs, and possibly after stop()
  /// until the service has drained. So it must be safe to call from
  /// several threads at once, and whatever it references must outlive the
  /// service's in-flight requests, not just the server. A lambda calling
  /// InlineGateDesigner::design on a designer that outlives the service is
  /// both: design is const and keeps no mutable state. Never called on the
  /// event thread.
  using Designer = sw::serve::Designer;

  /// Binds and starts serving immediately. `service` must outlive the
  /// server. Throws on bind/listen failure (port taken, bad path).
  EvalServer(sw::serve::EvaluatorService& service, Designer designer,
             const Endpoint& endpoint, EvalServerOptions options = {});

  /// stop()s, so destruction joins every thread and closes every socket.
  ~EvalServer();

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// Bound address with any ephemeral TCP port resolved — advertise this.
  const Endpoint& local_endpoint() const {
    return listener_.local_endpoint();
  }

  ServerCounters counters() const;

  /// The metrics document a kMetricsRequest receives (service section +
  /// transport section).
  std::string metrics_text() const;

  /// The Chrome trace-event JSON a kTraceRequest receives: the service
  /// trace ring (wire decode, admission, plan, kernel, wire encode,
  /// write-queue spans per request) rendered by obs::trace_json.
  std::string trace_text() const;

  /// True once any client sent kShutdown (sticky). The server keeps
  /// serving — the owner decides when to stop(); the sweep worker example
  /// waits on this to exit cleanly.
  bool shutdown_requested() const;

  /// Block until shutdown_requested() or stop(); returns
  /// shutdown_requested(). `timeout` <= 0 waits indefinitely.
  bool wait_shutdown(std::chrono::milliseconds timeout =
                         std::chrono::milliseconds(0)) const;

  /// Stop accepting, wake the event thread, join every thread, close all
  /// sockets. Idempotent; in-flight evaluations (cold designs included)
  /// settle harmlessly into the (kept-alive) completion queue.
  void stop();

 private:
  struct Conn;
  struct Completion;
  struct CompletionQueue;

  void event_loop();
  void heartbeat_loop();
  void handle_accept();
  void handle_readable(Conn& conn);
  /// End of a connection's read turn: flush what the turn appended in one
  /// send, close it once settled, else re-arm epoll.
  void finish_read_turn(Conn& conn);
  void handle_writable(Conn& conn);
  void drain_completions();
  /// Serve complete buffered frames until back-pressure, a partial frame
  /// or the per-turn inline bound (which queues the connection on
  /// backlog_).
  void process_buffered(Conn& conn);
  void handle_message(Conn& conn, const MessageHeader& header,
                      std::span<const std::uint8_t> payload);
  void handle_frame(Conn& conn, std::uint64_t tag,
                    std::span<const std::uint8_t> payload);
  /// Answer a message the server will not serve with a tagged kBadRequest
  /// carrying `text`, then read no more and drop buffered input: the
  /// connection closes once the reply is flushed.
  void refuse_and_drain(Conn& conn, std::uint64_t tag,
                        const std::string& text);
  void append_reply(Conn& conn, const Message& message);
  /// Append an evaluated request's reply (its frame, or its error).
  void append_completion(Conn& conn, Completion& completion);
  void update_epoll(Conn& conn);
  void close_conn(std::uint64_t conn_id);
  void reap_stalled();

  sw::serve::EvaluatorService* service_;
  Designer designer_;
  EvalServerOptions options_;
  Listener listener_;

  int epoll_fd_ = -1;
  std::shared_ptr<CompletionQueue> completions_;
  std::uint64_t next_conn_id_ = 1;
  /// Owned by the event thread exclusively; no lock.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Event-loop turns so far; a connection's inline bound is per turn.
  std::uint64_t turn_ = 0;
  /// The last turn that evaluated a frame inline (0: none yet).
  std::uint64_t last_inline_turn_ = 0;
  /// Connections to resume next turn (Conn::backlog). Event thread only.
  std::vector<std::uint64_t> backlog_;
  std::chrono::steady_clock::time_point last_reap_;

  mutable std::mutex mutex_;
  mutable std::condition_variable shutdown_cv_;
  bool stop_ = false;
  bool shutdown_requested_ = false;
  ServerCounters counters_;

  std::thread event_thread_;
  std::thread heartbeat_thread_;
};

}  // namespace sw::net
