#include "net/eval_server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/layout_hash.h"
#include "serve/wire.h"
#include "wavesim/kernels/kernel.h"

namespace sw::net {

namespace {

// epoll user-data slots below the first connection id.
constexpr std::uint64_t kListenerSlot = 0;
constexpr std::uint64_t kWakeupSlot = 1;
constexpr std::uint64_t kFirstConnId = 2;

// Read granularity: the full 4096-word request of the throughput bench
// fits in one chunk, so the steady-state read path is one recv per frame.
constexpr std::size_t kReadChunk = 256u << 10;
// Stop reading a connection once this much unparsed input is buffered
// (back-pressure also comes from the in-flight cap; this bounds memory
// against a client that blasts frames faster than they are admitted).
constexpr std::size_t kMaxBufferedRead = 4u << 20;
// Designed v2 layouts kept by wire hash; sized like the service's default
// plan cache, which holds the programs built from them.
constexpr std::size_t kLayoutCacheCapacity = 32;

void set_fd_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SW_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             std::string("fcntl(O_NONBLOCK) failed: ") + std::strerror(errno));
}

/// A connection's unparsed input. A std::vector value-initialises every
/// byte it grows by, so sizing one for each kReadChunk recv would zero-fill
/// 256 KiB on the event thread per read. This buffer hands recv its
/// uninitialised spare capacity instead; only bytes recv reported writing
/// are contents.
class ReadBuffer {
 public:
  std::size_t size() const { return size_; }
  const std::uint8_t* data() const { return bytes_.get(); }
  std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }

  /// The next `n` bytes past the contents, for recv to fill. Grows like
  /// std::vector::resize (to at least twice the contents) when short, and
  /// copies only the contents across.
  std::span<std::uint8_t> spare(std::size_t n) {
    if (capacity_ - size_ < n) {
      const std::size_t capacity = size_ + std::max(size_, n);
      std::unique_ptr<std::uint8_t[]> grown(new std::uint8_t[capacity]);
      if (size_ > 0) std::memcpy(grown.get(), bytes_.get(), size_);
      bytes_ = std::move(grown);
      capacity_ = capacity;
    }
    return {bytes_.get() + size_, n};
  }
  /// Count the first `n` bytes of the last spare() as contents.
  void commit(std::size_t n) { size_ += n; }
  void clear() { size_ = 0; }  ///< capacity kept
  /// Drop the first `n` bytes of the contents.
  void erase_front(std::size_t n) {
    std::memmove(bytes_.get(), bytes_.get() + n, size_ - n);
    size_ -= n;
  }

 private:
  std::unique_ptr<std::uint8_t[]> bytes_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace

/// One evaluated request's reply, from a pool worker through the
/// completion queue or straight from an inline evaluation. Carries the
/// response metadata (not the request frame) so the reply can be packed
/// straight from the service's result columns without ever re-touching the
/// request.
struct EvalServer::Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t tag = 0;
  std::uint64_t layout_hash = 0;
  std::uint64_t word_offset = 0;
  std::uint64_t num_words = 0;
  std::uint64_t num_channels = 0;
  /// The result's channel columns (empty on error).
  std::vector<std::uint64_t> columns;
  /// The request's settled spans (wire decode + service phases); the event
  /// thread appends wire-encode / write-queue spans before recording it.
  sw::obs::TraceContext trace;
  bool failed = false;
  ErrorCode error_code = ErrorCode::kInternal;
  std::string error_text;
};

/// The bridge from service worker threads back to the event thread: a
/// locked vector plus an eventfd wakeup. Held by shared_ptr from the
/// submit_async callbacks, so a completion that lands after stop() still
/// has a live queue to settle into (it is simply never drained).
struct EvalServer::CompletionQueue {
  std::mutex mutex;
  std::vector<Completion> items;
  int event_fd = -1;
  bool open = true;  ///< false after stop(): skip the wakeup write

  CompletionQueue() {
    event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    SW_REQUIRE(event_fd >= 0,
               std::string("eventfd failed: ") + std::strerror(errno));
  }
  ~CompletionQueue() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void push(Completion&& completion) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex);
      // Coalesce wakeups: items already queued mean a wakeup is already
      // pending (drain swaps the whole vector), so only the transition
      // from empty needs the eventfd write.
      wake = open && items.empty();
      items.push_back(std::move(completion));
    }
    if (wake) {
      const std::uint64_t one = 1;
      (void)!::write(event_fd, &one, sizeof(one));
    }
  }
};

/// Per-connection state, owned exclusively by the event thread. The
/// encode/decode buffers persist across requests: cleared (capacity kept)
/// when drained, so steady-state serving does no per-frame allocation.
struct EvalServer::Conn {
  std::uint64_t id = 0;
  Connection conn;
  ReadBuffer rbuf;  ///< unparsed input; [rpos, end) live
  std::size_t rpos = 0;
  std::vector<std::uint8_t> wbuf;  ///< unflushed output; [wpos, end) live
  std::size_t wpos = 0;
  std::size_t inflight = 0;  ///< submitted to the pool, not yet replied
  /// Frames evaluated inline during event-loop turn `inline_turn`.
  std::size_t inline_evals = 0;
  std::uint64_t inline_turn = 0;
  std::uint32_t armed_events = 0;  ///< epoll mask currently registered
  bool admitted = false;  ///< counted against max_connections
  bool paused = false;    ///< reads stopped by back-pressure
  /// The per-turn inline bound stopped this connection with complete
  /// frames still buffered: it is queued to resume next turn, and reads
  /// wait until the buffered frames are served.
  bool backlog = false;
  /// No further socket reads; settle in-flight work, flush, then close.
  /// Buffered complete frames are still served (a pipelining client may
  /// half-close after its last request) unless discard_input is also set.
  bool draining = false;
  bool discard_input = false;  ///< protocol violation: drop buffered input
  bool peer_eof = false;
  std::chrono::steady_clock::time_point last_progress;
  /// Bytes ever flushed to the socket; with pending_write() this gives the
  /// queue position a newly appended reply will have drained at.
  std::uint64_t total_flushed = 0;
  /// Traces whose reply sits in wbuf, waiting for its last byte to reach
  /// the socket (flush_mark = total_flushed at which the write-queue span
  /// closes and the trace records).
  struct PendingTrace {
    std::uint64_t flush_mark = 0;
    std::size_t slot = sw::obs::TraceContext::kNoSlot;
    sw::obs::TraceContext trace;
  };
  std::deque<PendingTrace> pending_traces;

  std::size_t pending_write() const { return wbuf.size() - wpos; }
  bool has_complete_message() const {
    const std::size_t avail = rbuf.size() - rpos;
    if (discard_input || avail < kMessageHeaderSize) return false;
    std::uint64_t payload_size = 0;
    for (int i = 0; i < 8; ++i) {
      payload_size |= static_cast<std::uint64_t>(rbuf[rpos + 16 + i])
                      << (8 * i);
    }
    return avail >= kMessageHeaderSize + payload_size;
  }
  /// A draining connection with nothing left to do may close.
  bool settled() const {
    return draining && inflight == 0 && pending_write() == 0 &&
           !has_complete_message();
  }
  bool has_stalled_work() const {
    return pending_write() > 0 || rbuf.size() - rpos > 0 || draining ||
           inflight > 0;
  }
};

EvalServer::EvalServer(sw::serve::EvaluatorService& service,
                       Designer designer, const Endpoint& endpoint,
                       EvalServerOptions options)
    : service_(&service),
      designer_(std::move(designer)),
      options_(options),
      listener_(endpoint) {
  SW_REQUIRE(designer_ != nullptr, "EvalServer needs a designer callback");
  completions_ = std::make_shared<CompletionQueue>();
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  SW_REQUIRE(epoll_fd_ >= 0,
             std::string("epoll_create1 failed: ") + std::strerror(errno));
  set_fd_nonblocking(listener_.fd());
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerSlot;
  SW_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) == 0,
             std::string("epoll_ctl(listener) failed: ") +
                 std::strerror(errno));
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeupSlot;
  SW_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, completions_->event_fd,
                         &ev) == 0,
             std::string("epoll_ctl(eventfd) failed: ") +
                 std::strerror(errno));
  next_conn_id_ = kFirstConnId;
  last_reap_ = std::chrono::steady_clock::now();
  event_thread_ = std::thread([this] { event_loop(); });
  if (options_.registry) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

EvalServer::~EvalServer() {
  stop();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void EvalServer::event_loop() {
  std::vector<epoll_event> events(64);
  std::vector<std::uint64_t> resume;
  const int tick_ms = static_cast<int>(options_.poll_tick.count());
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) break;
    }
    // A backlogged connection has complete frames waiting: poll, don't
    // sleep, so it resumes this turn without new socket data.
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     backlog_.empty() ? tick_ms : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; serving cannot continue
    }
    ++turn_;
    resume.swap(backlog_);  // last turn's; this turn's go to backlog_
    for (int i = 0; i < n; ++i) {
      const std::uint64_t slot = events[i].data.u64;
      if (slot == kListenerSlot) {
        handle_accept();
        continue;
      }
      if (slot == kWakeupSlot) {
        std::uint64_t drained = 0;
        (void)!::read(completions_->event_fd, &drained, sizeof(drained));
        continue;  // completions drained below, once per wake
      }
      auto it = conns_.find(slot);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      try {
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) && conn.draining) {
          // A draining peer that reset: nothing left worth flushing.
          close_conn(slot);
          continue;
        }
        if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
          handle_readable(conn);
        }
        if (conns_.count(slot) != 0 && (events[i].events & EPOLLOUT)) {
          handle_writable(conn);
        }
      } catch (const std::exception&) {
        // Peer reset, corrupt envelope, unsynchronised stream: drop it.
        close_conn(slot);
      }
    }
    // Backlogged connections go after this turn's socket events, so a
    // connection with new data is served before one that already had its
    // share of inline evaluations.
    for (const std::uint64_t id : resume) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      conn.backlog = false;
      try {
        process_buffered(conn);
        finish_read_turn(conn);
      } catch (const std::exception&) {
        close_conn(id);
      }
    }
    resume.clear();
    drain_completions();
    if (last_inline_turn_ == turn_) {
      // Inline work keeps this thread runnable from one turn to the next,
      // so it never offers the scheduler a reschedule point of its own. A
      // client that a reply woke onto this CPU (a wake-up favours the
      // waker's CPU) then stayed here for whole gate_small_tcp runs on a
      // 4-vCPU VM, the two threads sharing one vCPU at ~60% of the words/s
      // of runs where they did not. With a yield after each such turn
      // those runs separate within seconds; with nothing else runnable
      // here it returns at once.
      std::this_thread::yield();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_reap_ >= options_.poll_tick) {
      last_reap_ = now;
      reap_stalled();
    }
  }
  // Teardown on the owning thread: every fd dies here, so no other thread
  // can race a descriptor reuse.
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.active_connections = 0;
  }
}

void EvalServer::handle_accept() {
  for (;;) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      // EAGAIN: backlog drained. Anything transient (aborted handshake,
      // fd pressure) is simply retried at the next readiness event.
      return;
    }
    if (listener_.local_endpoint().kind == Endpoint::Kind::kTcp) {
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->conn = Connection(fd);
    conn->last_progress = std::chrono::steady_clock::now();

    std::size_t admitted_count = 0;
    for (const auto& [id, c] : conns_) {
      if (c->admitted) ++admitted_count;
    }
    const bool admit = admitted_count < options_.max_connections;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.connections_accepted;
      if (admit) {
        counters_.active_connections = admitted_count + 1;
      } else {
        ++counters_.connections_refused;
        ++counters_.errors_sent;
      }
    }
    conn->admitted = admit;
    if (!admit) {
      // Over the connection cap: a typed, retryable refusal beats a
      // silent RST. Queued non-blockingly and flushed by readiness — an
      // unreadable peer costs a buffer, never a stalled accept path; the
      // reaper drops it after frame_timeout.
      conn->draining = true;
      append_reply(*conn, make_error_message(ErrorCode::kOverload,
                                             "connection limit reached"));
    }
    epoll_event ev{};
    ev.events = conn->admitted ? EPOLLIN : EPOLLOUT;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn destructor closes the fd
    }
    conn->armed_events = ev.events;
    const std::uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    if (!admit) {
      // Optimistic flush: a readable peer gets its refusal immediately.
      auto it = conns_.find(id);
      try {
        handle_writable(*it->second);
      } catch (const std::exception&) {
        close_conn(id);
      }
    }
  }
}

void EvalServer::handle_readable(Conn& conn) {
  std::uint64_t read_total = 0;
  for (;;) {
    if (conn.paused || conn.backlog || conn.draining || conn.peer_eof) break;
    if (conn.rbuf.size() - conn.rpos >= kMaxBufferedRead) break;
    const std::ptrdiff_t n = conn.conn.recv_some(conn.rbuf.spare(kReadChunk));
    if (n < 0) break;  // drained
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    conn.rbuf.commit(static_cast<std::size_t>(n));
    read_total += static_cast<std::uint64_t>(n);
    conn.last_progress = std::chrono::steady_clock::now();
    process_buffered(conn);
    if (static_cast<std::size_t>(n) < kReadChunk) break;  // likely drained
  }
  if (read_total > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.bytes_read += read_total;
  }
  process_buffered(conn);
  finish_read_turn(conn);
}

void EvalServer::finish_read_turn(Conn& conn) {
  if (conn.peer_eof) {
    // Half-close: no more requests will arrive, but complete frames
    // already buffered are still served before the connection closes.
    conn.draining = true;
  }
  if (conn.pending_write() > 0) {
    // One send for every reply this turn produced (inline replies, error
    // replies); closes a settled connection and re-arms epoll.
    handle_writable(conn);
    return;
  }
  if (conn.settled()) {
    close_conn(conn.id);
    return;
  }
  update_epoll(conn);
}

void EvalServer::process_buffered(Conn& conn) {
  if (conn.inline_turn != turn_) {
    conn.inline_turn = turn_;
    conn.inline_evals = 0;
  }
  for (;;) {
    if (conn.discard_input) break;
    if (conn.inflight >= options_.max_inflight_per_connection ||
        conn.pending_write() > options_.max_pending_write_bytes) {
      if (!conn.paused) {
        conn.paused = true;
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.backpressure_pauses;
      }
      break;
    }
    const std::size_t avail = conn.rbuf.size() - conn.rpos;
    if (avail < kMessageHeaderSize) break;
    const MessageHeader header = parse_message_header(
        {conn.rbuf.data() + conn.rpos, kMessageHeaderSize});
    if (avail < kMessageHeaderSize + header.payload_size) break;
    if (conn.inline_evals >= options_.max_inflight_per_connection) {
      // Fairness: this connection had its turn's share of inline
      // evaluations (each holds the event thread); the rest of its
      // buffered frames wait one turn behind every other connection.
      if (!conn.backlog) {
        conn.backlog = true;
        backlog_.push_back(conn.id);
      }
      break;
    }
    const std::span<const std::uint8_t> payload{
        conn.rbuf.data() + conn.rpos + kMessageHeaderSize,
        static_cast<std::size_t>(header.payload_size)};
    conn.rpos += kMessageHeaderSize + header.payload_size;
    handle_message(conn, header, payload);
  }
  // Reuse the buffer: fully parsed input resets it (capacity kept); a
  // large parsed prefix ahead of a partial frame is compacted away.
  if (conn.rpos == conn.rbuf.size()) {
    conn.rbuf.clear();
    conn.rpos = 0;
  } else if (conn.rpos >= (1u << 20)) {
    conn.rbuf.erase_front(conn.rpos);
    conn.rpos = 0;
  }
}

void EvalServer::handle_message(Conn& conn, const MessageHeader& header,
                                std::span<const std::uint8_t> payload) {
  verify_message_payload(header, payload);
  switch (header.kind) {
    case MessageKind::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return;
    }
    case MessageKind::kMetricsRequest: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.metrics_requests;
      }
      Message reply =
          make_text_message(MessageKind::kMetricsResponse, metrics_text());
      reply.tag = header.tag;
      append_reply(conn, reply);
      return;
    }
    case MessageKind::kTraceRequest: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.trace_requests;
      }
      Message reply =
          make_text_message(MessageKind::kTraceResponse, trace_text());
      reply.tag = header.tag;
      append_reply(conn, reply);
      return;
    }
    case MessageKind::kFrame: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.frames_received;
      }
      handle_frame(conn, header.tag, payload);
      return;
    }
    default: {
      // A client has no business sending error/metrics-response/registry
      // kinds; answer once, then drop the connection.
      append_reply(conn, make_error_message(ErrorCode::kBadRequest,
                                            "unexpected message kind",
                                            header.tag));
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.errors_sent;
      }
      conn.draining = true;
      conn.discard_input = true;
      return;
    }
  }
}

void EvalServer::handle_frame(Conn& conn, std::uint64_t tag,
                              std::span<const std::uint8_t> payload) {
  // Filled by the completion callback when the service evaluates the
  // request on this thread, before submit_async returns.
  std::optional<Completion> inline_reply;
  try {
    sw::obs::TraceContext trace;
    trace.track = conn.id;
    const std::size_t decode_slot = trace.begin(sw::obs::Phase::kWireDecode);
    const sw::serve::PackedFrame request =
        sw::serve::validate_frame(payload, options_.max_wire_version);
    SW_REQUIRE(request.kind == sw::serve::FrameKind::kRequest,
               "server expects request frames");
    // The frame's shape against its target, before any design work or
    // column sizing.
    const std::uint64_t slots =
        request.program ? request.program->primary_slot_count()
                        : request.spec->num_inputs *
                              request.spec->frequencies.size();
    SW_REQUIRE(request.num_cols == slots,
               "request frame has " + std::to_string(request.num_cols) +
                   " columns, its target reads " + std::to_string(slots) +
                   " input slots");
    if (request.program) {
      // v3: prove both ends mean the same program before evaluating, the
      // same contract layout_for enforces for geometry. The service's plan
      // cache keys on these canonical bytes, so no server-side program
      // cache is needed — a repeated program is a cache hit there.
      SW_REQUIRE(sw::serve::hash_program(*request.program) ==
                     request.layout_hash,
                 "program hash mismatch: decoded program differs from the "
                 "client's");
    }
    Completion meta;
    meta.conn_id = conn.id;
    meta.tag = tag;
    meta.layout_hash = request.layout_hash;
    meta.word_offset = request.word_offset;
    meta.num_words = request.num_words;
    sw::serve::EvalRequest eval_request;
    eval_request.num_words = static_cast<std::size_t>(request.num_words);
    eval_request.columns = sw::serve::unpack_columns(request);
    trace.end(decode_slot);
    if (request.program) {
      eval_request.program = &*request.program;
    } else {
      // Borrows the cached layout: submit_async copies what it keeps. A
      // cold spec is designed here, in its own span.
      eval_request.layout = &layout_for(request, trace);
    }
    eval_request.trace = std::move(trace);
    // The service's settle is not the request's end here — the reply still
    // has to be encoded and flushed — so recording is deferred to this
    // server (wire-encode + write-queue spans appended first).
    eval_request.defer_trace_record = true;
    service_->submit_async(
        std::move(eval_request),
        [queue = completions_, meta = std::move(meta),
         inline_sink = &inline_reply, submitter = std::this_thread::get_id()](
            sw::serve::ResultBatch&& result, std::exception_ptr error) mutable {
          if (error) {
            meta.failed = true;
            try {
              std::rethrow_exception(error);
            } catch (const sw::serve::OverloadError& e) {
              meta.error_code = ErrorCode::kOverload;
              meta.error_text = e.what();
            } catch (const std::exception& e) {
              meta.error_code = ErrorCode::kInternal;
              meta.error_text = e.what();
            }
          } else {
            meta.num_channels = result.num_channels;
            meta.columns = std::move(result.columns);
          }
          meta.trace = std::move(result.trace);
          if (std::this_thread::get_id() == submitter) {
            // Evaluated inline on the event thread, still inside
            // handle_frame: the sink is live and the reply is appended
            // this turn. A pool worker never touches the sink.
            *inline_sink = std::move(meta);
          } else {
            queue->push(std::move(meta));
          }
        });
    if (inline_reply) {
      ++conn.inline_evals;
      last_inline_turn_ = turn_;
      append_completion(conn, *inline_reply);
    } else {
      ++conn.inflight;
    }
  } catch (const sw::serve::OverloadError& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.overloads;
      ++counters_.errors_sent;
    }
    append_reply(conn, make_error_message(ErrorCode::kOverload, e.what(), tag));
  } catch (const sw::serve::UnsupportedVersionError& e) {
    // A frame newer than this worker decodes (a v3 program frame at a
    // v2-pinned worker): typed refusal, connection kept — the client
    // negotiates down rather than reconnecting.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.errors_sent;
    }
    append_reply(conn, make_error_message(ErrorCode::kUnsupportedVersion,
                                          e.what(), tag));
  } catch (const std::exception& e) {
    // Before submit: the client sent something malformed (bad frame, wrong
    // shape, alien geometry). After submit is unreachable here — those
    // failures arrive through the completion callback.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.errors_sent;
    }
    append_reply(conn,
                 make_error_message(ErrorCode::kBadRequest, e.what(), tag));
  }
}

void EvalServer::append_reply(Conn& conn, const Message& message) {
  append_message(conn.wbuf, message);
  conn.last_progress = std::chrono::steady_clock::now();
}

void EvalServer::append_completion(Conn& conn, Completion& c) {
  if (c.failed) {
    append_reply(conn, make_error_message(c.error_code, c.error_text, c.tag));
    service_->trace_recorder().record(c.trace);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.errors_sent;
    if (c.error_code == ErrorCode::kOverload) ++counters_.overloads;
    return;
  }
  const std::size_t encode_slot = c.trace.begin(sw::obs::Phase::kWireEncode);
  sw::serve::SweepFrameView view;
  view.kind = sw::serve::FrameKind::kResponse;
  view.layout_hash = c.layout_hash;
  view.word_offset = c.word_offset;
  view.num_words = c.num_words;
  view.num_cols = c.num_channels;
  view.columns = c.columns;
  append_frame_message(conn.wbuf, view, c.tag);
  c.trace.end(encode_slot);
  conn.last_progress = std::chrono::steady_clock::now();
  // The write-queue span stays open until the reply's last byte has left
  // for the socket (flush_mark); handle_writable closes it and records the
  // finished trace.
  Conn::PendingTrace& pending = conn.pending_traces.emplace_back();
  pending.flush_mark = conn.total_flushed + conn.pending_write();
  pending.slot = c.trace.begin(sw::obs::Phase::kWriteQueue);
  pending.trace = std::move(c.trace);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.responses_sent;
}

void EvalServer::drain_completions() {
  std::vector<Completion> items;
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    items.swap(completions_->items);
  }
  for (Completion& c : items) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) {
      // Connection died while evaluating: the reply has nowhere to go, but
      // the request still happened — record its trace as-is.
      service_->trace_recorder().record(c.trace);
      continue;
    }
    Conn& conn = *it->second;
    append_completion(conn, c);
    --conn.inflight;
  }
  // Flush and, where back-pressure has lifted, resume reading. Done once
  // per drained batch per connection rather than per completion.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& conn = *it->second;
    const std::uint64_t id = conn.id;
    ++it;  // close_conn below invalidates this entry's iterator
    if (conn.pending_write() == 0 && !conn.paused) continue;
    try {
      if (conn.pending_write() > 0) handle_writable(conn);
    } catch (const std::exception&) {
      close_conn(id);
      continue;
    }
    if (conns_.count(id) == 0) continue;  // drained and closed
    if (conn.paused &&
        conn.inflight < options_.max_inflight_per_connection &&
        conn.pending_write() <= options_.max_pending_write_bytes) {
      conn.paused = false;
      try {
        process_buffered(conn);
      } catch (const std::exception&) {
        close_conn(id);
        continue;
      }
      if (conn.settled()) {
        close_conn(id);
        continue;
      }
      update_epoll(conn);
    }
  }
}

void EvalServer::handle_writable(Conn& conn) {
  std::uint64_t sent_total = 0;
  while (conn.pending_write() > 0) {
    const std::ptrdiff_t n = conn.conn.send_some(
        {conn.wbuf.data() + conn.wpos, conn.pending_write()});
    if (n < 0) break;  // socket buffer full; EPOLLOUT re-arms below
    conn.wpos += static_cast<std::size_t>(n);
    conn.total_flushed += static_cast<std::uint64_t>(n);
    sent_total += static_cast<std::uint64_t>(n);
    conn.last_progress = std::chrono::steady_clock::now();
  }
  if (sent_total > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.bytes_written += sent_total;
  }
  // Replies fully on the wire close their write-queue span and record.
  while (!conn.pending_traces.empty() &&
         conn.pending_traces.front().flush_mark <= conn.total_flushed) {
    Conn::PendingTrace& pt = conn.pending_traces.front();
    pt.trace.end(pt.slot);
    service_->trace_recorder().record(pt.trace);
    conn.pending_traces.pop_front();
  }
  if (conn.pending_write() == 0) {
    conn.wbuf.clear();  // capacity kept for the next reply burst
    conn.wpos = 0;
    if (conn.settled()) {
      close_conn(conn.id);
      return;
    }
  }
  update_epoll(conn);
}

void EvalServer::update_epoll(Conn& conn) {
  std::uint32_t want = 0;
  if (!conn.paused && !conn.backlog && !conn.draining && !conn.peer_eof) {
    want |= EPOLLIN;
  }
  if (conn.pending_write() > 0) want |= EPOLLOUT;
  if (want == conn.armed_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.conn.fd(), &ev) == 0) {
    conn.armed_events = want;
  }
}

void EvalServer::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Replies that never reached the wire still record: their write-queue
  // span ends at the close, which is the truthful story of where the
  // request's time went.
  for (Conn::PendingTrace& pt : it->second->pending_traces) {
    pt.trace.end(pt.slot);
    service_->trace_recorder().record(pt.trace);
  }
  const bool was_admitted = it->second->admitted;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->conn.fd(), nullptr);
  conns_.erase(it);  // Connection destructor closes the fd
  if (was_admitted) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.active_connections > 0) --counters_.active_connections;
  }
}

void EvalServer::reap_stalled() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn->has_stalled_work() &&
        now - conn->last_progress > options_.frame_timeout) {
      stalled.push_back(id);
    }
  }
  for (const std::uint64_t id : stalled) close_conn(id);
}

const sw::core::GateLayout& EvalServer::layout_for(
    const sw::serve::PackedFrame& request, sw::obs::TraceContext& trace) {
  auto it = layouts_.find(request.layout_hash);
  if (it != layouts_.end() && it->second.spec == *request.spec) {
    return it->second;
  }
  const std::size_t design_slot = trace.begin(sw::obs::Phase::kDesign);
  sw::core::GateLayout layout = designer_(*request.spec);
  trace.end(design_slot);
  const std::uint64_t local_hash = sw::serve::hash_layout(layout);
  SW_REQUIRE(local_hash == request.layout_hash,
             "layout hash mismatch: server geometry differs from the "
             "client's");
  if (it == layouts_.end() && layouts_.size() >= kLayoutCacheCapacity) {
    // The layout cache is a small redesign-avoidance map, not an LRU:
    // dropping an arbitrary entry under pressure is fine because misses
    // only cost a redesign, never a wrong answer.
    layouts_.erase(layouts_.begin());
  }
  return layouts_.insert_or_assign(request.layout_hash, std::move(layout))
      .first->second;
}

void EvalServer::heartbeat_loop() {
  WorkerAdvert advert;
  advert.endpoint = options_.advertise.empty()
                        ? local_endpoint().to_string()
                        : options_.advertise;
  advert.kernel = std::string(sw::wavesim::active_kernel_name());
  advert.precision = service_->stats().precision;
  advert.words_per_second = options_.advertised_words_per_second;
  for (;;) {
    try {
      register_worker(*options_.registry, advert,
                      options_.heartbeat_interval);
    } catch (const std::exception&) {
      // Registry down or slow: keep serving, keep retrying. Workers must
      // never die because discovery is flaky.
    }
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_cv_.wait_for(lock, options_.heartbeat_interval,
                          [this] { return stop_; });
    if (stop_) return;
  }
}

ServerCounters EvalServer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string EvalServer::metrics_text() const {
  return render_service_metrics(service_->stats()) +
         render_server_metrics(counters());
}

std::string EvalServer::trace_text() const {
  return sw::obs::trace_json(service_->trace_recorder().snapshot(),
                             "sw-worker " + local_endpoint().to_string());
}

bool EvalServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_requested_;
}

bool EvalServer::wait_shutdown(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [this] { return shutdown_requested_ || stop_; };
  if (timeout.count() <= 0) {
    shutdown_cv_.wait(lock, ready);
  } else {
    shutdown_cv_.wait_for(lock, timeout, ready);
  }
  return shutdown_requested_;
}

void EvalServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Single-owner protocol: repeated stop() calls (explicit stop then
    // destructor) are no-ops; only the first performs the joins.
    if (stop_) return;
    stop_ = true;
  }
  shutdown_cv_.notify_all();
  {
    // Late completions must not write a wakeup nobody reads.
    std::lock_guard<std::mutex> lock(completions_->mutex);
    completions_->open = false;
  }
  const std::uint64_t one = 1;
  (void)!::write(completions_->event_fd, &one, sizeof(one));
  if (event_thread_.joinable()) event_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  listener_.close();
}

}  // namespace sw::net
