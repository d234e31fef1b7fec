#include "net/sweep_coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "net/protocol.h"
#include "net/registry.h"
#include "serve/layout_hash.h"
#include "serve/wire.h"

namespace sw::net {

namespace {

using Clock = std::chrono::steady_clock;

enum class ShardState : std::uint8_t { kPending, kInflight, kDone };

struct Shard {
  std::size_t offset = 0;
  std::size_t words = 0;
  ShardState state = ShardState::kPending;
  Clock::time_point assigned_at{};
  std::size_t assignments = 0;  ///< > 1 once re-sharded
};

struct SweepState {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Shard> shards;
  std::size_t done_count = 0;
  std::vector<bool> idle;    ///< worker waiting for a shard
  std::vector<bool> alive;   ///< worker still participating
  std::size_t live_workers = 0;
  std::size_t ready_workers = 0;  ///< connected or dead (start barrier)
  bool released = false;          ///< the start barrier has opened
  /// Per worker: the first shard set aside for it when the barrier opened.
  std::vector<std::optional<std::size_t>> reserved;
  std::vector<std::size_t> completed;  ///< shards retired per worker
  std::size_t resharded = 0;
  std::size_t duplicate_results = 0;
  std::size_t overload_retries = 0;
  bool aborted = false;
  std::string error;
  Clock::time_point wall_deadline{};
  std::size_t num_channels = 0;
  std::vector<std::uint8_t> merged;

  void abort_locked(const std::string& why) {
    if (!aborted) {
      aborted = true;
      error = why;
    }
    cv.notify_all();
  }
};

/// True when worker `w` is the fastest currently-idle worker: most shards
/// completed, ties to the lowest index — so exactly one idle worker wins
/// each duplication decision.
bool fastest_idle_locked(const SweepState& state, std::size_t w) {
  for (std::size_t x = 0; x < state.idle.size(); ++x) {
    if (x == w || !state.idle[x] || !state.alive[x]) continue;
    if (state.completed[x] > state.completed[w]) return false;
    if (state.completed[x] == state.completed[w] && x < w) return false;
  }
  return true;
}

/// Shards one worker connection keeps in flight: one evaluates while the
/// next is encoded, sent and decoded. Deeper windows mostly queue shards
/// at the server: on sweep_bulk_tcp a window of four gave 1.2x the
/// words/s of two at 1.5x the median shard latency.
constexpr std::size_t kWindowDepth = 2;

/// One shard a worker connection owes a reply for.
struct InFlight {
  std::size_t index = 0;  ///< shard
  std::uint64_t tag = 0;  ///< envelope tag the reply echoes
  /// The assignment's trace; its wait span is open until the reply.
  sw::obs::TraceContext trace;
  std::size_t wait_slot = sw::obs::TraceContext::kNoSlot;
};

/// Under the lock: move the first pending shard that `held` does not
/// already name to in-flight, so no worker ever holds one shard twice.
std::optional<std::size_t> take_pending_locked(SweepState& state,
                                               Clock::time_point now,
                                               std::span<const InFlight> held) {
  for (std::size_t i = 0; i < state.shards.size(); ++i) {
    Shard& shard = state.shards[i];
    if (shard.state != ShardState::kPending) continue;
    if (std::any_of(held.begin(), held.end(),
                    [i](const InFlight& f) { return f.index == i; })) {
      continue;
    }
    shard.state = ShardState::kInflight;
    shard.assigned_at = now;
    ++shard.assignments;
    return i;
  }
  return std::nullopt;
}

/// Under the lock, as the start barrier opens: set one pending shard aside
/// for every connected worker. The thread that opens the barrier goes on
/// to fill its window at once; one that wakes late still finds its first
/// shard waiting, so every worker gets one before any window takes a
/// second.
void release_barrier_locked(SweepState& state, Clock::time_point now) {
  state.released = true;
  for (std::size_t w = 0; w < state.alive.size(); ++w) {
    if (state.alive[w]) state.reserved[w] = take_pending_locked(state, now, {});
  }
  state.cv.notify_all();
}

/// Block until a shard is available for idle worker `w` (its window is
/// empty): its reserved first shard, a pending one, or an overdue
/// in-flight shard this worker may duplicate; nullopt once the sweep is
/// complete or aborted.
std::optional<std::size_t> acquire_shard(SweepState& state, std::size_t w,
                                         const SweepOptions& options) {
  std::unique_lock<std::mutex> lock(state.mutex);
  state.idle[w] = true;
  for (;;) {
    if (state.aborted || state.done_count == state.shards.size()) {
      state.idle[w] = false;
      return std::nullopt;
    }
    const auto now = Clock::now();
    if (now > state.wall_deadline) {
      state.abort_locked("sweep wall deadline exceeded");
      continue;
    }
    if (!state.released) {
      if (state.ready_workers < state.idle.size()) {
        // Fleet-assembly barrier: no shard moves until every worker has
        // connected or failed to, so distribution never races start-up.
        state.cv.wait_for(lock, options.poll_tick);
        continue;
      }
      release_barrier_locked(state, now);
    }
    if (const auto first = std::exchange(state.reserved[w], std::nullopt);
        first && state.shards[*first].state != ShardState::kDone) {
      // A straggler copy may already have retired it if this thread woke
      // later than the deadline.
      state.idle[w] = false;
      return first;
    }
    if (const auto pending = take_pending_locked(state, now, {})) {
      state.idle[w] = false;
      return pending;
    }
    // No pending work: the fastest idle worker may duplicate the most
    // overdue straggler.
    if (fastest_idle_locked(state, w)) {
      std::size_t best = state.shards.size();
      for (std::size_t i = 0; i < state.shards.size(); ++i) {
        const Shard& shard = state.shards[i];
        if (shard.state != ShardState::kInflight) continue;
        if (now - shard.assigned_at < options.straggler_deadline) continue;
        if (best == state.shards.size() ||
            shard.assigned_at < state.shards[best].assigned_at) {
          best = i;
        }
      }
      if (best != state.shards.size()) {
        Shard& shard = state.shards[best];
        shard.assigned_at = now;
        ++shard.assignments;
        ++state.resharded;
        state.idle[w] = false;
        if (options.recorder) {
          // Zero-length event on the claiming worker's track, arg = how
          // many times this shard has now been assigned — in Perfetto it
          // marks exactly where the straggler policy kicked in.
          sw::obs::TraceContext event;
          event.id = best;
          event.track = w;
          const std::uint64_t ns = sw::obs::now_ns();
          event.add(sw::obs::Phase::kReshard, ns, ns,
                    static_cast<std::uint32_t>(shard.assignments));
          options.recorder->record(event);
        }
        return best;
      }
    }
    state.cv.wait_for(lock, options.poll_tick);
  }
}

/// Claim a pending shard without waiting, for a worker whose window holds
/// `held`. Straggler duplicates are left to idle workers.
std::optional<std::size_t> claim_pending(SweepState& state,
                                         std::span<const InFlight> held) {
  std::lock_guard<std::mutex> lock(state.mutex);
  return take_pending_locked(state, Clock::now(), held);
}

/// Return a not-yet-done shard to the pending pool (its worker failed or
/// was shed).
void requeue_shard(SweepState& state, std::size_t index) {
  std::lock_guard<std::mutex> lock(state.mutex);
  Shard& shard = state.shards[index];
  if (shard.state == ShardState::kInflight) {
    shard.state = ShardState::kPending;
  }
  state.cv.notify_all();
}

void mark_dead(SweepState& state, std::size_t w, const std::string& why) {
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.alive[w]) return;
  state.alive[w] = false;
  state.idle[w] = false;
  --state.live_workers;
  // A first shard the barrier set aside for this worker was never sent:
  // hand it back, or it would sit in flight until the straggler deadline.
  if (const auto first = std::exchange(state.reserved[w], std::nullopt);
      first && state.shards[*first].state == ShardState::kInflight) {
    state.shards[*first].state = ShardState::kPending;
    --state.shards[*first].assignments;
  }
  if (state.live_workers == 0 &&
      state.done_count < state.shards.size()) {
    state.abort_locked("all sweep workers failed; last failure: " + why);
  }
  state.cv.notify_all();
}

/// Validate and retire one response whose payload `matrix` holds as the
/// num_words x num_cols byte matrix; a divergent duplicate or a response
/// that does not match its shard aborts the sweep.
void complete_shard(SweepState& state, std::size_t w, std::size_t index,
                    const sw::serve::PackedFrame& response,
                    std::span<const std::uint8_t> matrix,
                    std::uint64_t expected_hash) {
  std::lock_guard<std::mutex> lock(state.mutex);
  Shard& shard = state.shards[index];
  if (response.kind != sw::serve::FrameKind::kResponse ||
      response.layout_hash != expected_hash ||
      response.word_offset != shard.offset ||
      response.num_words != shard.words ||
      response.num_cols != state.num_channels) {
    state.abort_locked("worker returned a response frame that does not "
                       "match its shard");
    return;
  }
  std::uint8_t* dst =
      state.merged.data() + shard.offset * state.num_channels;
  const std::size_t bytes = shard.words * state.num_channels;
  if (shard.state == ShardState::kDone) {
    // A re-sharded shard answered twice; both workers must agree on every
    // bit or the sweep result would depend on message timing.
    if (std::memcmp(dst, matrix.data(), bytes) != 0) {
      state.abort_locked(
          "duplicate shard results diverge bit-for-bit (offset " +
          std::to_string(shard.offset) + ")");
      return;
    }
    ++state.duplicate_results;
    return;
  }
  std::memcpy(dst, matrix.data(), bytes);
  shard.state = ShardState::kDone;
  ++state.done_count;
  ++state.completed[w];
  state.cv.notify_all();
}

struct WorkerContext {
  const sw::core::GateLayout* layout = nullptr;
  const std::vector<std::uint8_t>* matrix = nullptr;
  std::uint64_t expected_hash = 0;
  std::size_t slots = 0;
};

/// One coordinator thread's side of one worker connection: up to
/// kWindowDepth tagged shards in flight, each reply matched to its shard
/// by the envelope tag the server echoes.
class WorkerLink {
 public:
  WorkerLink(SweepState& state, std::size_t w, const SweepOptions& options,
             const WorkerContext& ctx)
      : state_(state), w_(w), options_(options), ctx_(ctx) {}

  void run(const Endpoint& endpoint);

 private:
  bool connect(const Endpoint& endpoint);
  /// Whether to stop waiting for the window's replies: the sweep aborted
  /// or ran out of wall time, or it completed and the grace is over.
  bool window_expired();
  /// Encode and send shard `index` into the window; throws on a send
  /// failure, with the shard already in the window.
  void send_shard(std::size_t index, std::uint64_t acquire_start);
  /// Receive one reply and retire the window entry its tag names. Throws
  /// when the connection is unusable: EOF, a corrupt envelope or frame,
  /// an unknown tag, or an error reply other than kOverload.
  void receive_reply();
  /// Every shard the connection owes goes back to the pending pool and
  /// this worker leaves the sweep.
  void drop_connection(const std::string& why);
  void record(InFlight& shard);

  SweepState& state_;
  const std::size_t w_;
  const SweepOptions& options_;
  const WorkerContext& ctx_;
  Connection conn_;
  /// Reused across shards: steady-state encoding allocates nothing once
  /// the buffer has grown to one shard's frame size.
  std::vector<std::uint8_t> request_bytes_;
  /// A reply's payload as its byte matrix, reused the same way.
  std::vector<std::uint8_t> reply_matrix_;
  std::vector<InFlight> window_;
  /// Starts at 1: a peer that answers with tag 0 names no shard.
  std::uint64_t next_tag_ = 1;
  std::optional<Clock::time_point> grace_deadline_;
  Clock::time_point claim_after_{};  ///< back-off after a shed shard
  bool dead_ = false;
};

bool WorkerLink::connect(const Endpoint& endpoint) {
  try {
    conn_ = Connection::connect(endpoint, options_.connect_timeout);
  } catch (const sw::util::Error& e) {
    {
      std::lock_guard<std::mutex> lock(state_.mutex);
      ++state_.ready_workers;  // resolved, just not usefully
    }
    mark_dead(state_, w_, "connect to " + endpoint.to_string() +
                              " failed: " + e.what());
    return false;
  }
  std::lock_guard<std::mutex> lock(state_.mutex);
  ++state_.ready_workers;
  state_.cv.notify_all();
  return true;
}

void WorkerLink::run(const Endpoint& endpoint) {
  if (!connect(endpoint)) return;
  window_.reserve(kWindowDepth);
  while (!dead_) {
    if (!window_.empty() && window_expired()) break;
    try {
      // Retire every reply already readable before encoding the next
      // shard, so a finished shard never waits behind an encode.
      while (!window_.empty() &&
             conn_.wait_readable(std::chrono::milliseconds(0))) {
        receive_reply();
      }
      if (window_.size() < kWindowDepth) {
        const std::uint64_t acquire_start = sw::obs::now_ns();
        std::optional<std::size_t> index;
        if (window_.empty()) {
          // Idle: wait for work, straggler duplicates included.
          std::this_thread::sleep_until(claim_after_);
          index = acquire_shard(state_, w_, options_);
          if (!index) break;  // sweep complete or aborted
        } else if (Clock::now() >= claim_after_) {
          index = claim_pending(state_, window_);
        }
        if (index) {
          send_shard(*index, acquire_start);
          continue;
        }
      }
      // Wait for a reply tick by tick, so sweep completion, aborts and
      // the wall deadline all preempt a silent peer. (A silent peer is
      // not an error: a SIGSTOPped worker keeps its window in flight
      // until the straggler deadline hands the shards to someone else.)
      if (conn_.wait_readable(options_.poll_tick)) receive_reply();
    } catch (const sw::util::Error& e) {
      drop_connection(e.what());
    }
  }
  // Replies abandoned to an abort, the wall deadline or the end of the
  // grace window: their traces still land in the timeline.
  for (InFlight& shard : window_) record(shard);
  window_.clear();
  if (!options_.shutdown_workers || dead_) return;
  bool completed;
  {
    // Check under the lock, send outside it: a peer with a full send
    // buffer may block this thread for io_timeout, and that must not
    // serialise the other workers' exits.
    std::lock_guard<std::mutex> lock(state_.mutex);
    completed = !state_.aborted && state_.done_count == state_.shards.size();
  }
  if (!completed) return;
  try {
    Message m;
    m.kind = MessageKind::kShutdown;
    send_message(conn_, m, options_.io_timeout);
  } catch (const sw::util::Error&) {
    // Best-effort: a worker that died after its last shard still leaves
    // the sweep result intact.
  }
}

bool WorkerLink::window_expired() {
  std::lock_guard<std::mutex> lock(state_.mutex);
  if (state_.aborted) return true;
  const auto now = Clock::now();
  if (now > state_.wall_deadline) {
    state_.abort_locked("sweep wall deadline exceeded");
    return true;
  }
  if (state_.done_count < state_.shards.size()) return false;
  // Complete without us: linger only for the dedup grace window, then
  // abandon the redundant replies. This worker still deserves its
  // kShutdown even though its last answers went unused.
  if (!grace_deadline_) grace_deadline_ = now + options_.duplicate_grace;
  return now >= *grace_deadline_;
}

void WorkerLink::send_shard(std::size_t index, std::uint64_t acquire_start) {
  // One trace per shard assignment: id = shard index, track = worker
  // index, so a duplicated shard shows up once per claiming worker.
  InFlight& shard = window_.emplace_back();
  shard.index = index;
  shard.tag = next_tag_++;
  shard.trace.id = index;
  shard.trace.track = w_;
  shard.trace.add(sw::obs::Phase::kShardAssign, acquire_start,
                  sw::obs::now_ns());
  // Offsets and sizes are fixed before any worker thread starts, so they
  // are read without the lock.
  const std::size_t offset = state_.shards[index].offset;
  const std::size_t words = state_.shards[index].words;
  // Zero-copy request: the frame encoder packs the shard's word range
  // straight out of the sweep matrix (no row copy, no payload vector),
  // with the layout hash computed once for the whole sweep.
  const std::span<const std::uint8_t> rows{
      ctx_.matrix->data() + offset * ctx_.slots, words * ctx_.slots};
  // A failed send leaves this span open; the emitter drops it, and what
  // was stamped (the assign span) still lands in the timeline.
  const std::size_t send_slot = shard.trace.begin(sw::obs::Phase::kShardSend);
  request_bytes_.clear();
  append_frame_message(
      request_bytes_,
      sw::serve::make_request_view(ctx_.layout->spec, ctx_.expected_hash,
                                   offset, words, rows),
      shard.tag);
  conn_.send_all(request_bytes_, options_.io_timeout);
  shard.trace.end(send_slot);
  shard.wait_slot = shard.trace.begin(sw::obs::Phase::kShardWait);
}

void WorkerLink::receive_reply() {
  const std::optional<Message> reply = recv_message(conn_, options_.io_timeout);
  if (!reply) throw sw::util::Error("worker closed the connection mid-sweep");
  const auto it = std::find_if(
      window_.begin(), window_.end(),
      [&reply](const InFlight& shard) { return shard.tag == reply->tag; });
  if (it == window_.end()) {
    throw sw::util::Error("worker replied with tag " +
                          std::to_string(reply->tag) +
                          ", which names no shard in flight");
  }
  if (reply->kind == MessageKind::kError) {
    const ErrorInfo info = decode_error_message(*reply);
    if (info.code != ErrorCode::kOverload) {
      throw RemoteError(info.code, "remote error: " + info.text);
    }
    // The worker shed this shard under admission control: re-queue it and
    // back off before claiming more. The connection itself is healthy.
    {
      std::lock_guard<std::mutex> lock(state_.mutex);
      ++state_.overload_retries;
    }
    requeue_shard(state_, it->index);
    claim_after_ = Clock::now() + options_.poll_tick;
    record(*it);
    window_.erase(it);
    return;
  }
  SW_REQUIRE(reply->kind == MessageKind::kFrame, "expected a frame message");
  const sw::serve::PackedFrame frame =
      sw::serve::validate_frame(reply->payload);
  // Validation bounds the matrix by the frame's own bytes.
  reply_matrix_.resize(
      static_cast<std::size_t>(frame.num_words * frame.num_cols));
  sw::serve::unpack_matrix(frame, reply_matrix_);
  InFlight& shard = *it;
  shard.trace.end(shard.wait_slot);
  shard.wait_slot = sw::obs::TraceContext::kNoSlot;
  const std::size_t retire_slot =
      shard.trace.begin(sw::obs::Phase::kShardRetire);
  complete_shard(state_, w_, shard.index, frame, reply_matrix_,
                 ctx_.expected_hash);
  shard.trace.end(retire_slot);
  record(shard);
  window_.erase(it);
}

void WorkerLink::drop_connection(const std::string& why) {
  for (InFlight& shard : window_) {
    requeue_shard(state_, shard.index);
    record(shard);
  }
  window_.clear();
  mark_dead(state_, w_, why);
  dead_ = true;
}

void WorkerLink::record(InFlight& shard) {
  shard.trace.end(shard.wait_slot);  // no-op once closed
  shard.wait_slot = sw::obs::TraceContext::kNoSlot;
  if (options_.recorder) options_.recorder->record(shard.trace);
}

}  // namespace

SweepCoordinator::SweepCoordinator(std::vector<Endpoint> workers,
                                   SweepOptions options)
    : workers_(std::move(workers)), options_(options) {
  SW_REQUIRE(!workers_.empty(), "sweep coordinator needs >= 1 worker");
  SW_REQUIRE(options_.shard_words > 0, "shard_words must be positive");
}

std::vector<Endpoint> SweepCoordinator::discover(
    const Endpoint& registry, std::size_t min_workers,
    std::chrono::milliseconds timeout) {
  SW_REQUIRE(min_workers > 0, "discover needs min_workers >= 1");
  const auto deadline = Clock::now() + timeout;
  std::string last_state = "registry not reached yet";
  for (;;) {
    std::chrono::milliseconds left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now());
    if (left.count() <= 0) {
      throw TimeoutError("worker discovery timed out (" + last_state + ")");
    }
    try {
      const auto adverts = fetch_registry(registry, left);
      if (adverts.size() >= min_workers) {
        std::vector<Endpoint> endpoints;
        endpoints.reserve(adverts.size());
        for (const WorkerAdvert& a : adverts) {
          endpoints.push_back(Endpoint::parse(a.endpoint));
        }
        return endpoints;
      }
      last_state = std::to_string(adverts.size()) + " of " +
                   std::to_string(min_workers) + " workers registered";
    } catch (const TimeoutError&) {
      throw TimeoutError("worker discovery timed out (" + last_state + ")");
    } catch (const sw::util::Error& e) {
      last_state = e.what();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

std::vector<std::uint8_t> SweepCoordinator::run(
    const sw::core::GateLayout& layout,
    const std::vector<std::uint8_t>& matrix, std::size_t num_words,
    SweepReport* report) {
  const std::size_t slots =
      layout.spec.frequencies.size() * layout.spec.num_inputs;
  SW_REQUIRE(slots > 0, "layout has no input slots");
  SW_REQUIRE(matrix.size() == num_words * slots,
             "input matrix must be num_words x slot_count");

  SweepState state;
  state.num_channels = layout.spec.frequencies.size();
  state.merged.assign(num_words * state.num_channels, 0);
  for (std::size_t offset = 0; offset < num_words;
       offset += options_.shard_words) {
    Shard shard;
    shard.offset = offset;
    shard.words = std::min(options_.shard_words, num_words - offset);
    state.shards.push_back(shard);
  }
  state.idle.assign(workers_.size(), false);
  state.alive.assign(workers_.size(), true);
  state.reserved.assign(workers_.size(), std::nullopt);
  state.completed.assign(workers_.size(), 0);
  state.live_workers = workers_.size();
  state.wall_deadline = Clock::now() + options_.max_wall;

  WorkerContext ctx;
  ctx.layout = &layout;
  ctx.matrix = &matrix;
  ctx.expected_hash = sw::serve::hash_layout(layout);
  ctx.slots = slots;

  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    threads.emplace_back([this, &state, &ctx, w] {
      WorkerLink(state, w, options_, ctx).run(workers_[w]);
    });
  }
  for (auto& t : threads) t.join();

  std::lock_guard<std::mutex> lock(state.mutex);
  if (report) {
    report->shards = state.shards.size();
    report->resharded = state.resharded;
    report->duplicate_results = state.duplicate_results;
    report->overload_retries = state.overload_retries;
    report->dead_workers = 0;
    for (const bool alive : state.alive) {
      if (!alive) ++report->dead_workers;
    }
    report->shards_per_worker = state.completed;
  }
  SW_REQUIRE(!state.aborted, "sweep aborted: " + state.error);
  SW_ASSERT(state.done_count == state.shards.size(),
            "sweep ended with unfinished shards");
  return std::move(state.merged);
}

}  // namespace sw::net
