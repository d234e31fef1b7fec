#include "net/registry.h"

#include <algorithm>
#include <utility>

#include "serve/byteio.h"
#include "util/error.h"

namespace sw::net {

namespace {

using sw::serve::detail::ByteReader;
using sw::serve::detail::append_f64;
using sw::serve::detail::append_u64;

// Far beyond any realistic fleet; stops a corrupt count from driving a
// huge allocation before the first advert fails to parse.
constexpr std::uint64_t kMaxAdverts = 1u << 16;
constexpr std::uint64_t kMaxAdvertString = 1u << 12;

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  append_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::string read_string(ByteReader& r) {
  const std::uint64_t len = r.u64();
  SW_REQUIRE(len <= kMaxAdvertString, "implausible string length in advert");
  const auto bytes = r.take(static_cast<std::size_t>(len));
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

std::vector<std::uint8_t> encode_adverts(
    const std::vector<WorkerAdvert>& adverts) {
  std::vector<std::uint8_t> out;
  append_u64(out, adverts.size());
  for (const WorkerAdvert& a : adverts) {
    append_string(out, a.endpoint);
    append_string(out, a.kernel);
    append_string(out, a.precision);
    append_f64(out, a.words_per_second);
  }
  return out;
}

std::vector<WorkerAdvert> decode_adverts(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint64_t count = r.u64();
  SW_REQUIRE(count <= kMaxAdverts, "implausible advert count");
  std::vector<WorkerAdvert> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    WorkerAdvert a;
    a.endpoint = read_string(r);
    a.kernel = read_string(r);
    a.precision = read_string(r);
    a.words_per_second = r.f64();
    SW_REQUIRE(!a.endpoint.empty(), "advert with an empty endpoint");
    out.push_back(std::move(a));
  }
  SW_REQUIRE(r.remaining() == 0, "trailing bytes after advert list");
  return out;
}

RegistryServer::RegistryServer(const Endpoint& endpoint,
                               RegistryOptions options)
    : options_(options), listener_(endpoint) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

RegistryServer::~RegistryServer() { stop(); }

void RegistryServer::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
    }
    std::optional<Connection> conn;
    try {
      conn = listener_.accept(options_.poll_tick);
    } catch (const std::exception&) {
      continue;  // transient accept failure; the tick bounds the retry rate
    }
    if (!conn) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    threads_.emplace_back(
        [this, c = std::move(*conn)]() mutable { serve_connection(std::move(c)); });
  }
}

void RegistryServer::serve_connection(Connection connection) {
  // One request/reply per exchange until the peer closes; a malformed
  // message drops the connection (the stream is unsynchronised after it).
  try {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) return;
      }
      if (!connection.wait_readable(options_.poll_tick)) continue;
      auto message = recv_message(connection, options_.io_timeout);
      if (!message) return;  // orderly close
      switch (message->kind) {
        case MessageKind::kRegister: {
          auto adverts = decode_adverts(message->payload);
          SW_REQUIRE(adverts.size() == 1,
                     "kRegister must carry exactly one advert");
          {
            // Key copied out first: assignment evaluates the right side
            // before the subscript, so moving the advert in the same
            // expression would index on a moved-out (empty) endpoint.
            const std::string key = adverts[0].endpoint;
            std::lock_guard<std::mutex> lock(mutex_);
            entries_[key] =
                Entry{std::move(adverts[0]), std::chrono::steady_clock::now()};
            ++upserts_;
          }
          Message ack;
          ack.kind = MessageKind::kRegister;
          ack.tag = message->tag;
          send_message(connection, ack, options_.io_timeout);
          break;
        }
        case MessageKind::kRegistryRequest: {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++registry_requests_;
          }
          Message reply;
          reply.kind = MessageKind::kRegistryResponse;
          reply.tag = message->tag;
          reply.payload = encode_adverts(snapshot());
          send_message(connection, reply, options_.io_timeout);
          break;
        }
        case MessageKind::kMetricsRequest: {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++metrics_requests_;
          }
          Message reply = make_text_message(MessageKind::kMetricsResponse,
                                            metrics_text());
          reply.tag = message->tag;
          send_message(connection, reply, options_.io_timeout);
          break;
        }
        case MessageKind::kShutdown: {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_requested_ = true;
          }
          shutdown_cv_.notify_all();
          return;
        }
        default:
          send_message(connection,
                       make_error_message(ErrorCode::kBadRequest,
                                          "unsupported registry message",
                                          message->tag),
                       options_.io_timeout);
          break;
      }
    }
  } catch (const std::exception&) {
    // Peer misbehaviour must not take the registry down.
  }
}

std::vector<WorkerAdvert> RegistryServer::snapshot() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<WorkerAdvert> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (now - it->second.last_seen > options_.ttl) {
      it = entries_.erase(it);
      ++expirations_;
    } else {
      out.push_back(it->second.advert);
      ++it;
    }
  }
  return out;
}

RegistryCounters RegistryServer::counters() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  double oldest_s = 0.0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto age = now - it->second.last_seen;
    if (age > options_.ttl) {
      it = entries_.erase(it);
      ++expirations_;
    } else {
      oldest_s = std::max(
          oldest_s, std::chrono::duration<double>(age).count());
      ++it;
    }
  }
  RegistryCounters c;
  c.upserts = upserts_;
  c.expirations = expirations_;
  c.registry_requests = registry_requests_;
  c.metrics_requests = metrics_requests_;
  c.live_adverts = entries_.size();
  c.oldest_advert_age_s = oldest_s;
  return c;
}

std::string RegistryServer::metrics_text() {
  return render_registry_metrics(counters());
}

bool RegistryServer::wait_shutdown(std::chrono::milliseconds max_wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto done = [this] { return shutdown_requested_ || stopping_; };
  if (max_wait <= std::chrono::milliseconds(0)) {
    shutdown_cv_.wait(lock, done);
  } else {
    shutdown_cv_.wait_for(lock, max_wait, done);
  }
  return shutdown_requested_;
}

void RegistryServer::stop() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    threads.swap(threads_);
  }
  shutdown_cv_.notify_all();
  // The accept loop sees stopping_ within one poll_tick. Join it before
  // closing the listener, so the close never races its accept() on the
  // descriptor.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void register_worker(const Endpoint& registry, const WorkerAdvert& advert,
                     std::chrono::milliseconds timeout) {
  Connection conn = Connection::connect(registry, timeout);
  Message m;
  m.kind = MessageKind::kRegister;
  m.payload = encode_adverts({advert});
  send_message(conn, m, timeout);
  const auto reply = recv_message(conn, timeout);
  SW_REQUIRE(reply.has_value(), "registry closed before acking a register");
  if (reply->kind == MessageKind::kError) {
    const ErrorInfo info = decode_error_message(*reply);
    throw RemoteError(info.code, "registry rejected register: " + info.text);
  }
  SW_REQUIRE(reply->kind == MessageKind::kRegister,
             "unexpected reply to a register message");
}

std::vector<WorkerAdvert> fetch_registry(const Endpoint& registry,
                                         std::chrono::milliseconds timeout) {
  Connection conn = Connection::connect(registry, timeout);
  Message m;
  m.kind = MessageKind::kRegistryRequest;
  send_message(conn, m, timeout);
  const auto reply = recv_message(conn, timeout);
  SW_REQUIRE(reply.has_value(),
             "registry closed before answering a snapshot request");
  if (reply->kind == MessageKind::kError) {
    const ErrorInfo info = decode_error_message(*reply);
    throw RemoteError(info.code, "registry rejected snapshot: " + info.text);
  }
  SW_REQUIRE(reply->kind == MessageKind::kRegistryResponse,
             "unexpected reply to a registry request");
  return decode_adverts(reply->payload);
}

}  // namespace sw::net
