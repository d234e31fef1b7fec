// Plain-text metrics rendering for the networked serving subsystem.
//
// The metrics endpoint answers a kMetricsRequest message with one text
// document in the Prometheus exposition style — `name value` lines,
// histograms as `_bucket`/`_sum`/`_count` families, identity as one
// labelled `…_info{…} 1` series — because that is what every scraper and
// human `nc`-debugging a stalled worker already reads. Each quantity has
// one series: request latency is the request_latency histogram only, and
// the kernel and precision are labels of sw_serve_kernel_info only.
// Rendering is split from the server so the serving benches and tests can
// format a ServiceStats snapshot without standing up a socket.
#pragma once

#include <string>

#include "serve/service.h"

namespace sw::net {

/// Per-server transport counters, appended below the service section.
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  ///< over max_connections
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t overloads = 0;
  std::uint64_t metrics_requests = 0;
  std::uint64_t trace_requests = 0;
  /// Times a connection's reads were paused because its in-flight count
  /// hit the pipelining cap (back-pressure, not shedding).
  std::uint64_t backpressure_pauses = 0;
  /// Payload volume actually moved on the sockets, both directions —
  /// frames tell you how many, these tell you how much.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::size_t active_connections = 0;
};

/// Registry-health counters, rendered by the RegistryServer's own metrics
/// endpoint (sw_registry_* lines).
struct RegistryCounters {
  std::uint64_t upserts = 0;      ///< registrations + heartbeats applied
  std::uint64_t expirations = 0;  ///< adverts pruned past their TTL
  std::uint64_t registry_requests = 0;
  std::uint64_t metrics_requests = 0;
  std::size_t live_adverts = 0;
  /// Age of the stalest live advert (0 when none): the registry-health
  /// early warning — it approaches the TTL right before an expiration.
  double oldest_advert_age_s = 0.0;
};

/// Render the service section: request and plan-cache gauges, the
/// request-phase histograms (`sw_serve_*_seconds` / `sw_serve_batch_words`
/// in Prometheus `_bucket`/`_sum`/`_count` form) and the
/// `sw_serve_kernel_info{kernel,precision}` identity series.
std::string render_service_metrics(const sw::serve::ServiceStats& stats);

/// Render the transport section (sw_net_* lines).
std::string render_server_metrics(const ServerCounters& counters);

/// Render the registry section (sw_registry_* lines).
std::string render_registry_metrics(const RegistryCounters& counters);

}  // namespace sw::net
