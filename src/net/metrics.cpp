#include "net/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "obs/histogram.h"
#include "wavesim/precision.h"

namespace sw::net {

namespace {

void line_u64(std::string& out, const char* name, std::uint64_t value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name, value);
  out += buf;
}

void line_f64(std::string& out, const char* name, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %.9g\n", name, value);
  out += buf;
}

}  // namespace

std::string render_service_metrics(const sw::serve::ServiceStats& stats) {
  std::string out;
  out.reserve(1024);
  line_u64(out, "sw_serve_requests_submitted", stats.submitted);
  line_u64(out, "sw_serve_requests_completed", stats.completed);
  line_u64(out, "sw_serve_requests_shed", stats.shed);
  line_u64(out, "sw_serve_requests_blocked", stats.blocked);
  line_u64(out, "sw_serve_queued_requests", stats.queued_requests);
  line_u64(out, "sw_serve_inflight_words", stats.inflight_words);
  line_u64(out, "sw_serve_plan_cache_hits", stats.cache.hits);
  line_u64(out, "sw_serve_plan_cache_misses", stats.cache.misses);
  line_u64(out, "sw_serve_plan_cache_evictions", stats.cache.evictions);
  // Every built detector decodes from its table.
  line_u64(out, "sw_serve_plan_cache_detectors{decode=\"table\"}",
           stats.cache.table_detectors);
  // The phase histograms: full distributions a scraper can rate(),
  // aggregate and read percentiles from.
  sw::obs::append_histogram(out, "sw_serve_request_latency_seconds",
                            stats.request_latency);
  sw::obs::append_histogram(out, "sw_serve_admission_wait_seconds",
                            stats.admission_wait);
  sw::obs::append_histogram(out, "sw_serve_queue_wait_seconds",
                            stats.queue_wait);
  sw::obs::append_histogram(out, "sw_serve_kernel_exec_seconds",
                            stats.kernel_exec);
  sw::obs::append_histogram(out, "sw_serve_batch_words", stats.batch_words);
  // The one identity series carries its values in labels, Prometheus-style,
  // so the set of metric names stays fixed across hosts and configurations.
  // The precision label is the one every plan runs at.
  out += "sw_serve_kernel_info{kernel=\"" + stats.kernel + "\",precision=\"";
  out += sw::wavesim::precision_name(sw::wavesim::active_precision());
  out += "\"} 1\n";
  return out;
}

std::string render_server_metrics(const ServerCounters& counters) {
  std::string out;
  out.reserve(256);
  line_u64(out, "sw_net_connections_accepted",
           counters.connections_accepted);
  line_u64(out, "sw_net_connections_refused", counters.connections_refused);
  line_u64(out, "sw_net_connections_active", counters.active_connections);
  line_u64(out, "sw_net_frames_received", counters.frames_received);
  line_u64(out, "sw_net_responses_sent", counters.responses_sent);
  line_u64(out, "sw_net_errors_sent", counters.errors_sent);
  line_u64(out, "sw_net_overloads", counters.overloads);
  line_u64(out, "sw_net_metrics_requests", counters.metrics_requests);
  line_u64(out, "sw_net_trace_requests", counters.trace_requests);
  line_u64(out, "sw_net_backpressure_pauses", counters.backpressure_pauses);
  line_u64(out, "sw_net_rx_bytes_total", counters.bytes_read);
  line_u64(out, "sw_net_tx_bytes_total", counters.bytes_written);
  return out;
}

std::string render_registry_metrics(const RegistryCounters& counters) {
  std::string out;
  out.reserve(256);
  line_u64(out, "sw_registry_upserts", counters.upserts);
  line_u64(out, "sw_registry_expirations", counters.expirations);
  line_u64(out, "sw_registry_requests", counters.registry_requests);
  line_u64(out, "sw_registry_metrics_requests", counters.metrics_requests);
  line_u64(out, "sw_registry_live_adverts", counters.live_adverts);
  line_f64(out, "sw_registry_oldest_advert_age_seconds",
           counters.oldest_advert_age_s);
  return out;
}

}  // namespace sw::net
