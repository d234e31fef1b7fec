// Long-lived evaluator service: the traffic-serving front end over the
// batch-evaluation subsystem.
//
// The service holds one representation of a batch: bit-sliced columns. A
// request's input is its primary slot columns and its result the last
// stage's channel columns, evaluated by EvalProgram::evaluate_columns.
// Rows exist only at the in-process edges (EvalRequest::for_layout /
// for_program convert a caller's rows once; submit() returns rows in
// ResultBatch::bits), while submit_async hands back the columns, which the
// wire server packs straight into its reply.
//
// One EvaluatorService owns the WaveEngine, a designer, a plan cache and a
// worker pool, and accepts interleaved packed-word batches against
// *arbitrary* targets — single gate layouts or multi-stage ProgramSpecs —
// through one request type (serve::EvalRequest) and one submit pair:
// submit() is asynchronous (returns a std::future), submit_async() calls
// back. Admission control bounds the request queue and the words in flight
// (shed or block, caller-visible). Every target becomes one cached
// wavesim::EvalProgram — a gate is its one-stage case — in one LRU keyed by
// the canonical target hash, and every request runs the same evaluation
// path: the steady-state cost of a repeated target is just the packed-bit
// evaluation, not plan or program reconstruction. The submit fast path
// resolves a cached entry without copying the target; a miss hands a copy
// of the target to a worker, where construction is serialised per key
// behind the cache entry.
//
// submit_async runs a request on the calling thread instead of the pool
// when its program is already cached and its kernel work is at most
// kMaxInlineWork: a small warm request then costs about its kernel, with
// no queue hop, no worker handoff and no cross-thread completion. Cold
// targets and large batches, and everything submit() takes, go to the
// pool. Either way a request passes the same admission, accounting,
// hooks and trace.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/gate_design.h"
#include "dispersion/model.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/eval_request.h"
#include "serve/latency.h"
#include "serve/plan_cache.h"
#include "util/thread_pool.h"
#include "wavesim/wave_engine.h"

namespace sw::serve {

struct ServiceOptions {
  /// Worker threads consuming the request queue; 0 selects
  /// std::thread::hardware_concurrency(). At least one dedicated worker is
  /// always spawned so submission stays asynchronous on one-core hosts.
  std::size_t num_threads = 0;
  /// Plan-cache capacity in distinct (target, precision) entries;
  /// 0 = unbounded.
  std::size_t plan_cache_capacity = 32;
  /// Options for the cached EvalPrograms. The default single inline
  /// thread makes each evaluation run entirely on the thread that
  /// evaluates the request: the service worker that picked it up, or the
  /// submit_async caller for a request run inline (parallelism comes from
  /// concurrent requests); raise it only for few-but-huge-batch workloads.
  sw::wavesim::BatchOptions evaluator_options{.num_threads = 1};
  AdmissionOptions admission;
  /// Observability hook: called right after a request leaves the queue,
  /// before its evaluation starts, on the thread that evaluates it — a
  /// service worker, or the submitter for a request submit_async runs
  /// inline. Useful for metrics and tracing; tests use it to hold
  /// evaluations in place deterministically.
  std::function<void(std::uint64_t request_id)> on_request_start;
  /// Completion hook: called on the thread that evaluated the request (as
  /// for on_request_start) once it has fully settled (accounting
  /// released, success or failure alike), with its submit-to-completion
  /// latency. The same latency feeds the built-in percentile reservoir
  /// whether or not a hook is installed.
  std::function<void(std::uint64_t request_id, double latency_seconds)>
      on_request_finish;
  /// Window of recent request latencies backing ServiceStats::latency
  /// (p50/p95/p99 over the most recent `latency_window` requests).
  std::size_t latency_window = 1024;
  /// Settled traces kept in the service's TraceRecorder ring (what the
  /// trace endpoint answers with).
  std::size_t trace_capacity = 256;
  /// Any settled request whose trace spans cover at least this many
  /// seconds logs a per-phase breakdown to stderr; <= 0 disables.
  double slow_request_threshold_s = 0.0;
};

/// Decoded output of one request, plus serving metadata. The bits are the
/// last stage's channel columns from submit_async, and the row-major
/// num_words x num_channels matrix (the evaluate_bits shape) from submit().
struct ResultBatch {
  std::uint64_t request_id = 0;
  std::size_t num_words = 0;
  std::size_t num_channels = 0;
  bool cache_hit = false;  ///< program came from the cache (no build)
  /// Evaluation stages behind these bits, from the evaluated program: 1 for
  /// a single-gate layout, the cascade length for a ProgramSpec (whose bits
  /// are the LAST stage's).
  std::size_t num_stages = 1;
  /// Longest stage-to-stage path of the evaluated program (1 for a gate):
  /// the physical cascade latency in stages.
  std::size_t depth = 1;
  /// The request's phase spans (admission, plan lookup/build, queue,
  /// kernel, per-stage), settled. Already recorded into the service's
  /// TraceRecorder unless the request set defer_trace_record.
  sw::obs::TraceContext trace;
  /// submit(): row-major num_words x num_channels bits (0/1). Empty from
  /// submit_async.
  std::vector<std::uint8_t> bits;
  /// submit_async: num_channels columns of kernels::column_words(num_words)
  /// u64s, channel ch's at ch * column_words(num_words), zero past
  /// num_words. Empty from submit().
  std::vector<std::uint64_t> columns;

  std::uint8_t bit(std::size_t word, std::size_t channel) const {
    return bits[word * num_channels + channel];
  }
};

struct ServiceStats {
  std::uint64_t submitted = 0;  ///< requests admitted and enqueued
  std::uint64_t completed = 0;  ///< requests finished (including failures)
  std::uint64_t shed = 0;       ///< submissions rejected with OverloadError
  std::uint64_t blocked = 0;    ///< submissions that had to wait (kBlock)
  std::size_t queued_requests = 0;  ///< admitted, not yet picked up
  std::size_t inflight_words = 0;   ///< admitted, not yet completed
  /// Evaluation kernel every evaluate_bits dispatches to ("scalar" |
  /// "avx2" | "avx512"; see sw::wavesim::active_kernel_name()).
  std::string kernel;
  /// Requested evaluation precision of this service's plans ("f64" |
  /// "f32"; ServiceOptions::evaluator_options.precision with kAuto
  /// resolved). An f32 service can still serve double or block-f32 plans
  /// per layout: cache.f32_fallbacks counts full margin-aware fallbacks,
  /// cache.block_plans the per-detector mixes, and cache.f32_detectors /
  /// cache.f64_rescue_detectors the detector-granularity split — so
  /// precision == "f32" with f64_rescue_detectors > 0 reads "asked for
  /// f32, some detectors were rescued to f64 lanes".
  std::string precision;
  /// Submit-to-completion latency percentiles over the recent-request
  /// window (ServiceOptions::latency_window); the metrics endpoint and the
  /// serving benches read these.
  LatencySummary latency;
  PlanCacheStats cache;
  /// Since-start distributions (log-bucketed, Prometheus-renderable):
  /// submit-to-settle latency, admission wait, queue wait, kernel
  /// execution — all seconds — plus the admitted batch sizes in words.
  sw::obs::HistogramSnapshot request_latency;
  sw::obs::HistogramSnapshot admission_wait;
  sw::obs::HistogramSnapshot queue_wait;
  sw::obs::HistogramSnapshot kernel_exec;
  sw::obs::HistogramSnapshot batch_words;
};

class EvaluatorService {
 public:
  /// Completion callback of submit_async: exactly one of result/error is
  /// meaningful — `error` is null on success. Runs on the thread that
  /// evaluated the request (a worker, or the submitter when it ran
  /// inline), after the request has fully settled (accounting released,
  /// stats updated), so the callback may safely re-submit or inspect
  /// stats().
  using CompletionFn =
      std::function<void(ResultBatch&& result, std::exception_ptr error)>;

  /// Largest kernel work submit_async runs on the calling thread, in
  /// contribution-words: num_words x the program's phasor contributions
  /// per word (EvalPlan::num_contributions(), summed over its stages).
  /// An inline kernel runs on the submitter, which in EvalServer is the
  /// event thread, the serial stage. So the bound is set against that
  /// thread's CPU: the pool hop an inline request skips (queue post and
  /// wake, completion drain) cost it ~5-7 us per request on a 4-vCPU
  /// AVX-512 VM. The column kernels cost ~0.17 ns per contribution-word
  /// there (AVX-512, f64, 341 words of the 3-input gate, edges included),
  /// so this bound is a ~1.4 us kernel and the hop would only match the
  /// kernel at ~30-40k; the bound stays until a mid-size workload can
  /// retune it. The benchmark covers only the two ends: a 24-word request
  /// on an 8-channel 3..7-input gate (576..1344) runs inline, and a 4096-word
  /// shard on the 3-input one (98,304) stays pooled. In between, only
  /// one-off runs with larger requests checked it: inline gave 1.4x the
  /// pooled words/s at 4.6k..10.8k, and about the same at 9.2k..21.5k.
  static constexpr std::size_t kMaxInlineWork = 8192;

  /// Layout targets arrive designed (e.g. by InlineGateDesigner against the
  /// same model); ProgramSpec stages are designed by designer(). `model`
  /// must outlive the service; `alpha` is the Gilbert damping for the owned
  /// WaveEngine. Resolves (and logs to stderr, once per process) the
  /// evaluation kernel and precision requests will run on, so an invalid
  /// SW_EVAL_KERNEL or SW_EVAL_PRECISION override fails here rather than
  /// inside the first request.
  EvaluatorService(const sw::disp::DispersionModel& model, double alpha,
                   ServiceOptions options = {});

  /// Drains every pending request (their futures all complete), then joins
  /// the workers. Blocked submitters on other threads are woken with an
  /// error.
  ~EvaluatorService();

  EvaluatorService(const EvaluatorService&) = delete;
  EvaluatorService& operator=(const EvaluatorService&) = delete;

  /// Submit one EvalRequest (layout- or program-bound, see eval_request.h).
  /// Returns a future carrying the decoded bits as rows (ResultBatch::bits)
  /// — for a program, the LAST stage's — with stage-count/depth metadata;
  /// evaluation errors surface through the future. Throws OverloadError
  /// (kShed) or blocks (kBlock)
  /// per the admission policy, and throws sw::util::Error on a shape
  /// mismatch or a request binding neither (or both) targets.
  std::future<ResultBatch> submit(EvalRequest request);

  /// Callback-style submit for event-driven callers (the epoll serving
  /// core) that must not park a thread in future.get(): same admission,
  /// plan-cache and accounting path as submit(), but completion is
  /// delivered by invoking `done`, with the result as channel columns
  /// (ResultBatch::columns; no row conversion). A request whose program is
  /// already cached and whose kernel work is at most kMaxInlineWork is
  /// evaluated on the calling thread, and `done` runs there before
  /// submit_async returns; any other request goes to the pool and `done`
  /// runs on the worker that evaluated it. Admission failures
  /// (OverloadError, a shape error) still throw to the caller, and `done`
  /// is then never called.
  /// Exceptions thrown by `done` itself are swallowed (the request has
  /// already settled).
  void submit_async(EvalRequest request, CompletionFn done);

  ServiceStats stats() const;
  const sw::wavesim::WaveEngine& engine() const { return engine_; }
  /// The designer backing program builds (shared with the plan cache).
  const sw::core::InlineGateDesigner& designer() const { return designer_; }
  std::size_t num_threads() const { return pool_.size(); }

  /// The ring of settled request traces: the trace endpoint snapshots it,
  /// transports that defer recording (see EvalRequest::defer_trace_record)
  /// record into it after appending their own spans.
  sw::obs::TraceRecorder& trace_recorder() { return trace_recorder_; }
  const sw::obs::TraceRecorder& trace_recorder() const {
    return trace_recorder_;
  }

 private:
  struct Request;
  /// Admit and look up `request`, then evaluate it: on this thread when
  /// `may_run_inline` and its program is cached and small, else on the
  /// pool.
  void post_request(EvalRequest&& source, std::unique_ptr<Request> request,
                    bool may_run_inline);
  void process(Request* request);  // takes ownership

  ServiceOptions options_;
  sw::wavesim::WaveEngine engine_;
  sw::core::InlineGateDesigner designer_;
  PlanCache cache_;
  AdmissionController admission_;
  LatencyReservoir latency_;
  sw::obs::TraceRecorder trace_recorder_;
  sw::obs::Histogram request_latency_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram admission_wait_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram queue_wait_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram kernel_exec_hist_ = sw::obs::Histogram::for_seconds();
  sw::obs::Histogram batch_words_hist_ = sw::obs::Histogram::for_words();

  mutable std::mutex stats_mutex_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;

  // Declared last: its destructor runs first and drains the queued
  // requests while every member they touch is still alive.
  sw::util::ThreadPool pool_;
};

}  // namespace sw::serve
