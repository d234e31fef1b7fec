#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <variant>

#include "util/error.h"
#include "wavesim/kernels/kernel.h"

namespace sw::serve {

namespace {

/// Seconds covered by an open-and-closed span slot (0 for kNoSlot, so a
/// truncated trace degrades to missing histogram samples, not UB).
double span_seconds(const sw::obs::TraceContext& trace, std::size_t slot) {
  if (slot >= sw::obs::TraceContext::kMaxSpans) return 0.0;
  const sw::obs::Span& s = trace.span(slot);
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

/// One line per process, like the kernel choice itself. Resolving the
/// kernel here makes a bad SW_EVAL_KERNEL fail the service's constructor
/// rather than its first request.
void log_kernel_once() {
  [[maybe_unused]] static const bool logged = [] {
    const std::string_view name = sw::wavesim::active_kernel_name();
    std::fprintf(stderr, "[sw::serve] evaluation kernel: %.*s\n",
                 static_cast<int>(name.size()), name.data());
    return true;
  }();
}

/// Whether `num_words` words of `program` cost the kernels at most
/// kMaxInlineWork (EvalProgram::kernel_work).
bool small_enough_to_inline(const sw::wavesim::EvalProgram& program,
                            std::size_t num_words) {
  return program.kernel_work(num_words) <= EvaluatorService::kMaxInlineWork;
}

/// Each detector of `gate` reads at least its channel's num_inputs slots,
/// and build_diagram refuses a detector reading more than kMaxTableMuxes,
/// so a wider gate can never be tabulated: refused before any work.
void require_tabulable(const sw::core::GateSpec& gate) {
  SW_REQUIRE(gate.num_inputs <= sw::wavesim::kMaxTableMuxes,
             "a gate of " + std::to_string(gate.num_inputs) +
                 " inputs per channel has detectors reading more slots "
                 "than kMaxTableMuxes = " +
                 std::to_string(sw::wavesim::kMaxTableMuxes) +
                 ", so it cannot be tabulated");
}

}  // namespace

struct EvaluatorService::Request {
  std::uint64_t id = 0;
  std::size_t num_words = 0;
  std::size_t num_channels = 0;
  std::chrono::steady_clock::time_point submitted_at;
  /// Resolved on the submit fast path; when null the worker consults the
  /// cache with the copied target (and builds the entry on a cold miss).
  PlanCache::ProgramPtr program;
  std::variant<sw::core::GateLayout, GateTarget, sw::wavesim::ProgramSpec>
      target;
  /// The input slot columns (EvalRequest::columns).
  std::vector<std::uint64_t> columns;
  /// Phase spans, seeded by the transport (wire decode) and grown here.
  sw::obs::TraceContext trace;
  bool defer_trace = false;
  /// Queue-wait span opened at post, closed when a worker picks it up.
  std::size_t queue_slot = sw::obs::TraceContext::kNoSlot;
  /// Exactly one of the two delivery channels is armed: submit() requests
  /// settle `promise`, submit_async() requests invoke `done`.
  std::promise<ResultBatch> promise;
  CompletionFn done;
};

EvaluatorService::EvaluatorService(const sw::disp::DispersionModel& model,
                                   double alpha, ServiceOptions options)
    : options_(std::move(options)),
      engine_(model, alpha),
      designer_(model),
      cache_(engine_, options_.plan_cache_capacity, &designer_),
      admission_(options_.admission),
      trace_recorder_(options_.trace_capacity),
      pool_(options_.num_threads, /*always_spawn=*/true) {
  log_kernel_once();
}

EvaluatorService::~EvaluatorService() {
  // Wake blocked submitters before the pool destructor drains the queue;
  // requests already admitted still run to completion.
  admission_.close();
}

void EvaluatorService::post_request(EvalRequest&& source,
                                    std::unique_ptr<Request> request,
                                    bool may_run_inline) {
  const int targets = (source.layout != nullptr) + (source.spec != nullptr) +
                      (source.program != nullptr);
  SW_REQUIRE(targets == 1 && (source.spec != nullptr) ==
                                 (source.designer != nullptr),
             "EvalRequest must bind exactly one of layout, spec (with a "
             "designer) or program");
  std::size_t slots = 0;
  const sw::core::GateSpec* gate =
      source.layout != nullptr ? &source.layout->spec : source.spec;
  if (gate != nullptr) {
    require_tabulable(*gate);
    slots = gate->frequencies.size() * gate->num_inputs;
    request->num_channels = gate->frequencies.size();
  } else {
    // Validate the spec up front so a malformed program fails on the
    // submitting thread (a typed error), not inside a worker.
    source.program->validate();
    for (const auto& stage : source.program->stages) {
      require_tabulable(stage.gate);
    }
    slots = source.program->primary_slot_count();
    request->num_channels = source.program->num_channels();
  }
  const std::size_t num_words = source.num_words;
  SW_REQUIRE(slots > 0, "request target has no input slots");
  // The shape fails synchronously here, before admission charges the word
  // count. column_words without the wrap of num_words + 63, so a
  // near-SIZE_MAX count cannot pass as a small one.
  const std::size_t col_words = num_words / 64 + (num_words % 64 != 0);
  SW_REQUIRE(col_words <= std::numeric_limits<std::size_t>::max() / slots &&
                 source.columns.size() == slots * col_words,
             "request columns must be slot_count x column_words(num_words)");

  request->num_words = num_words;
  request->submitted_at = std::chrono::steady_clock::now();
  request->columns = std::move(source.columns);
  request->trace = std::move(source.trace);
  request->defer_trace = source.defer_trace_record;

  const std::size_t admit_slot =
      request->trace.begin(sw::obs::Phase::kAdmission);
  admission_.admit(num_words);  // may block or throw OverloadError
  request->trace.end(admit_slot);
  admission_wait_hist_.record(span_seconds(request->trace, admit_slot));
  batch_words_hist_.record(static_cast<double>(num_words));
  // Resolve the cache entry only once admitted: a shed request must not
  // touch hit counters or LRU recency (and must not pay the hash).
  const std::size_t lookup_slot =
      request->trace.begin(sw::obs::Phase::kPlanLookup);
  if (source.layout != nullptr) {
    request->program = cache_.try_get(*source.layout);
    if (!request->program) request->target = *source.layout;
  } else if (source.spec != nullptr) {
    request->program = cache_.try_get(*source.spec, source.layout_hash);
    if (!request->program) {
      request->target =
          GateTarget{*source.spec, source.layout_hash, *source.designer};
    }
  } else {
    request->program = cache_.try_get(*source.program);
    if (!request->program) request->target = *source.program;
  }
  request->trace.end(lookup_slot);
  request->id = next_id_.fetch_add(1);
  request->trace.id = request->id;
  request->queue_slot = request->trace.begin(sw::obs::Phase::kQueue);
  if (may_run_inline && request->program &&
      small_enough_to_inline(*request->program, num_words)) {
    process(request.release());  // its queue span closes at ~0
    return;
  }
  // Hand the queue a raw pointer: the two-word closure stays within
  // std::function's small-buffer optimisation (no allocation per post),
  // and process() reclaims ownership immediately.
  Request* raw = request.release();
  try {
    pool_.post([this, raw] { process(raw); });
  } catch (...) {
    admission_.mark_dequeued();
    admission_.release(raw->num_words);
    delete raw;
    throw;
  }
}

std::future<ResultBatch> EvaluatorService::submit(EvalRequest request) {
  auto state = std::make_unique<Request>();
  auto future = state->promise.get_future();
  // Never inline: callers pipeline futures and rely on the pool's
  // parallelism.
  post_request(std::move(request), std::move(state), /*may_run_inline=*/false);
  return future;
}

void EvaluatorService::submit_async(EvalRequest request, CompletionFn done) {
  SW_REQUIRE(done != nullptr, "submit_async requires a completion callback");
  auto state = std::make_unique<Request>();
  state->done = std::move(done);
  post_request(std::move(request), std::move(state), /*may_run_inline=*/true);
}

void EvaluatorService::process(Request* raw) {
  const std::unique_ptr<Request> request(raw);
  admission_.mark_dequeued();
  request->trace.end(request->queue_slot);
  queue_wait_hist_.record(span_seconds(request->trace, request->queue_slot));
  ResultBatch out;
  std::exception_ptr error;
  try {
    if (options_.on_request_start) options_.on_request_start(request->id);
    out.request_id = request->id;
    out.num_words = request->num_words;
    out.num_channels = request->num_channels;
    PlanCache::ProgramPtr program = request->program;
    out.cache_hit = program != nullptr;
    if (!program) {
      const std::uint64_t build_start = sw::obs::now_ns();
      PlanCache::Lookup lookup = std::visit(
          [&](const auto& target) { return cache_.get_or_build(target); },
          request->target);
      program = std::move(lookup.program);
      out.cache_hit = lookup.hit;
      if (!lookup.hit) {
        request->trace.add(sw::obs::Phase::kPlanBuild, build_start,
                           sw::obs::now_ns());
      }
    }
    out.num_stages = program->num_stages();
    out.depth = program->depth();
    const std::size_t kernel_slot =
        request->trace.begin(sw::obs::Phase::kKernel);
    sw::wavesim::StageTimings timings(program->num_stages());
    const sw::wavesim::kernels::Kernel& kernel =
        sw::wavesim::kernels::active_kernel();
    out.columns = program->evaluate_columns(
        request->num_words, request->columns, kernel, &timings);
    if (!request->done) {
      // submit()'s edge: the caller gets rows.
      out.bits.resize(out.num_words * out.num_channels);
      kernel.to_rows(out.columns.data(),
                     sw::wavesim::kernels::column_words(out.num_words),
                     out.num_words, out.num_channels, out.bits.data(),
                     out.num_channels);
      out.columns = {};
    }
    request->trace.end(kernel_slot);
    kernel_exec_hist_.record(span_seconds(request->trace, kernel_slot));
    // Synthesize per-stage child spans laid out sequentially inside the
    // kernel span. Stage times are accumulated across blocks, so these are
    // proportional shares, not wall intervals — which is exactly the
    // "where did the kernel time go" readout.
    if (kernel_slot != sw::obs::TraceContext::kNoSlot) {
      std::uint64_t cursor = request->trace.span(kernel_slot).start_ns;
      for (std::size_t s = 0; s < timings.ns.size(); ++s) {
        const std::uint64_t d = timings.ns[s];
        request->trace.add(sw::obs::Phase::kStage, cursor, cursor + d,
                           static_cast<std::uint32_t>(s));
        cursor += d;
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  // Settle the accounting before the promise: a caller returning from
  // future.get() observes stats that already include this request.
  admission_.release(request->num_words);
  // Latency covers submit to settle — queue wait included, because that is
  // what a caller waiting on the future experiences — and is recorded for
  // failures too (an erroring request still occupied the service). This
  // record is also what counts the request as completed.
  request_latency_hist_.record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    request->submitted_at)
          .count());
  // The trace settles with the request: recorded here for direct callers,
  // handed back through ResultBatch for transports that append their own
  // wire/write spans first (defer_trace_record).
  if (!request->defer_trace) trace_recorder_.record(request->trace);
  out.trace = std::move(request->trace);
  if (request->done) {
    // Callback delivery: the request has settled either way, so a throwing
    // callback has nothing left to corrupt — swallow it rather than
    // terminate the worker.
    try {
      request->done(std::move(out), error);
    } catch (...) {
    }
  } else if (error) {
    request->promise.set_exception(error);
  } else {
    request->promise.set_value(std::move(out));
  }
}

ServiceStats EvaluatorService::stats() const {
  ServiceStats s;
  // Completed before submitted: a request takes its id before it records
  // its latency, so this snapshot never reads more completed than
  // submitted.
  s.request_latency = request_latency_hist_.snapshot();
  s.completed = s.request_latency.count;
  s.submitted = next_id_.load() - 1;
  s.shed = admission_.shed_total();
  s.blocked = admission_.blocked_total();
  s.queued_requests = admission_.queued();
  s.inflight_words = admission_.inflight_words();
  s.kernel = std::string(sw::wavesim::active_kernel_name());
  s.cache = cache_.stats();
  s.admission_wait = admission_wait_hist_.snapshot();
  s.queue_wait = queue_wait_hist_.snapshot();
  s.kernel_exec = kernel_exec_hist_.snapshot();
  s.batch_words = batch_words_hist_.snapshot();
  return s;
}

}  // namespace sw::serve
