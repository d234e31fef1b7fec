// Serving-layer tests: canonical layout hashing (stability across designs
// and process runs), plan-cache hit/miss/eviction accounting and
// single-build-under-contention, spec targets (designed on a miss, checked
// against the claimed hash), gates too wide to tabulate refused at submit,
// program stage sharing (per GateSpec, no longer than some program holds
// it, failed designs leave no entry, concurrent builders agree),
// wire-format round trips with hostile input rejection, admission-control
// shed-vs-block semantics, and the EvaluatorService end-to-end against
// the scalar gate path, with its request counts and latency histogram
// agreeing on every submit path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "compile/lower.h"
#include "compile/synth.h"
#include "compile/truth_table.h"
#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "core/scalability.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "serve/admission.h"
#include "serve/layout_hash.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/error.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/eval_program.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::core;
using namespace sw::serve;
using sw::disp::FvmswDispersion;
using sw::disp::Waveguide;
using sw::wavesim::BatchEvaluator;
using sw::wavesim::WaveEngine;

Waveguide paper_waveguide() {
  Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

std::vector<double> channel_frequencies(std::size_t n) {
  std::vector<double> f;
  for (std::size_t i = 1; i <= n; ++i) {
    f.push_back(1e10 * static_cast<double>(i));
  }
  return f;
}

struct ServeFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  WaveEngine engine{model, wg.material.alpha};

  GateLayout majority_layout(std::size_t m, std::size_t n) const {
    GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies = channel_frequencies(n);
    return designer.design(spec);
  }
};

std::vector<std::uint8_t> random_matrix(std::size_t rows, std::size_t cols,
                                        unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::uint8_t> m(rows * cols);
  for (auto& b : m) b = coin(rng) ? 1 : 0;
  return m;
}

/// The fewest whole 64-word groups whose kernel work on `program` passes
/// kMaxInlineWork: the smallest such request goes to the pool.
std::size_t pooled_words(const sw::wavesim::EvalProgram& program) {
  std::size_t words = 64;
  while (program.kernel_work(words) <= EvaluatorService::kMaxInlineWork) {
    words += 64;
  }
  return words;
}

// --------------------------------------------------------------------------
// Layout hashing.

TEST(LayoutHash, StableAcrossIndependentDesigns) {
  const ServeFixture fix;
  const auto a = fix.majority_layout(3, 4);
  const auto b = fix.majority_layout(3, 4);
  EXPECT_EQ(canonical_layout_bytes(a), canonical_layout_bytes(b));
  EXPECT_EQ(hash_layout(a), hash_layout(b));
  EXPECT_TRUE(LayoutKey::from(a) == LayoutKey::from(b));
}

TEST(LayoutHash, SensitiveToGeometryOpsAndFrequencies) {
  const ServeFixture fix;
  const auto base = fix.majority_layout(3, 4);
  const auto h = hash_layout(base);

  EXPECT_NE(h, hash_layout(fix.majority_layout(5, 4)));  // geometry
  EXPECT_NE(h, hash_layout(fix.majority_layout(3, 5)));  // frequencies

  GateSpec inverted_spec;
  inverted_spec.num_inputs = 3;
  inverted_spec.frequencies = channel_frequencies(4);
  inverted_spec.invert_output = {1, 0, 0, 0};
  const auto inverted = fix.designer.design(inverted_spec);
  EXPECT_NE(h, hash_layout(inverted));  // ops

  auto nudged = base;
  nudged.sources[0].amplitude += 1e-12;
  EXPECT_NE(h, hash_layout(nudged));  // any field perturbs the hash
}

// The golden pin is what makes "stable across process runs" a tested
// property rather than a promise: the constant was produced by a separate
// process, so any change to the canonical serialisation or to the hash
// fold breaks this test.
TEST(LayoutHash, GoldenValuePinsCanonicalFormat) {
  GateLayout lay;
  lay.spec.num_inputs = 1;
  lay.spec.frequencies = {1.0e10};
  lay.wavelengths = {1.0e-6};
  lay.multiple = {1};
  lay.spacing = {1.0e-6};
  lay.sources = {{0, 0, 0.0, 1.0}};
  lay.detectors = {{0, 2.0e-6, false}};
  EXPECT_EQ(hash_layout(lay), 0xf733003c29d86516ull);
}

TEST(LayoutHash, ChunkedFnvRejectsLengthAliases) {
  const std::vector<std::uint8_t> one{1};
  const std::vector<std::uint8_t> one_padded{1, 0};
  const std::vector<std::uint8_t> empty;
  EXPECT_NE(chunked_fnv1a64(one), chunked_fnv1a64(one_padded));
  EXPECT_NE(chunked_fnv1a64(empty), chunked_fnv1a64({one_padded.data() + 1, 1}));
}

// --------------------------------------------------------------------------
// Plan cache.

TEST(PlanCache, HitMissEvictionCounters) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, /*capacity=*/2);
  const auto a = fix.majority_layout(3, 2);
  const auto b = fix.majority_layout(3, 3);
  const auto c = fix.majority_layout(3, 4);

  EXPECT_EQ(cache.try_get(a), nullptr);  // cold: no entry, no miss counted
  EXPECT_FALSE(cache.get_or_build(a).hit);
  EXPECT_TRUE(cache.get_or_build(a).hit);
  EXPECT_NE(cache.try_get(a), nullptr);
  EXPECT_FALSE(cache.get_or_build(b).hit);
  EXPECT_EQ(cache.size(), 2u);

  // Inserting c evicts the LRU entry, which is a (b was touched later).
  EXPECT_FALSE(cache.get_or_build(c).hit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.try_get(a), nullptr);
  EXPECT_NE(cache.try_get(b), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);  // get_or_build(a) hit + try_get a + try_get b
}

TEST(PlanCache, CachedPlanEvaluatesLikeAFreshEvaluator) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, 4);
  const auto layout = fix.majority_layout(3, 4);
  const auto program = cache.get_or_build(layout).program;
  ASSERT_NE(program, nullptr);

  const DataParallelGate gate(layout, fix.engine);
  const BatchEvaluator fresh(gate, {.num_threads = 1});
  const auto matrix = random_matrix(64, fresh.slot_count(), /*seed=*/5);
  EXPECT_EQ(program->evaluate_bits(64, matrix),
            fresh.evaluate_bits(64, matrix));
}

TEST(PlanCache, ConcurrentLookupsBuildOnce) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, 4);
  const auto layout = fix.majority_layout(3, 4);

  constexpr std::size_t kThreads = 8;
  std::vector<PlanCache::ProgramPtr> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = cache.get_or_build(layout).program;
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const auto& p : got) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, got[0]);  // one shared plan, not one per thread
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(PlanCache, FailedBuildPropagatesAndRetries) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, 4);
  auto broken = fix.majority_layout(3, 2);
  broken.sources[0].x += 1e-9;  // violates the layout invariants

  EXPECT_THROW((void)cache.get_or_build(broken), sw::util::Error);
  EXPECT_EQ(cache.size(), 0u);  // poisoned entry removed, retry possible
  EXPECT_THROW((void)cache.get_or_build(broken), sw::util::Error);
}

// The historical hazard this subsystem retires by design: many threads
// building evaluators against one shared engine (the engine memoisation is
// now mutex-guarded, and the cache serialises per-key construction).
TEST(PlanCache, ConcurrentEvaluatorConstructionOnSharedEngine) {
  const ServeFixture fix;
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::uint8_t>> results(kThreads);
  const auto patterns = all_patterns(3);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Distinct layouts force fresh engine-cache misses concurrently.
        const ServeFixture local_design;  // designer only; engine is shared
        const auto layout =
            local_design.majority_layout(3, 1 + (t % 4) + 1);
        const DataParallelGate gate(layout, fix.engine);
        const BatchEvaluator evaluator(gate, {.num_threads = 1});
        std::vector<std::uint8_t> packed(patterns.size() *
                                         evaluator.slot_count());
        for (std::size_t w = 0; w < patterns.size(); ++w) {
          for (std::size_t ch = 0; ch < layout.spec.frequencies.size();
               ++ch) {
            for (std::size_t in = 0; in < 3; ++in) {
              packed[w * evaluator.slot_count() + ch * 3 + in] =
                  patterns[w][in];
            }
          }
        }
        results[t] = evaluator.evaluate_bits(patterns.size(), packed);
      });
    }
    for (auto& th : threads) th.join();
  }
  // Cross-check every thread's decode against a serial evaluation on a
  // fresh engine.
  for (std::size_t t = 0; t < kThreads; ++t) {
    const ServeFixture serial;
    const auto layout = serial.majority_layout(3, 1 + (t % 4) + 1);
    const DataParallelGate gate(layout, serial.engine);
    for (std::size_t w = 0; w < patterns.size(); ++w) {
      const auto want = gate.evaluate_uniform(patterns[w]);
      for (const auto& r : want) {
        EXPECT_EQ(results[t][w * layout.spec.frequencies.size() + r.channel],
                  r.logic);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Wire format.

TEST(WireFormat, RequestRoundTripsBitExact) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 3);  // 9 cols: padding in play
  const auto matrix = random_matrix(17, 9, /*seed=*/3);
  const auto frame = make_request_frame(layout, /*word_offset=*/1234, 17,
                                        matrix);
  const auto decoded = decode_frame(encode_frame(frame));

  EXPECT_EQ(decoded.kind, FrameKind::kRequest);
  EXPECT_EQ(decoded.layout_hash, hash_layout(layout));
  EXPECT_EQ(decoded.word_offset, 1234u);
  EXPECT_EQ(decoded.num_words, 17u);
  EXPECT_EQ(decoded.num_cols, 9u);
  ASSERT_TRUE(decoded.spec.has_value());
  EXPECT_EQ(*decoded.spec, layout.spec);  // field-wise, doubles bit-exact
  EXPECT_EQ(decoded.matrix, matrix);
}

TEST(WireFormat, ResponseRoundTripsBitExact) {
  const auto matrix = random_matrix(9, 5, /*seed=*/11);
  SweepFrame request;
  request.layout_hash = 0xabcdef0123456789ull;
  request.word_offset = 7;
  request.num_words = 9;
  const auto frame = make_response_frame(request, /*num_channels=*/5, matrix);
  const auto decoded = decode_frame(encode_frame(frame));
  EXPECT_EQ(decoded.kind, FrameKind::kResponse);
  EXPECT_EQ(decoded.layout_hash, request.layout_hash);
  EXPECT_EQ(decoded.word_offset, 7u);
  EXPECT_FALSE(decoded.spec.has_value());
  EXPECT_EQ(decoded.matrix, matrix);
}

TEST(WireFormat, RejectsTruncationAtEveryBoundary) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto bytes = encode_frame(
      make_request_frame(layout, 0, 8, random_matrix(8, 6, /*seed=*/7)));
  // Every strict prefix must be rejected, wherever the cut lands.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{63},
        bytes.size() - 17, bytes.size() - 1}) {
    EXPECT_THROW((void)decode_frame({bytes.data(), keep}), sw::util::Error)
        << "prefix of " << keep << " bytes slipped through";
  }
}

TEST(WireFormat, RejectsTrailingGarbage) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  auto bytes = encode_frame(
      make_request_frame(layout, 0, 4, random_matrix(4, 6, /*seed=*/9)));
  bytes.push_back(0);
  EXPECT_THROW((void)decode_frame(bytes), sw::util::Error);
}

TEST(WireFormat, RejectsCorruptMagicVersionKindAndBody) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto good = encode_frame(
      make_request_frame(layout, 0, 8, random_matrix(8, 6, /*seed=*/13)));

  auto bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);

  bad = good;
  bad[4] ^= 0xFF;  // version
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);

  bad = good;
  bad[6] = 9;  // kind
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);

  bad = good;
  bad.back() ^= 0x01;  // payload bit flip -> checksum mismatch
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);

  bad = good;
  bad[70] ^= 0xFF;  // spec block flip -> checksum mismatch
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);
}

TEST(WireFormat, RejectsShapeInconsistencies) {
  // Response carrying a spec.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  auto frame = make_request_frame(layout, 0, 2, random_matrix(2, 6, 1));
  frame.kind = FrameKind::kResponse;
  EXPECT_THROW((void)encode_frame(frame), sw::util::Error);

  // Matrix not matching the declared dimensions.
  auto bad = make_request_frame(layout, 0, 2, random_matrix(2, 6, 1));
  bad.num_words = 3;
  EXPECT_THROW((void)encode_frame(bad), sw::util::Error);
}

TEST(WireFormat, FileRoundTrip) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 4);
  const auto matrix = random_matrix(32, 12, /*seed=*/21);
  const auto path = testing::TempDir() + "swlogic_wire_roundtrip.req";
  write_frame_file(path, make_request_frame(layout, 64, 32, matrix));
  const auto decoded = read_frame_file(path);
  EXPECT_EQ(decoded.matrix, matrix);
  EXPECT_EQ(decoded.layout_hash, hash_layout(layout));
  EXPECT_EQ(decoded.word_offset, 64u);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_frame_file(path), sw::util::Error);
}

// --------------------------------------------------------------------------
// Admission control.

TEST(Admission, ShedsOnQueueBudget) {
  AdmissionController adm({.max_queued_requests = 2,
                           .max_inflight_words = 0,
                           .policy = OverloadPolicy::kShed});
  adm.admit(10);
  adm.admit(10);
  EXPECT_THROW(adm.admit(10), OverloadError);
  EXPECT_EQ(adm.shed_total(), 1u);
  adm.mark_dequeued();
  adm.admit(10);  // queue slot freed
  EXPECT_EQ(adm.queued(), 2u);
  EXPECT_EQ(adm.inflight_words(), 30u);
}

TEST(Admission, ShedsOnWordBudgetButAdmitsOversizedWhenIdle) {
  AdmissionController adm({.max_queued_requests = 0,
                           .max_inflight_words = 100,
                           .policy = OverloadPolicy::kShed});
  adm.admit(1000);  // oversized but idle: must be admitted
  EXPECT_THROW(adm.admit(1), OverloadError);
  adm.mark_dequeued();
  adm.release(1000);
  adm.admit(60);
  adm.admit(40);  // exactly at the budget
  EXPECT_THROW(adm.admit(1), OverloadError);
}

TEST(Admission, BlockPolicyWaitsForCapacity) {
  AdmissionController adm({.max_queued_requests = 1,
                           .max_inflight_words = 0,
                           .policy = OverloadPolicy::kBlock});
  adm.admit(5);
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    adm.admit(5);
    admitted.store(true);
  });
  // The blocked submitter registers before it parks; once it has, freeing
  // the queue slot must let it through.
  while (adm.blocked_total() == 0) std::this_thread::yield();
  EXPECT_FALSE(admitted.load());
  adm.mark_dequeued();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(adm.queued(), 1u);
}

TEST(Admission, CloseWakesBlockedSubmitters) {
  AdmissionController adm({.max_queued_requests = 1,
                           .max_inflight_words = 0,
                           .policy = OverloadPolicy::kBlock});
  adm.admit(1);
  std::atomic<bool> threw{false};
  std::thread blocked([&] {
    try {
      adm.admit(1);
    } catch (const sw::util::Error&) {
      threw.store(true);
    }
  });
  while (adm.blocked_total() == 0) std::this_thread::yield();
  adm.close();
  blocked.join();
  EXPECT_TRUE(threw.load());
  EXPECT_THROW(adm.admit(1), sw::util::Error);
}

// --------------------------------------------------------------------------
// EvaluatorService end to end.

/// Test gate that lets a test hold the (single) service worker in place:
/// the first request to start signals `entered` and then parks until
/// open(); later requests pass straight through once opened.
struct WorkerGate {
  std::mutex m;
  std::condition_variable cv;
  bool open_flag = false;
  std::size_t entered = 0;

  std::function<void(std::uint64_t)> hook() {
    return [this](std::uint64_t) {
      std::unique_lock<std::mutex> lock(m);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [this] { return open_flag; });
    };
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return entered > 0; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(m);
    open_flag = true;
    cv.notify_all();
  }
};

TEST(EvaluatorService, MatchesScalarGateAndCachesPlans) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 4);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);

  const DataParallelGate gate(layout, fix.engine);
  const BatchEvaluator reference(gate, {.num_threads = 1});
  const auto matrix = random_matrix(96, reference.slot_count(), /*seed=*/31);

  auto first = svc.submit(EvalRequest::for_layout(layout, matrix, 96)).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.num_channels, 4u);
  EXPECT_EQ(first.bits, reference.evaluate_bits(96, matrix));

  auto second = svc.submit(EvalRequest::for_layout(layout, matrix, 96)).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.bits, first.bits);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_GE(stats.cache.hits, 1u);
  EXPECT_EQ(stats.shed, 0u);
  // The stats surface which evaluation kernel requests dispatch to, so
  // operators can tell the scalar fallback from the SIMD path.
  EXPECT_EQ(stats.kernel, std::string(sw::wavesim::active_kernel_name()));
}

TEST(EvaluatorService, ServesALayoutTooWideToTabulateByPhasorSum) {
  // Two layouts wider than 11 inputs. A designed 13-input layout is
  // tabulated: the service serves it bit-exactly from its tables, inline
  // when warm and small and pooled when large, and counts its detectors as
  // table ones. An over-budget layout (the one-channel 10 GHz gate at
  // m = 17, no graded drive levels) fails on submit and on submit_async
  // with the budget error, and the cache keeps no entry: each attempt is a
  // miss that builds nothing.
  const ServeFixture fix;
  const auto wide = fix.majority_layout(13, 2);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  const DataParallelGate gate(wide, fix.engine);
  const BatchEvaluator reference(gate, {.num_threads = 1});
  ASSERT_TRUE(reference.plan().tabulated());
  const std::size_t pooled =
      pooled_words(sw::wavesim::EvalProgram(wide, fix.engine));
  for (const std::size_t words : {24ul, pooled}) {
    const auto matrix =
        random_matrix(words, reference.slot_count(), /*seed=*/33);
    const auto want = reference.evaluate_bits(words, matrix);
    EXPECT_EQ(svc.submit(EvalRequest::for_layout(wide, matrix, words))
                  .get()
                  .bits,
              want)
        << words << " words";
    std::promise<std::vector<std::uint64_t>> done;
    std::thread::id ran_on;
    svc.submit_async(EvalRequest::for_layout(wide, matrix, words),
                     [&](ResultBatch&& result, std::exception_ptr error) {
                       EXPECT_EQ(error, nullptr);
                       ran_on = std::this_thread::get_id();
                       done.set_value(std::move(result.columns));
                     });
    const auto columns = done.get_future().get();
    EXPECT_EQ(ran_on == std::this_thread::get_id(), words == 24)
        << words << " words";
    ASSERT_EQ(columns.size(),
              2 * sw::wavesim::kernels::column_words(words));
    std::vector<std::uint8_t> rows(words * 2);
    sw::wavesim::kernels::scalar_kernel().to_rows(
        columns.data(), sw::wavesim::kernels::column_words(words), words, 2,
        rows.data(), 2);
    EXPECT_EQ(rows, want) << words << " words, submit_async";
  }
  const auto built = svc.stats().cache;
  EXPECT_EQ(built.misses, 1u);
  EXPECT_EQ(built.table_detectors, 2u);

  const auto over = fix.majority_layout(17, 1);
  const auto matrix = random_matrix(4, 17, /*seed=*/34);
  const auto expect_budget_error = [](std::exception_ptr error) {
    ASSERT_NE(error, nullptr);
    try {
      std::rethrow_exception(error);
    } catch (const sw::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("kMaxTableMuxes"),
                std::string::npos)
          << e.what();
    }
  };
  auto refused = svc.submit(EvalRequest::for_layout(over, matrix, 4));
  std::exception_ptr submit_error;
  try {
    (void)refused.get();
  } catch (...) {
    submit_error = std::current_exception();
  }
  expect_budget_error(submit_error);
  std::promise<std::exception_ptr> async_error;
  svc.submit_async(EvalRequest::for_layout(over, matrix, 4),
                   [&](ResultBatch&&, std::exception_ptr error) {
                     async_error.set_value(error);
                   });
  expect_budget_error(async_error.get_future().get());
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cache.misses, built.misses + 2);
  EXPECT_EQ(stats.cache.hits, built.hits);
  EXPECT_EQ(stats.cache.table_detectors, built.table_detectors);
  EXPECT_EQ(stats.completed, stats.submitted);
}

TEST(EvaluatorService, RefusesAWireSizedLayoutWithTheBudgetError) {
  // A one-channel spec of 4,097 inputs: its detector reads more slots than
  // kMaxTableMuxes, so it can never be tabulated, and submit refuses it
  // with the shape checks and the budget error, before admission or any
  // plan is solved: the cache never sees it.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(4097, 1);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  try {
    (void)svc.submit(EvalRequest::for_layout(
                         layout, random_matrix(1, 4097, /*seed=*/35), 1))
        .get();
    FAIL() << "expected the budget error";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxTableMuxes"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.stats().cache.table_detectors, 0u);
  EXPECT_EQ(svc.stats().cache.misses, 0u);
}

TEST(EvaluatorService, SpecTargetsDesignOnAMissAndCheckTheClaimedHash) {
  // A gate named by its spec is keyed by the spec and its claimed layout
  // hash: a miss designs it with the request's Designer, a warm repeat
  // never calls it, and a design whose hash is not the claim fails with
  // TargetError and leaves no entry. A program stage too wide to tabulate
  // is refused at submit like a wide gate.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 4);
  const std::uint64_t hash = hash_layout(layout);
  std::atomic<int> designs{0};
  const Designer designer = [&](const GateSpec& spec) {
    ++designs;
    return fix.designer.design(spec);
  };
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  const DataParallelGate gate(layout, fix.engine);
  const BatchEvaluator reference(gate, {.num_threads = 1});
  const auto matrix = random_matrix(96, reference.slot_count(), /*seed=*/36);
  const auto request = [&](std::uint64_t claimed) {
    EvalRequest r = EvalRequest::for_layout(layout, matrix, 96);
    r.layout = nullptr;
    r.spec = &layout.spec;
    r.layout_hash = claimed;
    r.designer = &designer;
    return r;
  };
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(svc.submit(request(hash)).get().bits,
              reference.evaluate_bits(96, matrix));
  }
  EXPECT_EQ(designs.load(), 1);
  for (int attempt = 1; attempt <= 2; ++attempt) {
    try {
      (void)svc.submit(request(hash ^ 1)).get();
      FAIL() << "expected a hash mismatch";
    } catch (const TargetError& e) {
      EXPECT_NE(std::string(e.what()).find("hash mismatch"),
                std::string::npos);
    }
    EXPECT_EQ(designs.load(), 1 + attempt);
  }
  auto cache = svc.stats().cache;
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_EQ(cache.hits, 1u);

  EvalRequest both = request(hash);
  both.layout = &layout;
  EXPECT_THROW((void)svc.submit(std::move(both)), sw::util::Error);
  EvalRequest no_designer = request(hash);
  no_designer.designer = nullptr;
  EXPECT_THROW((void)svc.submit(std::move(no_designer)), sw::util::Error);

  sw::wavesim::ProgramSpec wide;
  wide.num_primary_inputs = sw::wavesim::kMaxTableMuxes + 1;
  wide.stages.push_back({GateSpec{}, {}});
  wide.stages[0].gate.num_inputs = wide.num_primary_inputs;
  wide.stages[0].gate.frequencies = channel_frequencies(1);
  for (std::uint32_t j = 0; j < wide.num_primary_inputs; ++j) {
    wide.stages[0].sources.push_back(
        {sw::wavesim::SlotSource::Kind::kPrimary, 0, j, false});
  }
  try {
    (void)svc.submit(EvalRequest::for_program(
        wide, random_matrix(1, wide.num_primary_inputs, /*seed=*/37), 1));
    FAIL() << "expected the budget error";
  } catch (const sw::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxTableMuxes"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.stats().cache.misses, cache.misses);
  EXPECT_EQ(svc.stats().submitted, 4u);
}

TEST(EvaluatorService, CompensatedGatesDecodeMajorityAtEveryWidth) {
  // The 8-channel paper layout with the paper's graded drive levels
  // (core::damping_compensation) computes MAJ_m on every channel at every
  // odd width: all 2^m uniform patterns, through the service's tables and
  // through the physics path, against expected_majority.
  const ServeFixture fix;
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  for (std::size_t m = 3; m <= 13; m += 2) {
    const GateLayout designed = fix.majority_layout(m, 8);
    const GateLayout layout = with_drive_levels(
        designed, damping_compensation(designed, fix.engine));
    const DataParallelGate gate(layout, fix.engine);
    const auto patterns = all_patterns(m);
    std::vector<std::uint8_t> matrix;
    for (const Bits& pattern : patterns) {
      for (std::size_t ch = 0; ch < 8; ++ch) {
        matrix.insert(matrix.end(), pattern.begin(), pattern.end());
      }
    }
    const auto served =
        svc.submit(EvalRequest::for_layout(layout, matrix, patterns.size()))
            .get();
    for (std::size_t w = 0; w < patterns.size(); ++w) {
      for (const ChannelResult& r : gate.evaluate_uniform(patterns[w])) {
        const std::uint8_t want =
            gate.expected_majority(r.channel, patterns[w]);
        ASSERT_EQ(r.logic, want)
            << "physics path, m = " << m << ", pattern " << w << ", channel "
            << r.channel;
        ASSERT_EQ(served.bit(w, r.channel), want)
            << "served tables, m = " << m << ", pattern " << w
            << ", channel " << r.channel;
      }
    }
  }
}

TEST(EvaluatorService, NestedBitsConvenienceMatchesScalarLoop) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  const DataParallelGate gate(layout, fix.engine);

  std::mt19937 rng(77);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::vector<Bits>> batch(40);
  for (auto& word : batch) {
    word.assign(2, Bits(3));
    for (auto& bits : word) {
      for (auto& b : bits) b = coin(rng) ? 1 : 0;
    }
  }
  const auto result = svc.submit(EvalRequest::for_batch(layout, batch)).get();
  for (std::size_t w = 0; w < batch.size(); ++w) {
    const auto want = gate.evaluate(batch[w]);
    for (const auto& r : want) {
      EXPECT_EQ(result.bit(w, r.channel), r.logic) << "word " << w;
    }
  }
}

TEST(EvaluatorService, DistinctLayoutsInterleaveThroughTheCache) {
  const ServeFixture fix;
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  EvaluatorService svc(fix.model, fix.wg.material.alpha, options);

  const auto a = fix.majority_layout(3, 2);
  const auto b = fix.majority_layout(3, 3);
  const auto c = fix.majority_layout(3, 4);
  for (int round = 0; round < 3; ++round) {
    for (const auto* lay : {&a, &b, &c}) {
      const std::size_t slots =
          lay->spec.frequencies.size() * lay->spec.num_inputs;
      const auto matrix = random_matrix(8, slots, /*seed=*/round + 1);
      const auto result = svc.submit(EvalRequest::for_layout(*lay, matrix, 8)).get();
      const DataParallelGate gate(*lay, fix.engine);
      const BatchEvaluator reference(gate, {.num_threads = 1});
      EXPECT_EQ(result.bits, reference.evaluate_bits(8, matrix));
    }
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 9u);
  // Capacity 2 over 3 interleaved layouts: the round-robin order makes
  // every access after the warm-up round a miss-plus-eviction.
  EXPECT_GE(stats.cache.evictions, 6u);
}

TEST(EvaluatorService, SubmitValidatesShapeUpFront) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  EXPECT_THROW((void)svc.submit(EvalRequest::for_layout(layout, std::vector<std::uint8_t>(5), 1)),
               sw::util::Error);
  // A word count whose product with slot_count wraps size_t must fail
  // synchronously here — before admission charges a near-SIZE_MAX inflight
  // word budget that would starve every other submitter.
  const std::size_t wrap =
      (std::numeric_limits<std::size_t>::max() / 6) + 1;  // 6 slots
  EXPECT_THROW((void)svc.submit(EvalRequest::for_layout(layout, std::vector<std::uint8_t>(6), wrap)),
               sw::util::Error);
  EXPECT_EQ(svc.stats().inflight_words, 0u);
}

TEST(EvaluatorService, BrokenLayoutFailsThroughTheFuture) {
  const ServeFixture fix;
  auto broken = fix.majority_layout(3, 2);
  broken.sources[0].x += 1e-9;  // invalid geometry: plan build throws
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  auto future = svc.submit(EvalRequest::for_layout(broken, std::vector<std::uint8_t>(6), 1));
  EXPECT_THROW((void)future.get(), sw::util::Error);
  EXPECT_EQ(svc.stats().completed, 1u);
  EXPECT_EQ(svc.stats().inflight_words, 0u);
}

TEST(EvaluatorService, ShedsWhenSaturated) {
  const ServeFixture fix;
  WorkerGate gate;
  ServiceOptions options;
  options.num_threads = 1;
  options.admission.max_queued_requests = 1;
  options.admission.policy = OverloadPolicy::kShed;
  options.on_request_start = gate.hook();
  EvaluatorService svc(fix.model, fix.wg.material.alpha, options);

  const auto layout = fix.majority_layout(3, 2);
  const auto matrix = random_matrix(4, 6, /*seed=*/41);

  // r1 is picked up by the single worker (leaves the queue) and parks in
  // the gate; r2 then occupies the one queue slot; r3 must shed.
  auto r1 = svc.submit(EvalRequest::for_layout(layout, matrix, 4));
  gate.wait_entered();
  auto r2 = svc.submit(EvalRequest::for_layout(layout, matrix, 4));
  EXPECT_THROW((void)svc.submit(EvalRequest::for_layout(layout, matrix, 4)), OverloadError);
  EXPECT_EQ(svc.stats().shed, 1u);

  gate.open();
  EXPECT_EQ(r1.get().bits, r2.get().bits);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(EvaluatorService, BlocksWhenSaturatedAndResumes) {
  const ServeFixture fix;
  WorkerGate gate;
  ServiceOptions options;
  options.num_threads = 1;
  options.admission.max_queued_requests = 1;
  options.admission.policy = OverloadPolicy::kBlock;
  options.on_request_start = gate.hook();
  EvaluatorService svc(fix.model, fix.wg.material.alpha, options);

  const auto layout = fix.majority_layout(3, 2);
  const auto matrix = random_matrix(4, 6, /*seed=*/43);

  auto r1 = svc.submit(EvalRequest::for_layout(layout, matrix, 4));
  gate.wait_entered();
  auto r2 = svc.submit(EvalRequest::for_layout(layout, matrix, 4));

  std::future<ResultBatch> r3;
  std::thread submitter([&] { r3 = svc.submit(EvalRequest::for_layout(layout, matrix, 4)); });
  // The submitter must actually block (registered, not admitted) …
  while (svc.stats().blocked == 0) std::this_thread::yield();
  EXPECT_EQ(svc.stats().submitted, 2u);

  // … and proceed once the worker drains the queue.
  gate.open();
  submitter.join();
  const auto first = r1.get().bits;
  EXPECT_EQ(r3.get().bits, first);
  EXPECT_EQ(r2.get().bits, first);
  EXPECT_EQ(svc.stats().completed, 3u);
  EXPECT_EQ(svc.stats().shed, 0u);
}

TEST(EvaluatorService, TracksLatencyPercentilesAndCompletionHook) {
  // The request_latency histogram is the service's one latency store:
  // every settled request records into it once, before its completion
  // callback runs, and its buckets give the percentiles.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto matrix = random_matrix(4, 6, /*seed=*/31);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);
  for (int i = 0; i < 5; ++i) {
    (void)svc.submit(EvalRequest::for_layout(layout, matrix, 4)).get();
  }
  std::uint64_t counted_at_callback = 0;
  svc.submit_async(EvalRequest::for_layout(layout, matrix, 4),
                   [&](ResultBatch&&, std::exception_ptr error) {
                     EXPECT_EQ(error, nullptr);
                     counted_at_callback = svc.stats().request_latency.count;
                   });
  // Warm and small, so it ran inline: the callback has already returned.
  EXPECT_EQ(counted_at_callback, 6u);

  const auto stats = svc.stats();
  const sw::obs::HistogramSnapshot& latency = stats.request_latency;
  EXPECT_EQ(latency.count, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_GT(latency.sum, 0.0);
  // Upper bound of the bucket holding the nearest-rank q quantile.
  const auto quantile_bound = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(latency.count)));
    std::size_t i = 0;
    while (latency.cumulative(i) < rank) ++i;
    return i < latency.bounds.size()
               ? latency.bounds[i]
               : std::numeric_limits<double>::infinity();
  };
  EXPECT_GT(quantile_bound(0.50), 0.0);
  EXPECT_LE(quantile_bound(0.50), quantile_bound(0.99));
  // With six samples p99 is the largest, so its bucket bounds the mean.
  EXPECT_LE(latency.mean(), quantile_bound(0.99));
}

TEST(EvaluatorService, CountsEachAdmittedRequestOnceOnEveryPath) {
  // submitted (the id counter), completed and the latency histogram's
  // count must agree whichever submit call admitted a request and
  // wherever it ran: inline on the submitting thread or on the pool.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto small = random_matrix(4, 6, /*seed=*/51);
  // Past kMaxInlineWork in this gate's kernel work: always pooled.
  const std::size_t kLargeWords =
      pooled_words(sw::wavesim::EvalProgram(layout, fix.engine));
  const auto large = random_matrix(kLargeWords, 6, /*seed=*/52);
  ServiceOptions options;
  options.num_threads = 2;
  EvaluatorService svc(fix.model, fix.wg.material.alpha, options);
  // Cache the program, so the small submit_async requests run inline.
  const std::uint64_t warm_id =
      svc.submit(EvalRequest::for_layout(layout, small, 4)).get().request_id;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 24;
  std::mutex ids_mutex;
  std::vector<std::uint64_t> ids{warm_id};
  std::atomic<int> inline_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t == 0) {
        // A shape error throws before admission: no id, no count.
        EXPECT_THROW((void)svc.submit(EvalRequest::for_layout(
                         layout, std::vector<std::uint8_t>(5), 1)),
                     sw::util::Error);
      }
      const std::thread::id self = std::this_thread::get_id();
      std::vector<std::future<ResultBatch>> sync;
      std::vector<std::future<std::uint64_t>> async;
      for (int i = 0; i < kPerThread; ++i) {
        const bool is_large = i % 2 == 1;
        auto request =
            is_large ? EvalRequest::for_layout(layout, large, kLargeWords)
                     : EvalRequest::for_layout(layout, small, 4);
        if (i % 4 < 2) {
          sync.push_back(svc.submit(std::move(request)));
          continue;
        }
        auto done = std::make_shared<std::promise<std::uint64_t>>();
        async.push_back(done->get_future());
        svc.submit_async(std::move(request),
                         [&, self, done](ResultBatch&& result,
                                         std::exception_ptr error) {
                           EXPECT_EQ(error, nullptr);
                           if (std::this_thread::get_id() == self) {
                             ++inline_runs;
                           }
                           done->set_value(result.request_id);
                         });
      }
      std::vector<std::uint64_t> mine;
      for (auto& f : sync) mine.push_back(f.get().request_id);
      for (auto& f : async) mine.push_back(f.get());
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.insert(ids.end(), mine.begin(), mine.end());
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t admitted = 1 + kThreads * kPerThread;
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, admitted);
  EXPECT_EQ(stats.completed, admitted);
  EXPECT_EQ(stats.request_latency.count, admitted);
  // Every small submit_async ran inline, every large one on the pool.
  EXPECT_EQ(inline_runs.load(), kThreads * kPerThread / 4);
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), admitted);
  for (std::uint64_t i = 0; i < admitted; ++i) EXPECT_EQ(ids[i], i + 1);
}

TEST(EvaluatorService, DestructorDrainsPendingRequests) {
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto matrix = random_matrix(4, 6, /*seed=*/47);
  std::vector<std::future<ResultBatch>> futures;
  {
    EvaluatorService svc(fix.model, fix.wg.material.alpha);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(svc.submit(EvalRequest::for_layout(layout, matrix, 4)));
    }
    // Destructor runs here with requests still queued.
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().num_words, 4u);  // every future completed
  }
}

// --------------------------------------------------------------------------
// Compiled programs: wire v3 frames, shared-LRU cache entries, and the
// service end to end against the per-stage physics oracle.

/// Synthesize `bits` (an `num_inputs`-ary truth table, MSB-first column)
/// into a minimal majority cascade and lower it onto an n-channel fabric.
sw::wavesim::ProgramSpec synthesize_program(std::uint16_t bits,
                                            std::size_t num_inputs,
                                            std::size_t n) {
  sw::compile::Synthesizer synth;
  const auto circuit =
      synth.compile(sw::compile::TruthTable(num_inputs, bits));
  GateSpec base;
  base.num_inputs = 3;
  base.frequencies = channel_frequencies(n);
  return sw::compile::lower_to_program(circuit, base);
}

/// Per-stage physics oracle: run every stage as its own DataParallelGate,
/// gathering inputs per SlotSource by hand. Returns the stage-major
/// outputs (stage s, channel ch at s * n + ch); the last n entries are
/// the program's output word.
std::vector<std::uint8_t> physics_stage_outputs(
    const sw::wavesim::ProgramSpec& program,
    const InlineGateDesigner& designer, const WaveEngine& engine,
    std::span<const std::uint8_t> primary_row) {
  using sw::wavesim::SlotSource;
  const std::size_t n = program.num_channels();
  std::vector<std::uint8_t> stage_out;
  for (const auto& ss : program.stages) {
    const DataParallelGate gate(designer.design(ss.gate), engine);
    const std::size_t m = ss.gate.num_inputs;
    std::vector<Bits> inputs(n, Bits(m));
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (std::size_t k = 0; k < m; ++k) {
        const auto& src = ss.sources[ch * m + k];
        bool v = false;
        switch (src.kind) {
          case SlotSource::Kind::kZero: v = false; break;
          case SlotSource::Kind::kOne: v = true; break;
          case SlotSource::Kind::kPrimary:
            v = primary_row[src.index] != 0;
            break;
          case SlotSource::Kind::kStage:
            v = stage_out[src.stage * n + src.index] != 0;
            break;
        }
        inputs[ch][k] = static_cast<std::uint8_t>(v != src.negated);
      }
    }
    const auto results = gate.evaluate(inputs);
    std::vector<std::uint8_t> out(n);
    for (const auto& r : results) out[r.channel] = r.logic;
    stage_out.insert(stage_out.end(), out.begin(), out.end());
  }
  return stage_out;
}

TEST(WireFormat, ProgramRequestRoundTripsBitExact) {
  const auto program = synthesize_program(0x1B, 3, 4);
  ASSERT_GE(program.num_stages(), 2u);  // a real cascade, not one gate
  const auto matrix = random_matrix(17, program.primary_slot_count(), 51);
  const auto frame =
      make_program_request_frame(program, /*word_offset=*/64, 17, matrix);
  const auto decoded = decode_frame(encode_frame(frame));

  EXPECT_EQ(decoded.kind, FrameKind::kRequest);
  EXPECT_EQ(decoded.layout_hash, hash_program(program));
  EXPECT_EQ(decoded.word_offset, 64u);
  EXPECT_EQ(decoded.num_words, 17u);
  EXPECT_EQ(decoded.num_cols, program.primary_slot_count());
  EXPECT_FALSE(decoded.spec.has_value());
  ASSERT_TRUE(decoded.program.has_value());
  EXPECT_EQ(*decoded.program, program);  // field-wise, doubles bit-exact
  EXPECT_EQ(decoded.matrix, matrix);
}

TEST(WireFormat, ProgramBlockCorruptionRejected) {
  const auto program = synthesize_program(0xE8, 3, 2);
  const auto good = encode_frame(
      make_program_request_frame(program, 0, 4,
                                 random_matrix(4, 6, /*seed=*/53)));
  // Flip one byte inside the program block: either the block's trailing
  // self-checksum or the frame checksum must catch it.
  auto bad = good;
  bad[80] ^= 0xFF;
  EXPECT_THROW((void)decode_frame(bad), sw::util::Error);
  // Truncation inside the program block must be caught, not read past.
  EXPECT_THROW((void)decode_frame({good.data(), good.size() - 9}),
               sw::util::Error);
}

TEST(WireFormat, VersionCeilingYieldsTypedUnsupportedError) {
  const auto program = synthesize_program(0xE8, 3, 2);
  const auto v3 = encode_frame(
      make_program_request_frame(program, 0, 2,
                                 random_matrix(2, 6, /*seed=*/55)));
  // A v2-pinned decoder (an old worker) must refuse the frame with the
  // typed error negotiation keys on — not a generic parse failure.
  try {
    (void)decode_frame(v3, kWireVersion);
    FAIL() << "expected UnsupportedVersionError";
  } catch (const UnsupportedVersionError& e) {
    EXPECT_EQ(e.version, kWireVersionProgram);
    EXPECT_NE(std::string(e.what()).find("unsupported wire version"),
              std::string::npos);
  }
  // The pinned ceiling still accepts plain v2 layout frames.
  const ServeFixture fix;
  const auto layout = fix.majority_layout(3, 2);
  const auto v2 = encode_frame(
      make_request_frame(layout, 0, 2, random_matrix(2, 6, /*seed=*/57)));
  EXPECT_TRUE(decode_frame(v2, kWireVersion).spec.has_value());
}

TEST(PlanCache, ProgramEntriesShareTheLruWithStats) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, /*capacity=*/2, &fix.designer);
  const auto program = synthesize_program(0x1B, 3, 2);

  EXPECT_EQ(cache.try_get(program), nullptr);  // cold: no entry
  const auto first = cache.get_or_build(program);
  EXPECT_FALSE(first.hit);
  ASSERT_NE(first.program, nullptr);
  EXPECT_EQ(first.program->num_stages(), program.num_stages());
  EXPECT_TRUE(cache.get_or_build(program).hit);
  EXPECT_NE(cache.try_get(program), nullptr);

  // Layout entries share the LRU: two layout builds push the program out.
  (void)cache.get_or_build(fix.majority_layout(3, 2));
  (void)cache.get_or_build(fix.majority_layout(3, 3));
  EXPECT_EQ(cache.try_get(program), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);  // program + two layouts
  EXPECT_EQ(stats.hits, 2u);    // program get_or_build hit + try_get
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.program_builds, 1u);
  EXPECT_EQ(stats.program_stages, first.program->num_stages());
  EXPECT_EQ(stats.max_program_depth, first.program->depth());
}

TEST(PlanCache, ProgramLookupWithoutDesignerThrows) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, 4);  // no designer: layouts only
  const auto program = synthesize_program(0xE8, 3, 2);
  EXPECT_THROW((void)cache.try_get(program), sw::util::Error);
  EXPECT_THROW((void)cache.get_or_build(program), sw::util::Error);
  // Layout lookups stay unaffected.
  EXPECT_FALSE(cache.get_or_build(fix.majority_layout(3, 2)).hit);
}

// --------------------------------------------------------------------------
// Stage sharing: one artefact per stage GateSpec across the programs the
// cache holds or hands out.

/// A two-stage program with one plain and one inverted-output MAJ stage
/// (the two stage GateSpecs lowering emits on an n-channel fabric).
/// `variant` picks one of two different interconnects.
sw::wavesim::ProgramSpec maj_and_inverted_maj(int variant, std::size_t n) {
  using sw::compile::MajNode;
  using sw::compile::input_lit;
  using sw::compile::node_lit;
  sw::compile::CompiledCircuit circuit;
  circuit.num_inputs = 3;
  if (variant == 0) {
    circuit.nodes.push_back(
        MajNode{{input_lit(0), input_lit(1), input_lit(2)}});
    circuit.nodes.push_back(
        MajNode{{node_lit(0), input_lit(0), input_lit(2, true)}, true});
  } else {
    circuit.nodes.push_back(
        MajNode{{input_lit(0, true), input_lit(1), input_lit(2)}, true});
    circuit.nodes.push_back(
        MajNode{{node_lit(0), input_lit(1), input_lit(2)}});
  }
  circuit.depth = sw::compile::circuit_depth(circuit);
  GateSpec base;
  base.num_inputs = 3;
  base.frequencies = channel_frequencies(n);
  return sw::compile::lower_to_program(circuit, base);
}

/// The program's output on `matrix`, evaluated by a standalone EvalProgram
/// that shares nothing with any cache.
std::vector<std::uint8_t> standalone_bits(
    const ServeFixture& fix, const sw::wavesim::ProgramSpec& program,
    const std::vector<std::uint8_t>& matrix, std::size_t words) {
  const sw::wavesim::EvalProgram standalone(program, fix.designer, fix.engine);
  return standalone.evaluate_bits(words, matrix);
}

TEST(PlanCache, ProgramsShareStagesPerGateSpec) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, 8, &fix.designer);
  const auto a = maj_and_inverted_maj(0, 4);
  const auto b = maj_and_inverted_maj(1, 4);
  ASSERT_NE(a, b);
  const auto pa = cache.get_or_build(a).program;
  const auto pb = cache.get_or_build(b).program;
  const auto stats = cache.stats();
  EXPECT_EQ(stats.program_builds, 2u);
  EXPECT_EQ(stats.program_stages, 4u);
  EXPECT_EQ(stats.stage_builds, 2u);  // MAJ and inverted MAJ, once each
  // Program a runs MAJ then inverted MAJ, b the reverse: the same artefacts.
  EXPECT_EQ(&pa->stage_plan(0), &pb->stage_plan(1));
  EXPECT_EQ(&pa->stage_plan(1), &pb->stage_plan(0));

  const std::size_t words = 64;
  const auto matrix = random_matrix(words, a.primary_slot_count(), 71);
  EXPECT_EQ(pa->evaluate_bits(words, matrix),
            standalone_bits(fix, a, matrix, words));
  EXPECT_EQ(pb->evaluate_bits(words, matrix),
            standalone_bits(fix, b, matrix, words));
}

TEST(PlanCache, SharedStagesLiveOnlyAsLongAsTheirPrograms) {
  const ServeFixture fix;
  PlanCache cache(fix.engine, /*capacity=*/1, &fix.designer);
  const auto a = maj_and_inverted_maj(0, 2);
  const auto layout = fix.majority_layout(3, 2);

  auto held = cache.get_or_build(a).program;
  EXPECT_EQ(cache.stats().stage_builds, 2u);
  // Evicted but still in flight: a rebuild shares the held stages.
  (void)cache.get_or_build(layout);
  auto rebuilt = cache.get_or_build(a);
  EXPECT_FALSE(rebuilt.hit);
  EXPECT_EQ(cache.stats().stage_builds, 2u);
  EXPECT_EQ(&rebuilt.program->stage_plan(0), &held->stage_plan(0));

  // Evicted and released everywhere: the table does not keep the stages.
  held.reset();
  rebuilt.program.reset();
  (void)cache.get_or_build(layout);
  EXPECT_FALSE(cache.get_or_build(a).hit);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.stage_builds, 4u);
  EXPECT_EQ(stats.program_builds, 3u);
  EXPECT_EQ(stats.evictions, 4u);  // every build but the first evicts
}

/// Dispersion that can be told to throw, so a stage design fails on demand.
class SwitchableDispersion : public sw::disp::DispersionModel {
 public:
  explicit SwitchableDispersion(const sw::disp::DispersionModel& inner)
      : inner_(inner) {}
  double frequency(double k) const override {
    SW_REQUIRE(!fail, "dispersion switched off");
    return inner_.frequency(k);
  }
  std::string name() const override { return inner_.name(); }
  std::atomic<bool> fail{false};

 private:
  const sw::disp::DispersionModel& inner_;
};

TEST(PlanCache, FailedStageDesignLeavesNoEntryAndRetries) {
  const ServeFixture fix;
  SwitchableDispersion model(fix.model);
  const InlineGateDesigner designer(model);
  PlanCache cache(fix.engine, 4, &designer);
  const auto a = maj_and_inverted_maj(0, 2);

  model.fail = true;
  EXPECT_THROW((void)cache.get_or_build(a), sw::util::Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stage_builds, 0u);

  // A poisoned stage entry would rethrow here; the retry builds instead.
  model.fail = false;
  const auto built = cache.get_or_build(a);
  EXPECT_FALSE(built.hit);
  EXPECT_EQ(cache.stats().stage_builds, 2u);
  const std::size_t words = 32;
  const auto matrix = random_matrix(words, a.primary_slot_count(), 73);
  EXPECT_EQ(built.program->evaluate_bits(words, matrix),
            standalone_bits(fix, a, matrix, words));
}

TEST(PlanCache, ConcurrentOverlappingProgramBuildsAreBitIdentical) {
  const ServeFixture fix;
  // Capacity 2 for 4 programs: entries are evicted and rebuilt while other
  // threads resolve the same stages.
  PlanCache cache(fix.engine, 2, &fix.designer);
  const std::vector<sw::wavesim::ProgramSpec> programs = {
      maj_and_inverted_maj(0, 4), maj_and_inverted_maj(1, 4),
      synthesize_program(0x1B, 3, 4), synthesize_program(0x96, 3, 4)};
  const std::size_t words = 48;
  const auto matrix = random_matrix(words, programs[0].primary_slot_count(), 79);
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& p : programs) {
    expected.push_back(standalone_bits(fix, p, matrix, words));
  }

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 12;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t i = (t + r) % programs.size();
        const auto built = cache.get_or_build(programs[i]).program;
        if (built->evaluate_bits(words, matrix) != expected[i]) {
          ++mismatches;
        }
      }
    });
  }
  go = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
}

TEST(EvaluatorService, ProgramRequestMatchesPerStagePhysicsOracle) {
  const ServeFixture fix;
  const std::size_t n = 4;
  const std::uint16_t bits = 0x1B;  // arbitrary non-special 3-ary function
  const auto program = synthesize_program(bits, 3, n);
  EvaluatorService svc(fix.model, fix.wg.material.alpha);

  const std::size_t words = 32;
  const std::size_t cols = program.primary_slot_count();
  const auto matrix = random_matrix(words, cols, /*seed=*/61);
  auto first =
      svc.submit(EvalRequest::for_program(program, matrix, words)).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.num_channels, n);
  EXPECT_EQ(first.num_stages, program.num_stages());
  EXPECT_EQ(first.depth, program.depth());
  ASSERT_EQ(first.bits.size(), words * n);

  const sw::compile::TruthTable table(3, bits);
  for (std::size_t w = 0; w < words; ++w) {
    const std::span<const std::uint8_t> row{matrix.data() + w * cols, cols};
    const auto stages =
        physics_stage_outputs(program, fix.designer, fix.engine, row);
    for (std::size_t ch = 0; ch < n; ++ch) {
      // The fused program equals the per-stage physics oracle …
      EXPECT_EQ(first.bits[w * n + ch],
                stages[(program.num_stages() - 1) * n + ch])
          << "w=" << w << " ch=" << ch;
      // … and both equal the Boolean function that was compiled.
      std::size_t a = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        a |= static_cast<std::size_t>(row[ch * 3 + i] != 0) << i;
      }
      EXPECT_EQ(first.bits[w * n + ch], table.value(a) ? 1 : 0)
          << "w=" << w << " ch=" << ch;
    }
  }

  auto second =
      svc.submit(EvalRequest::for_program(program, matrix, words)).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.bits, first.bits);
  EXPECT_GE(svc.stats().cache.program_builds, 1u);
}

}  // namespace
