// Batch-vs-scalar equivalence: every word pushed through
// BatchEvaluator::evaluate_bits must decode bit-for-bit like a per-word loop
// over the single-shot physics path (DataParallelGate::evaluate), because
// the batch plan reproduces the scalar arithmetic exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <random>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/encoding.h"
#include "core/gate.h"
#include "core/gate_design.h"
#include "core/logic_ops.h"
#include "dispersion/fvmsw.h"
#include "mag/material.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "wavesim/batch_evaluator.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/wave_engine.h"

namespace {

using namespace sw::core;
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
  for (std::size_t i = 1; i <= n; ++i) f.push_back(1e10 * static_cast<double>(i));
  return f;
}

struct GateFixture {
  Waveguide wg = paper_waveguide();
  FvmswDispersion model{wg};
  InlineGateDesigner designer{model};
  WaveEngine engine{model, wg.material.alpha};

  DataParallelGate majority_gate(std::size_t m, std::size_t n) const {
    GateSpec spec;
    spec.num_inputs = m;
    spec.frequencies = channel_frequencies(n);
    return DataParallelGate(designer.design(spec), engine);
  }
};

std::vector<std::vector<Bits>> random_batch(std::size_t words, std::size_t n,
                                            std::size_t m, unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<std::vector<Bits>> batch(words);
  for (auto& word : batch) {
    word.resize(n);
    for (auto& bits : word) {
      bits.resize(m);
      for (auto& b : bits) b = coin(rng) ? 1 : 0;
    }
  }
  return batch;
}

/// The evaluate_bits matrix of a batch: word w's bit of input `in` on
/// channel `ch` at column ch * m + in of row w.
std::vector<std::uint8_t> pack_rows(const std::vector<std::vector<Bits>>& batch) {
  std::vector<std::uint8_t> rows;
  for (const auto& word : batch) {
    for (const auto& bits : word) rows.insert(rows.end(), bits.begin(), bits.end());
  }
  return rows;
}

/// The physics path's logic bits of a batch, in the evaluate_bits layout.
std::vector<std::uint8_t> gate_bits(const DataParallelGate& gate,
                                    const std::vector<std::vector<Bits>>& batch) {
  const std::size_t n = gate.layout().spec.frequencies.size();
  std::vector<std::uint8_t> bits(batch.size() * n);
  for (std::size_t w = 0; w < batch.size(); ++w) {
    for (const auto& r : gate.evaluate(batch[w])) bits[w * n + r.channel] = r.logic;
  }
  return bits;
}

TEST(BatchEvaluator, RandomWordsMatchScalarBitForBit) {
  // Every rung the host runs, against the physics path.
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 8);
  const auto batch = random_batch(256, 8, 3, /*seed=*/42);
  const auto want = gate_bits(gate, batch);

  const BatchEvaluator evaluator(gate);
  const auto rows = pack_rows(batch);
  std::vector<const sw::wavesim::kernels::Kernel*> kernels{
      &sw::wavesim::kernels::scalar_kernel()};
  if (const auto* k = sw::wavesim::kernels::avx2_kernel()) kernels.push_back(k);
  if (const auto* k = sw::wavesim::kernels::avx512_kernel()) kernels.push_back(k);
  for (const auto* k : kernels) {
    EXPECT_EQ(evaluator.evaluate_bits(batch.size(), rows, *k), want)
        << "kernel " << k->name;
  }
}

TEST(BatchEvaluator, UniformSweepMatchesScalar) {
  // Pattern w on every channel, against the physics path's uniform entry.
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  const auto patterns = all_patterns(3);
  std::vector<std::vector<Bits>> batch;
  for (const auto& p : patterns) batch.emplace_back(4, p);

  const BatchEvaluator evaluator(gate);
  const auto bits = evaluator.evaluate_bits(batch.size(), pack_rows(batch));
  ASSERT_EQ(bits.size(), patterns.size() * 4);
  for (std::size_t w = 0; w < patterns.size(); ++w) {
    for (const auto& r : gate.evaluate_uniform(patterns[w])) {
      EXPECT_EQ(bits[w * 4 + r.channel], r.logic) << "pattern " << w;
    }
  }
}

TEST(BatchEvaluator, MajorityTruthTableDecodesCorrectly) {
  // Every uniform pattern of m = 3 and m = 5 inputs on 2, 4 and 8 channels
  // decodes MAJ_m (inverted where a detector is). m >= 7 stays out until
  // the designer compensates the damping of far inputs: its uncompensated
  // layouts decode a weighted threshold on some channels.
  const GateFixture fix;
  for (const std::size_t m : {3ul, 5ul}) {
    const auto patterns = all_patterns(m);
    for (const std::size_t n : {2ul, 4ul, 8ul}) {
      const auto gate = fix.majority_gate(m, n);
      std::vector<std::vector<Bits>> batch;
      for (const auto& p : patterns) batch.emplace_back(n, p);
      const BatchEvaluator evaluator(gate, {.num_threads = 1});
      const auto bits = evaluator.evaluate_bits(batch.size(), pack_rows(batch));
      for (std::size_t w = 0; w < patterns.size(); ++w) {
        for (std::size_t ch = 0; ch < n; ++ch) {
          EXPECT_EQ(bits[w * n + ch], gate.expected_majority(ch, patterns[w]))
              << "MAJ" << m << " on " << n << " channels, channel " << ch
              << ", pattern " << w;
        }
      }
    }
  }
}

TEST(BatchEvaluator, ThreadCountDoesNotChangeResults) {
  // 1000 words are 16 column u64s, so every pool of more than one thread
  // splits the batch at 64-word groups (3 threads: 6 + 5 + 5 of them).
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  const auto batch = random_batch(1000, 4, 3, /*seed=*/7);
  const auto want = gate_bits(gate, batch);
  const auto rows = pack_rows(batch);
  for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
    EXPECT_EQ(BatchEvaluator(gate, {.num_threads = threads})
                  .evaluate_bits(batch.size(), rows),
              want)
        << threads << " threads";
  }
}

// Batched derived-gate evaluation: pack operands once per batch, evaluate
// on a long-lived plan, and match the per-word scalar path bit for bit.
void expect_pack_batch_matches_scalar(const GateFixture& fix, BooleanOp op,
                                      unsigned seed, std::size_t words) {
  const ParallelLogicGate gate(op, channel_frequencies(4), fix.designer,
                               fix.engine);
  std::mt19937 rng(seed);
  std::bernoulli_distribution coin(0.5);
  std::vector<Bits> a_words(words), b_words(words);
  for (std::size_t w = 0; w < a_words.size(); ++w) {
    a_words[w].resize(4);
    b_words[w].resize(4);
    for (std::size_t ch = 0; ch < 4; ++ch) {
      a_words[w][ch] = coin(rng) ? 1 : 0;
      b_words[w][ch] = coin(rng) ? 1 : 0;
    }
  }
  const BatchEvaluator evaluator(gate.gate(), {.num_threads = 1});
  const auto packed = gate.pack_batch(a_words, b_words);
  const auto decoded = evaluator.evaluate_bits(a_words.size(), packed);
  const std::size_t n = 4;
  for (std::size_t w = 0; w < a_words.size(); ++w) {
    const auto want = gate.evaluate(a_words[w], b_words[w]);
    for (std::size_t ch = 0; ch < n; ++ch) {
      ASSERT_EQ(decoded[w * n + ch], want[ch])
          << "op " << boolean_op_name(op) << " word " << w;
    }
  }
}

TEST(BatchEvaluator, ParallelLogicGateBatchMatchesScalar) {
  const GateFixture fix;
  for (const auto op : {BooleanOp::kAnd, BooleanOp::kNor, BooleanOp::kNot}) {
    expect_pack_batch_matches_scalar(fix, op, /*seed=*/13, /*words=*/40);
  }
}

TEST(BatchEvaluator, PackBatchFeedsAHeldEvaluatorBitExactly) {
  const GateFixture fix;
  expect_pack_batch_matches_scalar(fix, BooleanOp::kNand, /*seed=*/29,
                                   /*words=*/48);
}

TEST(BatchEvaluator, ReusedEvaluatorOverLogicGateFabric) {
  // The plan-reuse route for derived gates: build one evaluator over the
  // exposed inner majority fabric and feed packed operand words directly.
  const GateFixture fix;
  const ParallelLogicGate logic(BooleanOp::kOr, channel_frequencies(4),
                                fix.designer, fix.engine);
  const BatchEvaluator evaluator(logic.gate());
  const std::size_t stride = evaluator.slot_count();
  ASSERT_EQ(stride, 12u);  // 4 channels x (a, b, pin)

  std::mt19937 rng(29);
  std::bernoulli_distribution coin(0.5);
  std::vector<Bits> a_words(20), b_words(20);
  std::vector<std::uint8_t> packed(a_words.size() * stride);
  for (std::size_t w = 0; w < a_words.size(); ++w) {
    a_words[w].resize(4);
    b_words[w].resize(4);
    for (std::size_t ch = 0; ch < 4; ++ch) {
      a_words[w][ch] = coin(rng) ? 1 : 0;
      b_words[w][ch] = coin(rng) ? 1 : 0;
      packed[w * stride + ch * 3] = a_words[w][ch];
      packed[w * stride + ch * 3 + 1] = b_words[w][ch];
      packed[w * stride + ch * 3 + 2] = 1;  // OR pins the third input to 1
    }
  }
  const auto bits = evaluator.evaluate_bits(a_words.size(), packed);
  for (std::size_t w = 0; w < a_words.size(); ++w) {
    const auto want = logic.evaluate(a_words[w], b_words[w]);
    for (std::size_t ch = 0; ch < 4; ++ch) {
      EXPECT_EQ(bits[w * 4 + ch], want[ch]) << "word " << w;
    }
  }
}

TEST(BatchEvaluator, PackedBitsMatchChannelResults) {
  // The active kernel's bits, each at the column of its ChannelResult's
  // channel.
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 4);
  const auto batch = random_batch(128, 4, 3, /*seed=*/23);
  const BatchEvaluator evaluator(gate);
  ASSERT_EQ(evaluator.slot_count(), 12u);

  const auto bits = evaluator.evaluate_bits(batch.size(), pack_rows(batch));
  ASSERT_EQ(bits.size(), batch.size() * 4);
  for (std::size_t w = 0; w < batch.size(); ++w) {
    for (const auto& r : gate.evaluate(batch[w])) {
      EXPECT_EQ(bits[w * 4 + r.channel], r.logic) << "word " << w;
    }
  }
}

TEST(BatchEvaluator, PackedBitsRejectsWrongShape) {
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 2);
  const BatchEvaluator evaluator(gate);
  const std::vector<std::uint8_t> packed(evaluator.slot_count() + 1);
  EXPECT_THROW(evaluator.evaluate_bits(1, packed), sw::util::Error);
}

TEST(BatchEvaluator, EmptyBatchIsEmpty) {
  const GateFixture fix;
  const auto gate = fix.majority_gate(3, 2);
  const BatchEvaluator evaluator(gate);
  EXPECT_TRUE(evaluator.evaluate_bits(0, {}).empty());
}

// --------------------------------------------------------------------------
// ThreadPool unit behaviour backing the evaluator's fan-out.

TEST(ThreadPool, CoversFullRangeOnce) {
  sw::util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// CPUs in the calling thread's affinity mask, hardware_concurrency()
/// where that cannot be read.
std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&mask));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ThreadPool, DefaultSizeCountsTheAffinityMask) {
  EXPECT_EQ(sw::util::ThreadPool().size(), affinity_cpus());
#if defined(__linux__)
  // Pinned to one CPU (as under taskset -c), a default pool is one inline
  // thread, however many CPUs are online.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = sw::util::ThreadPool().size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
#endif
}

TEST(ThreadPool, SingleThreadRunsInline) {
  sw::util::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(5, [&](std::size_t, std::size_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, HandlesFewerItemsThanThreads) {
  sw::util::ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  sw::util::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PostRunsAsynchronouslyOnAWorker) {
  sw::util::ThreadPool pool(2);
  std::promise<std::thread::id> ran;
  pool.post([&] { ran.set_value(std::this_thread::get_id()); });
  EXPECT_NE(ran.get_future().get(), std::this_thread::get_id());
}

TEST(ThreadPool, PostOnInlinePoolRunsOnCaller) {
  sw::util::ThreadPool pool(1);
  std::thread::id seen;
  pool.post([&] { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, std::this_thread::get_id());
}

TEST(ThreadPool, AlwaysSpawnMakesSingleThreadPostAsynchronous) {
  sw::util::ThreadPool pool(1, /*always_spawn=*/true);
  EXPECT_EQ(pool.size(), 1u);
  std::promise<std::thread::id> ran;
  pool.post([&] { ran.set_value(std::this_thread::get_id()); });
  EXPECT_NE(ran.get_future().get(), std::this_thread::get_id());
}

TEST(ThreadPool, DestructorDrainsPostedJobs) {
  std::atomic<int> done{0};
  {
    sw::util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.post([&] { done.fetch_add(1); });
    }
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, PostAndParallelForInterleave) {
  sw::util::ThreadPool pool(3);
  std::atomic<int> posted{0};
  std::atomic<int> swept{0};
  for (int i = 0; i < 50; ++i) {
    pool.post([&] { posted.fetch_add(1); });
  }
  pool.parallel_for(1000, [&](std::size_t begin, std::size_t end) {
    swept.fetch_add(static_cast<int>(end - begin));
  });
  while (posted.load() != 50) std::this_thread::yield();
  EXPECT_EQ(swept.load(), 1000);
}

TEST(ThreadPool, PropagatesWorkerException) {
  sw::util::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> total{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
}

}  // namespace
