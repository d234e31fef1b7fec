// Workload micromag_validate: the paper's OOMMF-equivalent validation. The
// reduced-model byte gate (8 channels, 3-input majority, designed against
// the solver-consistent 1-D dispersion) is simulated with the LLG solver
// for every uniform input pattern, by two threads that each hold a copy of
// one calibrated MicromagGateRunner, in a seeded order of whole passes over
// the 8 patterns. Every channel of every run is decoded against MAJ. This
// is the only workload where mag, fft and dispersion do the work; the
// serving layers stay idle.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "common.h"
#include "core/encoding.h"
#include "core/micromag_gate.h"
#include "util/error.h"

namespace perfbench {
namespace {

constexpr std::size_t kInputs = 3;
constexpr std::size_t kChannels = 8;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kPatterns = std::size_t{1} << kInputs;
constexpr std::size_t kPasses = 64;

struct Setup {
  double design_us = 0.0;
  double calibrate_s = 0.0;
  std::unique_ptr<sw::core::MicromagGateRunner> prototype;
  std::vector<sw::core::Bits> patterns;
  /// Pattern indices, kPasses seeded permutations of 0..7 back to back.
  std::vector<std::size_t> order;
};

/// Failure text when a run's decoded channels disagree with MAJ, else "".
/// Tracks the smallest decision margin seen.
std::string check_run(const sw::core::MicromagRun& run,
                      const sw::core::Bits& pattern, double& min_margin) {
  const std::uint8_t expected = sw::core::majority(pattern) ? 1 : 0;
  if (run.channels.size() != kChannels) return "wrong channel count";
  for (const auto& ch : run.channels) {
    min_margin = std::min(min_margin, ch.margin);
    if (ch.logic != expected) {
      return "channel " + std::to_string(ch.channel) +
             " decoded " + std::to_string(ch.logic) + " for a MAJ of " +
             std::to_string(expected);
    }
  }
  return "";
}

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  auto gate = sw::bench::make_byte_gate_setup(kChannels);
  s->design_us = seconds_since(t0) * 1e6;

  s->patterns = sw::core::all_patterns(kInputs);
  auto rng = seeded_rng(seed, /*stream=*/4);
  for (std::size_t p = 0; p < kPasses; ++p) {
    std::vector<std::size_t> pass(kPatterns);
    for (std::size_t i = 0; i < kPatterns; ++i) pass[i] = i;
    for (std::size_t i = kPatterns - 1; i > 0; --i) {
      std::swap(pass[i], pass[rng() % (i + 1)]);
    }
    s->order.insert(s->order.end(), pass.begin(), pass.end());
  }

  // The first run calibrates the per-channel reference phases; the worker
  // threads copy the calibrated runner.
  s->prototype = std::make_unique<sw::core::MicromagGateRunner>(
      std::move(gate.layout), gate.wg, gate.cfg);
  const auto t1 = Clock::now();
  const auto& first = s->patterns[s->order.front()];
  const auto run = s->prototype->run_uniform(first);
  s->calibrate_s = seconds_since(t1);
  double margin = 1.0;
  const std::string bad = check_run(run, first, margin);
  SW_REQUIRE(bad.empty(), "calibration run failed: " + bad);
  return s;
}

struct Window {
  std::vector<double> run_s;
  std::vector<double> sim_s;
  std::vector<std::string> failures;
  std::array<bool, kPatterns> covered{};
  double min_margin = 1.0;
  double wall_s = 0.0;
};

/// Threads take sequence positions until `seconds` pass, then finish the
/// pass under way: the window is whole passes over the 8 patterns, at
/// least one.
Window run_window(const Setup& s, double seconds) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> cursor{0};
  // Positions [0, end) run. The first thread to see the deadline rounds its
  // position up to a pass boundary; every earlier position is already
  // taken, and every later one below the boundary is taken next.
  std::atomic<std::size_t> end{s.order.size()};
  std::vector<Window> logs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, &log = logs[t], &cursor, &end, deadline] {
      sw::core::MicromagGateRunner runner = *s.prototype;
      for (;;) {
        const std::size_t pos = cursor.fetch_add(1);
        if (Clock::now() >= deadline) {
          const std::size_t boundary = std::max(
              kPatterns, (pos + kPatterns - 1) / kPatterns * kPatterns);
          std::size_t unset = s.order.size();
          end.compare_exchange_strong(unset, boundary);
        }
        if (pos >= end.load() || pos >= s.order.size()) break;
        const std::size_t p = s.order[pos];
        const auto t0 = Clock::now();
        const auto run = runner.run_uniform(s.patterns[p]);
        log.run_s.push_back(seconds_since(t0));
        log.sim_s.push_back(run.times.empty() ? 0.0 : run.times.back());
        const std::string bad = check_run(run, s.patterns[p], log.min_margin);
        if (bad.empty()) {
          log.covered[p] = true;
        } else {
          log.failures.push_back("pattern " + std::to_string(p) + ": " + bad);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Window w;
  w.wall_s = seconds_since(start);
  for (const auto& log : logs) {
    w.run_s.insert(w.run_s.end(), log.run_s.begin(), log.run_s.end());
    w.sim_s.insert(w.sim_s.end(), log.sim_s.begin(), log.sim_s.end());
    w.failures.insert(w.failures.end(), log.failures.begin(),
                      log.failures.end());
    w.min_margin = std::min(w.min_margin, log.min_margin);
    for (std::size_t p = 0; p < kPatterns; ++p) {
      w.covered[p] = w.covered[p] || log.covered[p];
    }
  }
  return w;
}

/// Two threads run independent simulations back to back, so the sustained
/// rate is threads / per-run time; the median run time keeps one
/// descheduled run from moving it.
double patterns_per_s(const Window& w) {
  return static_cast<double>(kThreads) / median(w.run_s);
}

}  // namespace

Result run_micromag_validate(const RunConfig& config) {
  Result result;
  std::unique_ptr<Setup> setup;
  const double setup_s =
      timed_setups(config.traced ? 1 : config.setup_reps, setup,
                   [&] { return make_setup(config.seed); });
  // Every window is whole passes, so each must verify all 8 patterns.
  const int windows = config.traced ? 1 : kWindows;
  const Window w = fastest_window(
      windows,
      [&] {
        Window win = run_window(*setup, config.seconds / windows);
        result.attempted += win.run_s.size();
        for (const auto& f : win.failures) result.fail(f);
        const auto covered = static_cast<std::size_t>(
            std::count(win.covered.begin(), win.covered.end(), true));
        if (covered != kPatterns) {
          result.correct = false;
          result.note("FAILED: only " + std::to_string(covered) +
                      " of 8 patterns decoded correctly on all channels");
        }
        return win;
      },
      patterns_per_s);
  char line[256];
  std::snprintf(line, sizeof line,
                "fastest window: %zu runs over %zu threads in %.2f s, 8 "
                "patterns x 8 channels verified against MAJ in every window; "
                "words_per_s = patterns/s = threads / median run time",
                w.run_s.size(), kThreads, w.wall_s);
  result.note(line);

  LatencySample latencies;
  for (const double r : w.run_s) latencies.add(r * 1e6);
  report_latency(result, latencies,
                 "one pattern's LLG run and decode, fastest window");

  if (!config.traced) {
    result.set("setup_s", setup_s);
    result.set("words_per_s", patterns_per_s(w));
    result.set("requests_per_s", patterns_per_s(w));
    result.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  double run_total = 0.0;
  double sim_total = 0.0;
  for (std::size_t i = 0; i < w.run_s.size(); ++i) {
    run_total += w.run_s[i];
    sim_total += w.sim_s[i];
  }
  result.set("core.design_us", setup->design_us);
  result.set("core.calibrate_s", setup->calibrate_s);
  result.set("core.min_margin", w.min_margin);
  result.set("mag.run_s", run_total / static_cast<double>(w.run_s.size()));
  result.set("mag.sim_ns_per_host_s", sim_total * 1e9 / run_total);
  const double thread_s = static_cast<double>(kThreads) * w.wall_s;
  result.set("unattributed_pct", 100.0 * (thread_s - run_total) / thread_s);
  // This path has no tracing to switch on: the traced run is the plain run.
  result.set("trace_overhead_pct", 0.0);
  result.note("unattributed_pct: thread time outside run_uniform (waiting "
              "for the other thread at the end of the window)");
  return result;
}

}  // namespace perfbench
