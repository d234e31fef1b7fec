// Shared experiment plumbing for the paper-reproduction benches.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/encoding.h"
#include "core/gate_design.h"
#include "core/micromag_gate.h"
#include "dispersion/local_1d.h"
#include "dispersion/waveguide.h"
#include "mag/material.h"
#include "wavesim/kernels/kernel.h"
#include "wavesim/precision.h"

namespace sw::bench {

/// The paper's device: Fe60Co20B20 PMA waveguide, 50 nm x 1 nm.
inline sw::disp::Waveguide paper_waveguide() {
  sw::disp::Waveguide wg;
  wg.material = sw::mag::make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  return wg;
}

/// The paper's eight channel frequencies: 10, 20, ..., 80 GHz.
inline std::vector<double> paper_frequencies() {
  std::vector<double> f;
  for (int i = 1; i <= 8; ++i) f.push_back(1e10 * i);
  return f;
}

/// Reduced-model byte gate: designed against the solver-consistent 1-D
/// dispersion so the micromagnetic run and the layout agree exactly.
struct ByteGateSetup {
  sw::disp::Waveguide wg;
  sw::core::GateLayout layout;
  sw::core::MicromagConfig cfg;
};

inline ByteGateSetup make_byte_gate_setup(std::size_t channels = 8,
                                          double t_end = 2.2e-9) {
  ByteGateSetup s;
  s.wg = paper_waveguide();
  s.cfg = sw::core::MicromagConfig{};
  s.cfg.t_end = t_end;

  auto model = sw::disp::LocalDemag1DDispersion::from_waveguide(s.wg);
  model.set_discretization(s.cfg.cell_size);
  const sw::core::InlineGateDesigner designer(model);

  sw::core::GateSpec spec;
  spec.num_inputs = 3;
  const auto all = paper_frequencies();
  spec.frequencies.assign(all.begin(), all.begin() + channels);
  s.layout = designer.design(spec);
  return s;
}

/// Run all 2^m uniform patterns through a micromagnetic runner, splitting
/// across `threads` workers (each worker gets a calibrated copy).
inline std::vector<sw::core::MicromagRun> run_all_patterns(
    const sw::core::MicromagGateRunner& calibrated_prototype,
    std::size_t num_inputs, unsigned threads) {
  const auto patterns = sw::core::all_patterns(num_inputs);
  std::vector<sw::core::MicromagRun> runs(patterns.size());
  threads = std::max(1u, threads);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&, w]() {
      sw::core::MicromagGateRunner local = calibrated_prototype;
      for (std::size_t p = w; p < patterns.size(); p += threads) {
        runs[p] = local.run_uniform(patterns[p]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return runs;
}

/// Best wall-clock seconds of three runs of `fn`. The CI-gating floor
/// checks use this so one noisy-neighbour stall inside a short window does
/// not read as a regression; keeping the rep policy here keeps every bench
/// measuring the same way.
template <typename Fn>
inline double best_of_three_seconds(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Pretty "I1=0, I2=1, I3=0"-style label for a pattern.
inline std::string pattern_label(const sw::core::Bits& bits) {
  std::string s;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i) s += ", ";
    s += "I" + std::to_string(i + 1) + "=" + (bits[i] ? "1" : "0");
  }
  return s;
}

/// Machine-readable bench results: a flat list of {name, kernel,
/// precision, words/s} rows plus host capability flags, written as one
/// JSON object so CI can upload the file as a workflow artifact and the
/// perf trajectory is tracked instead of discarded with the job log. The
/// writer is deliberately tiny (no JSON library in the image): every
/// string it emits comes from this codebase's fixed identifiers, so
/// escaping reduces to forbidding the characters that never occur.
class BenchJson {
 public:
  /// `default_path` is used unless SW_BENCH_JSON overrides it (the CI
  /// workflow leaves the default so artifacts land in the working dir).
  explicit BenchJson(std::string default_path)
      : path_(default_path) {
    if (const char* env = std::getenv("SW_BENCH_JSON");
        env != nullptr && *env != '\0') {
      path_ = env;
    }
  }

  void add(const std::string& name, const std::string& kernel,
           const std::string& precision, double words_per_s) {
    rows_.push_back({name, kernel, precision, words_per_s});
  }

  /// Phase-breakdown row: time spent in one request phase during the
  /// named experiment, taken from the serving-side phase histograms
  /// (obs::HistogramSnapshot mean + count). Emitted as a separate
  /// "phases" array so `results` keeps its flat shape; bench_summary.py
  /// renders them as their own table.
  void add_phase(const std::string& name, const std::string& phase,
                 double mean_seconds, std::uint64_t count) {
    phases_.push_back({name, phase, mean_seconds, count});
  }

  /// Writes the file; returns false (and says so on stderr) when the path
  /// is unwritable. Benches call this after their floor checks so a gating
  /// failure still aborts before a half-written artifact uploads.
  bool write(const std::string& bench_binary) const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot open %s for writing\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_binary.c_str());
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"avx2\": %s,\n",
                 sw::wavesim::kernels::avx2_kernel() != nullptr ? "true"
                                                                : "false");
    std::fprintf(f, "    \"avx512\": %s,\n",
                 sw::wavesim::kernels::avx512_kernel() != nullptr ? "true"
                                                                  : "false");
    std::fprintf(f, "    \"active_kernel\": \"%s\",\n",
                 std::string(sw::wavesim::active_kernel_name()).c_str());
    std::fprintf(f, "    \"active_precision\": \"%s\",\n",
                 std::string(sw::wavesim::precision_name(
                                 sw::wavesim::active_precision()))
                     .c_str());
    std::fprintf(f, "    \"compiler\": \"%s\"\n  },\n",
                 json_escape(__VERSION__).c_str());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"kernel\": \"%s\", "
                   "\"precision\": \"%s\", \"words_per_s\": %.1f",
                   r.name.c_str(), r.kernel.c_str(), r.precision.c_str(),
                   r.words_per_s);
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", phases_.empty() ? "" : ",");
    if (!phases_.empty()) {
      std::fprintf(f, "  \"phases\": [\n");
      for (std::size_t i = 0; i < phases_.size(); ++i) {
        const PhaseRow& p = phases_[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"phase\": \"%s\", "
                     "\"mean_seconds\": %.9g, \"count\": %llu}%s\n",
                     p.name.c_str(), p.phase.c_str(), p.mean_seconds,
                     static_cast<unsigned long long>(p.count),
                     i + 1 < phases_.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("bench results written to %s\n", path_.c_str());
    return true;
  }

 private:
  /// Minimal escape for the one free-form string (the compiler banner):
  /// every other emitted string is a codebase-controlled identifier.
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
      out += c;
    }
    return out;
  }

  struct Row {
    std::string name;
    std::string kernel;
    std::string precision;
    double words_per_s = 0.0;
  };
  struct PhaseRow {
    std::string name;
    std::string phase;
    double mean_seconds = 0.0;
    std::uint64_t count = 0;
  };
  std::string path_;
  std::vector<Row> rows_;
  std::vector<PhaseRow> phases_;
};

}  // namespace sw::bench
