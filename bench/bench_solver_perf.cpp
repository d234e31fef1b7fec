// Experiment E8 — solver and analysis performance, plus the design-choice
// ablations called out in DESIGN.md §6:
//   * one byte-gate pattern: the micromagnetic validation run, end to end
//   * integrator comparison (Euler / Heun / RK4 / RKF54) in cell-steps/s
//   * field-term costs (exchange, local demag, Newell FFT demag)
//   * FFT throughput across sizes (radix-2 vs Bluestein)
//   * Goertzel single-bin readout vs full-spectrum FFT readout.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.h"
#include "core/encoding.h"
#include "core/micromag_gate.h"
#include "fft/fft.h"
#include "fft/goertzel.h"
#include "fft/spectrum.h"
#include "mag/anisotropy.h"
#include "mag/demag_factors.h"
#include "mag/demag_local.h"
#include "mag/demag_newell.h"
#include "mag/exchange.h"
#include "mag/integrator.h"
#include "mag/simulation.h"
#include "util/constants.h"

namespace {

using namespace sw;
using bench::paper_waveguide;

mag::Simulation make_chain_sim(std::size_t nx, mag::Stepper stepper) {
  const auto wg = paper_waveguide();
  const mag::Mesh mesh(nx, 1, 1, 2e-9, wg.width, wg.thickness);
  mag::IntegratorOptions opts;
  opts.stepper = stepper;
  opts.dt = 1.0e-13;
  opts.dt_max = 5e-13;
  opts.tolerance = 1e-5;
  mag::Simulation sim(mesh, wg.material, opts);
  sim.add_term<mag::ExchangeField>(mesh, wg.material);
  sim.add_term<mag::UniaxialAnisotropyField>(wg.material);
  sim.add_term<mag::DemagLocalField>(
      wg.material, mag::demag_factors_waveguide(wg.width, wg.thickness));
  // Seed a little dynamics so the adaptive stepper has something to chase.
  auto& m = sim.magnetization();
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double x = 0.02 * std::sin(0.1 * static_cast<double>(i));
    m.set(i, mag::Vec3{x, 0.0, 1.0}.normalized());
  }
  return sim;
}

// One MicromagGateRunner::run_uniform of the reduced-model byte gate (8
// channels, 3-input MAJ): the whole LLG run plus decode that the paper's
// OOMMF-equivalent validation repeats per input pattern. The runner is
// calibrated before timing; iterations cycle through the 8 patterns.
void BM_MicromagBytePattern(benchmark::State& state) {
  auto gate = bench::make_byte_gate_setup(8);
  core::MicromagGateRunner runner(gate.layout, gate.wg, gate.cfg);
  const auto patterns = core::all_patterns(3);
  const auto calibration = runner.run_uniform(patterns[0]);
  const double cells =
      std::ceil(runner.guide_length() / gate.cfg.cell_size);
  // Probes chunk the run at each sample deadline, and each chunk takes
  // ceil(sample_dt / dt) fixed steps, the last one partial.
  const double steps =
      static_cast<double>(calibration.times.size() - 1) *
      std::ceil(gate.cfg.sample_dt / gate.cfg.integrator.dt);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runner.run_uniform(patterns[next++ % patterns.size()]));
  }
  const auto runs = static_cast<double>(state.iterations());
  state.counters["patterns_per_s"] =
      benchmark::Counter(runs, benchmark::Counter::kIsRate);
  state.counters["cell_steps_per_s"] =
      benchmark::Counter(runs * cells * steps, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MicromagBytePattern)->Unit(benchmark::kMillisecond);

void BM_Integrator(benchmark::State& state) {
  const auto stepper = static_cast<mag::Stepper>(state.range(0));
  const std::size_t nx = 512;
  auto sim = make_chain_sim(nx, stepper);
  double t = sim.time();
  for (auto _ : state) {
    t += 2e-12;
    sim.run_until(t);
  }
  state.counters["cell_steps_per_s"] = benchmark::Counter(
      static_cast<double>(sim.stats().steps_taken * nx),
      benchmark::Counter::kIsRate);
  state.SetLabel(mag::stepper_name(stepper));
}
BENCHMARK(BM_Integrator)
    ->Arg(static_cast<int>(mag::Stepper::kEuler))
    ->Arg(static_cast<int>(mag::Stepper::kHeun))
    ->Arg(static_cast<int>(mag::Stepper::kRk4))
    ->Arg(static_cast<int>(mag::Stepper::kRkf54))
    ->Unit(benchmark::kMicrosecond);

void BM_FieldTermExchange(benchmark::State& state) {
  const auto wg = paper_waveguide();
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  const mag::Mesh mesh(nx, 1, 1, 2e-9, wg.width, wg.thickness);
  const mag::ExchangeField term(mesh, wg.material);
  const mag::VectorField m(mesh, {0, 0, 1});
  mag::VectorField h(mesh);
  for (auto _ : state) {
    h.zero();
    term.accumulate(0.0, m, h);
    benchmark::DoNotOptimize(h[0]);
  }
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(nx), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FieldTermExchange)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FieldTermDemagLocal(benchmark::State& state) {
  const auto wg = paper_waveguide();
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  const mag::Mesh mesh(nx, 1, 1, 2e-9, wg.width, wg.thickness);
  const mag::DemagLocalField term(
      wg.material, mag::demag_factors_waveguide(wg.width, wg.thickness));
  const mag::VectorField m(mesh, {0, 0, 1});
  mag::VectorField h(mesh);
  for (auto _ : state) {
    h.zero();
    term.accumulate(0.0, m, h);
    benchmark::DoNotOptimize(h[0]);
  }
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(nx), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FieldTermDemagLocal)->Arg(1024)->Arg(4096);

void BM_FieldTermDemagNewell(benchmark::State& state) {
  const auto wg = paper_waveguide();
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  const mag::Mesh mesh(nx, 1, 1, 2e-9, wg.width, wg.thickness);
  const mag::DemagNewellField term(mesh, wg.material);
  const mag::VectorField m(mesh, {0, 0, 1});
  mag::VectorField h(mesh);
  for (auto _ : state) {
    h.zero();
    term.accumulate(0.0, m, h);
    benchmark::DoNotOptimize(h[0]);
  }
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(nx), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FieldTermDemagNewell)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_FftPow2(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<fft::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = fft::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto copy = data;
    fft::fft(copy);
    benchmark::DoNotOptimize(copy[0]);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<fft::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = fft::Complex(std::sin(0.1 * static_cast<double>(i)), 0.0);
  }
  for (auto _ : state) {
    auto copy = data;
    fft::fft(copy);
    benchmark::DoNotOptimize(copy[0]);
  }
}
BENCHMARK(BM_FftBluestein)->Arg(1000)->Arg(2200)->Arg(4001);

void BM_ReadoutGoertzel8(benchmark::State& state) {
  std::vector<double> sig(2000);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    for (int c = 1; c <= 8; ++c) {
      sig[i] += 0.001 * std::cos(sw::util::kTwoPi * 1e10 * c *
                                 static_cast<double>(i) * 1e-12);
    }
  }
  for (auto _ : state) {
    for (int c = 1; c <= 8; ++c) {
      benchmark::DoNotOptimize(fft::goertzel(sig, 1e12, 1e10 * c));
    }
  }
}
BENCHMARK(BM_ReadoutGoertzel8);

void BM_ReadoutFullFft(benchmark::State& state) {
  std::vector<double> sig(2000);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    for (int c = 1; c <= 8; ++c) {
      sig[i] += 0.001 * std::cos(sw::util::kTwoPi * 1e10 * c *
                                 static_cast<double>(i) * 1e-12);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fft::amplitude_spectrum(sig, 1e12, fft::WindowKind::kHann));
  }
}
BENCHMARK(BM_ReadoutFullFft);

void BM_NewellKernelBuild(benchmark::State& state) {
  const auto wg = paper_waveguide();
  const std::size_t nx = static_cast<std::size_t>(state.range(0));
  const mag::Mesh mesh(nx, 1, 1, 2e-9, wg.width, wg.thickness);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mag::DemagNewellField(mesh, wg.material));
  }
}
BENCHMARK(BM_NewellKernelBuild)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
