// Analytic travelling-wave superposition engine.
//
// Models each transducer as a point source of damped plane waves on a 1-D
// waveguide and evaluates their superposition at arbitrary positions, either
// as steady-state phasors (per frequency) or as time-domain signals with
// group-velocity arrival gating. This is the fast functional model of the
// multi-frequency gate: it captures exactly the physics the paper's logic
// scheme relies on (same-frequency interference, per-frequency isolation,
// phase accumulation k*d, damping decay) at a negligible cost compared to
// the micromagnetic solver, which remains the ground truth.
#pragma once

#include <complex>
#include <mutex>
#include <span>
#include <vector>

#include "dispersion/model.h"

namespace sw::wavesim {

/// Relative tolerance for deciding that a source and a detection frequency
/// are the same species. The one tolerance of the scalar steady_phasor path
/// and of EvalPlan, so their source selection can never diverge.
inline constexpr double kDefaultFreqTol = 1e-6;

/// One wave source on the guide.
struct WaveSource {
  double x = 0.0;          ///< position [m]
  double frequency = 0.0;  ///< drive frequency [Hz]
  double phase = 0.0;      ///< launch phase [rad] (pi encodes logic 1)
  double amplitude = 1.0;  ///< launch amplitude [arb]
  double t_on = 0.0;       ///< drive start [s]
};

class WaveEngine {
 public:
  /// `model` provides k(f) and group velocity; `alpha` is the Gilbert
  /// damping used for the propagation decay length l = v_g / (alpha * omega).
  WaveEngine(const sw::disp::DispersionModel& model, double alpha);

  /// Amplitude decay length [m] at frequency f.
  double decay_length(double f) const;

  /// Steady-state complex amplitude at position x of the frequency-f
  /// component produced by `sources` (only sources within kDefaultFreqTol
  /// relative frequency contribute — different species do not interact).
  std::complex<double> steady_phasor(std::span<const WaveSource> sources,
                                     double x, double f) const;

  /// Time-domain signal at (x, t): superposition of all sources, each gated
  /// by its group arrival time and smoothly ramped over one period.
  double signal(std::span<const WaveSource> sources, double x,
                double t) const;

  /// Sampled time series at x over [t0, t1) with step dt.
  std::vector<double> record(std::span<const WaveSource> sources, double x,
                             double t0, double t1, double dt) const;

  /// Latest group-arrival time from any source to position x (plus
  /// `settle_periods` periods of the slowest contributing frequency); use as
  /// the start of a steady-state detection window.
  double settle_time(std::span<const WaveSource> sources, double x,
                     double settle_periods = 5.0) const;

  double alpha() const { return alpha_; }
  const sw::disp::DispersionModel& model() const { return *model_; }

 private:
  struct Cached {
    double k = 0.0;
    double vg = 0.0;
    double decay = 0.0;
  };
  Cached lookup(double f) const;

  const sw::disp::DispersionModel* model_;
  double alpha_ = 0.0;
  // Tiny memoisation table: gates reuse a handful of frequencies heavily.
  // Guarded by cache_mutex_ (and Cached is returned by value), so one
  // engine can back concurrent evaluator-plan builds across threads; a
  // first-touch dispersion solve runs under the lock, which only
  // serialises cold misses on a handful of frequencies.
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::pair<double, Cached>> cache_;
};

}  // namespace sw::wavesim
