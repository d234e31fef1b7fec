#include "wavesim/wave_engine.h"

#include <cmath>
#include <limits>

#include "util/constants.h"
#include "util/error.h"

namespace sw::wavesim {

using sw::util::kTwoPi;

WaveEngine::WaveEngine(const sw::disp::DispersionModel& model, double alpha)
    : model_(&model), alpha_(alpha) {
  SW_REQUIRE(alpha >= 0.0, "alpha must be non-negative");
}

WaveEngine::Cached WaveEngine::lookup(double f) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (const auto& entry : cache_) {
    if (entry.first == f) return entry.second;
  }
  Cached c;
  c.k = model_->k_from_frequency(f);
  c.vg = model_->group_velocity(c.k);
  SW_REQUIRE(c.vg > 0.0, "non-positive group velocity at this frequency");
  c.decay = (alpha_ > 0.0) ? c.vg / (alpha_ * kTwoPi * f)
                           : std::numeric_limits<double>::infinity();
  cache_.emplace_back(f, c);
  return c;
}

double WaveEngine::decay_length(double f) const { return lookup(f).decay; }

std::complex<double> WaveEngine::steady_phasor(
    std::span<const WaveSource> sources, double x, double f) const {
  std::complex<double> acc{0.0, 0.0};
  for (const auto& s : sources) {
    if (std::abs(s.frequency - f) > kDefaultFreqTol * f) continue;
    const Cached& c = lookup(s.frequency);
    const double d = std::abs(x - s.x);
    const double a = s.amplitude * std::exp(-d / c.decay);
    const double ph = s.phase - c.k * d;
    acc += std::complex<double>(a * std::cos(ph), a * std::sin(ph));
  }
  return acc;
}

double WaveEngine::signal(std::span<const WaveSource> sources, double x,
                          double t) const {
  double acc = 0.0;
  for (const auto& s : sources) {
    const Cached& c = lookup(s.frequency);
    const double d = std::abs(x - s.x);
    const double t_arrive = s.t_on + d / c.vg;
    if (t <= t_arrive) continue;
    const double period = 1.0 / s.frequency;
    // Smooth one-period front so the onset is not a step discontinuity.
    double env = (t - t_arrive) / period;
    env = (env >= 1.0) ? 1.0 : env;
    const double a = s.amplitude * std::exp(-d / c.decay) * env;
    acc += a * std::cos(kTwoPi * s.frequency * (t - s.t_on) + s.phase -
                        c.k * d);
  }
  return acc;
}

std::vector<double> WaveEngine::record(std::span<const WaveSource> sources,
                                       double x, double t0, double t1,
                                       double dt) const {
  SW_REQUIRE(t1 > t0 && dt > 0.0, "bad recording window");
  const std::size_t n = static_cast<std::size_t>((t1 - t0) / dt);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = signal(sources, x, t0 + static_cast<double>(i) * dt);
  }
  return out;
}

double WaveEngine::settle_time(std::span<const WaveSource> sources, double x,
                               double settle_periods) const {
  double t = 0.0;
  double slowest_period = 0.0;
  for (const auto& s : sources) {
    const Cached& c = lookup(s.frequency);
    const double d = std::abs(x - s.x);
    t = std::max(t, s.t_on + d / c.vg);
    slowest_period = std::max(slowest_period, 1.0 / s.frequency);
  }
  return t + settle_periods * slowest_period;
}

}  // namespace sw::wavesim
