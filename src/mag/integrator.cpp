#include "mag/integrator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mag/kernels.h"
#include "util/error.h"
#include "util/strings.h"

namespace sw::mag {

Stepper stepper_from_name(const std::string& name) {
  const std::string t = sw::util::to_lower(name);
  if (t == "euler") return Stepper::kEuler;
  if (t == "heun" || t == "rk2") return Stepper::kHeun;
  if (t == "rk4") return Stepper::kRk4;
  if (t == "rkf54" || t == "rkf45" || t == "adaptive") return Stepper::kRkf54;
  SW_REQUIRE(false, "unknown stepper: " + name);
}

const char* stepper_name(Stepper s) {
  switch (s) {
    case Stepper::kEuler: return "euler";
    case Stepper::kHeun: return "heun";
    case Stepper::kRk4: return "rk4";
    case Stepper::kRkf54: return "rkf54";
  }
  return "unknown";
}

namespace {

// m += h6 k1 + h3 k2 + h3 k3 + h6 k4, added term by term, then (optionally)
// renormalised: per cell, the operation sequence of four add_scaled passes
// and a normalize pass, in one pass.
SW_MAG_CLONES void rk4_finish(
    std::size_t n, double* __restrict mx, double* __restrict my,
    double* __restrict mz, const double* __restrict k1x,
    const double* __restrict k1y, const double* __restrict k1z,
    const double* __restrict k2x, const double* __restrict k2y,
    const double* __restrict k2z, const double* __restrict k3x,
    const double* __restrict k3y, const double* __restrict k3z,
    const double* __restrict k4x, const double* __restrict k4y,
    const double* __restrict k4z, double h6, double h3, bool renormalize) {
  for (std::size_t c = 0; c < n; ++c) {
    double x = mx[c] + k1x[c] * h6;
    double y = my[c] + k1y[c] * h6;
    double z = mz[c] + k1z[c] * h6;
    x = x + k2x[c] * h3;
    y = y + k2y[c] * h3;
    z = z + k2z[c] * h3;
    x = x + k3x[c] * h3;
    y = y + k3y[c] * h3;
    z = z + k3z[c] * h3;
    x = x + k4x[c] * h6;
    y = y + k4y[c] * h6;
    z = z + k4z[c] * h6;
    kernels::normalize_cell(x, y, z, renormalize);
    mx[c] = x;
    my[c] = y;
    mz[c] = z;
  }
}

}  // namespace

void Integrator::ensure_scratch(const VectorField& m) {
  if (k1_.mesh() != m.mesh()) {
    k1_ = VectorField(m.mesh());
    k2_ = VectorField(m.mesh());
    k3_ = VectorField(m.mesh());
    k4_ = VectorField(m.mesh());
    k5_ = VectorField(m.mesh());
    k6_ = VectorField(m.mesh());
    tmp_ = VectorField(m.mesh());
    out_ = VectorField(m.mesh());
  }
}

void Integrator::step_euler(const RhsFn& rhs, VectorField& m, double t,
                            double dt) {
  rhs(t, m, k1_);
  stats_.rhs_evals += 1;
  m.add_scaled(k1_, dt);
  if (opts_.renormalize) m.normalize();
}

void Integrator::step_heun(const RhsFn& rhs, VectorField& m, double t,
                           double dt) {
  rhs(t, m, k1_);
  tmp_.assign_sum(m, k1_, dt);
  rhs(t + dt, tmp_, k2_);
  stats_.rhs_evals += 2;
  m.add_scaled(k1_, 0.5 * dt);
  m.add_scaled(k2_, 0.5 * dt);
  if (opts_.renormalize) m.normalize();
}

void Integrator::step_rk4(const RhsFn& rhs, VectorField& m, double t,
                          double dt) {
  rhs(t, m, k1_);
  tmp_.assign_sum(m, k1_, 0.5 * dt);
  rhs(t + 0.5 * dt, tmp_, k2_);
  tmp_.assign_sum(m, k2_, 0.5 * dt);
  rhs(t + 0.5 * dt, tmp_, k3_);
  tmp_.assign_sum(m, k3_, dt);
  rhs(t + dt, tmp_, k4_);
  stats_.rhs_evals += 4;
  rk4_finish(m.size(), m.x(), m.y(), m.z(), k1_.x(), k1_.y(), k1_.z(),
             k2_.x(), k2_.y(), k2_.z(), k3_.x(), k3_.y(), k3_.z(), k4_.x(),
             k4_.y(), k4_.z(), dt / 6.0, dt / 3.0, opts_.renormalize);
}

double Integrator::step_rkf54(const RhsFn& rhs, const VectorField& m,
                              VectorField& out, double t, double dt) {
  // Runge-Kutta-Fehlberg 4(5) coefficients.
  static constexpr double a2 = 0.25;
  static constexpr double b31 = 3.0 / 32.0, b32 = 9.0 / 32.0;
  static constexpr double b41 = 1932.0 / 2197.0, b42 = -7200.0 / 2197.0,
                          b43 = 7296.0 / 2197.0;
  static constexpr double b51 = 439.0 / 216.0, b52 = -8.0,
                          b53 = 3680.0 / 513.0, b54 = -845.0 / 4104.0;
  static constexpr double b61 = -8.0 / 27.0, b62 = 2.0,
                          b63 = -3544.0 / 2565.0, b64 = 1859.0 / 4104.0,
                          b65 = -11.0 / 40.0;
  // 5th-order solution weights.
  static constexpr double c1 = 16.0 / 135.0, c3 = 6656.0 / 12825.0,
                          c4 = 28561.0 / 56430.0, c5 = -9.0 / 50.0,
                          c6 = 2.0 / 55.0;
  // Error weights (5th minus 4th).
  static constexpr double e1 = 16.0 / 135.0 - 25.0 / 216.0;
  static constexpr double e3 = 6656.0 / 12825.0 - 1408.0 / 2565.0;
  static constexpr double e4 = 28561.0 / 56430.0 - 2197.0 / 4104.0;
  static constexpr double e5 = -9.0 / 50.0 + 1.0 / 5.0;
  static constexpr double e6 = 2.0 / 55.0;

  rhs(t, m, k1_);
  tmp_.assign_sum(m, k1_, a2 * dt);
  rhs(t + a2 * dt, tmp_, k2_);

  tmp_.assign_sum(m, k1_, b31 * dt);
  tmp_.add_scaled(k2_, b32 * dt);
  rhs(t + 0.375 * dt, tmp_, k3_);

  tmp_.assign_sum(m, k1_, b41 * dt);
  tmp_.add_scaled(k2_, b42 * dt);
  tmp_.add_scaled(k3_, b43 * dt);
  rhs(t + 12.0 / 13.0 * dt, tmp_, k4_);

  tmp_.assign_sum(m, k1_, b51 * dt);
  tmp_.add_scaled(k2_, b52 * dt);
  tmp_.add_scaled(k3_, b53 * dt);
  tmp_.add_scaled(k4_, b54 * dt);
  rhs(t + dt, tmp_, k5_);

  tmp_.assign_sum(m, k1_, b61 * dt);
  tmp_.add_scaled(k2_, b62 * dt);
  tmp_.add_scaled(k3_, b63 * dt);
  tmp_.add_scaled(k4_, b64 * dt);
  tmp_.add_scaled(k5_, b65 * dt);
  rhs(t + 0.5 * dt, tmp_, k6_);

  stats_.rhs_evals += 6;

  out.assign_sum(m, k1_, c1 * dt);
  out.add_scaled(k3_, c3 * dt);
  out.add_scaled(k4_, c4 * dt);
  out.add_scaled(k5_, c5 * dt);
  out.add_scaled(k6_, c6 * dt);

  // Error estimate: max over cells of |e . k| * dt.
  double err = 0.0;
  for (std::size_t c = 0; c < m.size(); ++c) {
    const Vec3 e = k1_[c] * e1 + k3_[c] * e3 + k4_[c] * e4 + k5_[c] * e5 +
                   k6_[c] * e6;
    err = std::max(err, e.norm2());
  }
  return std::sqrt(err) * dt;
}

const StepStats& Integrator::advance(const RhsFn& rhs, VectorField& m,
                                     double t, double t_end) {
  SW_REQUIRE(t_end >= t, "t_end before t");
  ensure_scratch(m);

  if (opts_.stepper != Stepper::kRkf54) {
    // Fixed-step loop with a final partial step landing exactly on t_end.
    const double dt0 = opts_.dt;
    SW_REQUIRE(dt0 > 0.0, "dt must be positive");
    while (t < t_end) {
      const double dt = std::min(dt0, t_end - t);
      switch (opts_.stepper) {
        case Stepper::kEuler: step_euler(rhs, m, t, dt); break;
        case Stepper::kHeun: step_heun(rhs, m, t, dt); break;
        case Stepper::kRk4: step_rk4(rhs, m, t, dt); break;
        case Stepper::kRkf54: break;  // unreachable
      }
      t += dt;
      stats_.steps_taken += 1;
      stats_.last_dt = dt;
    }
    return stats_;
  }

  // Adaptive loop.
  double dt = std::clamp(opts_.dt, opts_.dt_min, opts_.dt_max);
  while (t < t_end) {
    dt = std::min(dt, t_end - t);
    const double err = step_rkf54(rhs, m, out_, t, dt);
    if (err <= opts_.tolerance || dt <= opts_.dt_min * (1.0 + 1e-12)) {
      m = out_;
      if (opts_.renormalize) m.normalize();
      t += dt;
      stats_.steps_taken += 1;
      stats_.last_dt = dt;
    } else {
      stats_.steps_rejected += 1;
    }
    // PI-free classic step-size update with safety factor.
    const double scale =
        (err > 0.0) ? 0.9 * std::pow(opts_.tolerance / err, 0.2) : 2.0;
    dt = std::clamp(dt * std::clamp(scale, 0.2, 4.0), opts_.dt_min,
                    opts_.dt_max);
    SW_REQUIRE(stats_.steps_rejected < 1000000, "adaptive stepper stalled");
  }
  return stats_;
}

}  // namespace sw::mag
