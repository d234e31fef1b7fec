#include "mag/simulation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/constants.h"
#include "util/error.h"

namespace sw::mag {

Simulation::Simulation(const Mesh& mesh, const Material& mat,
                       const IntegratorOptions& opts)
    : mesh_(mesh),
      mat_(mat),
      m_(mesh, mat.easy_axis.normalized()),
      h_scratch_(mesh),
      integrator_(opts) {
  mat.validate();
}

Probe& Simulation::add_probe(std::string name, double x_center, double width,
                             double sample_interval) {
  probes_.emplace_back(std::move(name), mesh_, x_center, width,
                       sample_interval);
  return probes_.back();
}

void Simulation::effective_field(double t, const VectorField& m,
                                 VectorField& H) const {
  H.zero();
  for (const auto& term : terms_) term->accumulate(t, m, H);
}

void Simulation::set_damping_profile(std::vector<double> alpha_per_cell) {
  SW_REQUIRE(alpha_per_cell.empty() || alpha_per_cell.size() == m_.size(),
             "damping profile size mismatch");
  alpha_profile_ = std::move(alpha_per_cell);
}

void Simulation::add_absorbing_ends(double width, double alpha_max) {
  SW_REQUIRE(width > 0.0 && width < 0.5 * mesh_.size_x(),
             "absorber width must be positive and below half the guide");
  SW_REQUIRE(alpha_max >= mat_.alpha, "alpha_max below material damping");
  if (alpha_profile_.empty()) {
    alpha_profile_.assign(m_.size(), mat_.alpha);
  }
  const std::size_t nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  const double lx = mesh_.size_x();
  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t i = 0; i < nx; ++i) {
        const double x = (static_cast<double>(i) + 0.5) * mesh_.dx();
        const double edge = std::min(x, lx - x);
        if (edge >= width) continue;
        const double u = 1.0 - edge / width;  // 0 at inner edge, 1 at wall
        const double a = mat_.alpha + (alpha_max - mat_.alpha) * u * u;
        auto& cell = alpha_profile_[mesh_.index(i, j, k)];
        cell = std::max(cell, a);
      }
    }
  }
}

void Simulation::run_until(double t_end) {
  SW_REQUIRE(t_end >= t_, "t_end is in the past");
  LlgParams p;
  p.gamma_mu0 = sw::util::kGammaMu0;
  p.alpha = mat_.alpha;
  p.precession = true;
  std::vector<double> prefactors;
  if (!alpha_profile_.empty()) {
    prefactors = damping_prefactors(p.gamma_mu0, alpha_profile_);
    p.alpha_per_cell = &alpha_profile_;
    p.prefactor_per_cell = &prefactors;
  }

  const RhsFn rhs = [this, &p](double t, const VectorField& m,
                               VectorField& dmdt) {
    effective_field(t, m, h_scratch_);
    llg_rhs(p, m, h_scratch_, dmdt);
  };

  // Chunk the run at probe deadlines so samples land on exact times.
  double next_deadline = t_end;
  const auto earliest_probe_deadline = [this]() {
    double d = std::numeric_limits<double>::infinity();
    for (auto& pr : probes_) d = std::min(d, pr.next_deadline());
    return d;
  };

  if (probes_.empty()) {
    integrator_.advance(rhs, m_, t_, t_end);
    t_ = t_end;
    return;
  }

  while (t_ < t_end) {
    next_deadline = std::min(earliest_probe_deadline(), t_end);
    if (next_deadline <= t_ + 1e-30) {
      for (auto& pr : probes_) pr.maybe_sample(t_, m_);
      next_deadline = std::min(earliest_probe_deadline(), t_end);
      if (next_deadline <= t_ + 1e-30) break;  // nothing left before t_end
    }
    integrator_.advance(rhs, m_, t_, next_deadline);
    t_ = next_deadline;
    for (auto& pr : probes_) pr.maybe_sample(t_, m_);
  }
  if (t_ < t_end) {
    integrator_.advance(rhs, m_, t_, t_end);
    t_ = t_end;
  }
}

double Simulation::relax(double torque_tol, double max_time,
                         double relax_alpha) {
  LlgParams p;
  p.gamma_mu0 = sw::util::kGammaMu0;
  p.alpha = relax_alpha;
  p.precession = false;

  const RhsFn rhs = [this, &p](double t, const VectorField& m,
                               VectorField& dmdt) {
    effective_field(t, m, h_scratch_);
    llg_rhs(p, m, h_scratch_, dmdt);
  };

  IntegratorOptions ro = integrator_.options();
  ro.stepper = Stepper::kRkf54;
  ro.tolerance = 1e-4;
  Integrator relax_integrator(ro);

  double t = 0.0;
  const double chunk = std::max(max_time / 200.0, ro.dt_max * 10.0);
  double torque = std::numeric_limits<double>::infinity();
  while (t < max_time) {
    const double t_next = std::min(t + chunk, max_time);
    relax_integrator.advance(rhs, m_, t, t_next);
    t = t_next;
    effective_field(t_, m_, h_scratch_);
    torque = max_torque(m_, h_scratch_);
    if (torque < torque_tol) break;
  }
  return torque;
}

double Simulation::current_max_torque() const {
  effective_field(t_, m_, h_scratch_);
  return max_torque(m_, h_scratch_);
}

}  // namespace sw::mag
