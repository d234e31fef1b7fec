// Stochastic thermal field (Brown 1963): Langevin dynamics at finite
// temperature. Each cell receives an independent Gaussian field with
//
//   <H_i(t) H_j(t')> = 2 alpha kB T / (gamma mu0^2 Ms V) delta_ij delta(t-t')
//
// discretised per integrator step as sigma = sqrt(2 alpha kB T /
// (gamma mu0^2 Ms V dt)). The generator is seeded deterministically so
// finite-temperature runs are exactly reproducible.
//
// Note for adaptive steppers: a white-noise term is formally incompatible
// with error-controlled step adaptation; use fixed-step Euler/Heun (the
// standard practice, matching OOMMF's thetaevolve) when temperature > 0.
#pragma once

#include <cstdint>
#include <random>

#include "mag/field_term.h"
#include "mag/material.h"
#include "mag/mesh.h"

namespace sw::mag {

class ThermalField final : public FieldTerm {
 public:
  /// `dt` must equal the integrator's (fixed) step so the noise variance is
  /// scaled correctly.
  ThermalField(const Mesh& mesh, const Material& mat, double temperature,
               double dt, std::uint64_t seed = 0x5917A5EBu);

  void accumulate(double t, const VectorField& m,
                  VectorField& H) const override;
  std::string name() const override { return "thermal"; }
  // Noise does not contribute a well-defined energy; report zero weight.
  double energy_prefactor() const override { return 0.0; }

  /// RMS field per component [A/m].
  double sigma() const { return sigma_; }

  double temperature() const { return temperature_; }

 private:
  Mesh mesh_;
  double temperature_ = 0.0;
  double sigma_ = 0.0;
  std::uint64_t seed_ = 0;
  // The field must be constant within one integrator step (all RHS stages
  // see the same realisation) and refresh between steps: realisations are
  // keyed on the step index derived from t.
  double dt_ = 0.0;
  mutable VectorField current_;
  mutable long current_step_ = -1;

  void refresh(long step) const;
};

}  // namespace sw::mag
