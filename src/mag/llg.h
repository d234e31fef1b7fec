// Landau-Lifshitz-Gilbert right-hand side.
#pragma once

#include <vector>

#include "mag/vector_field.h"

namespace sw::mag {

/// Parameters of the LLG equation of motion.
struct LlgParams {
  double gamma_mu0 = 0.0;  ///< gamma*mu0 [m/(A*s)]; field in A/m -> rad/s
  double alpha = 0.0;      ///< Gilbert damping
  bool precession = true;  ///< disable for pure-damping relaxation runs

  /// Optional per-cell damping overriding `alpha` (absorbing boundaries).
  /// Must be null or sized like the magnetisation field; not owned.
  const std::vector<double>* alpha_per_cell = nullptr;

  /// Optional damping_prefactors(gamma_mu0, *alpha_per_cell), computed once
  /// by a caller that evaluates the right-hand side many times; when null,
  /// llg_rhs computes it per call. Not owned.
  const std::vector<double>* prefactor_per_cell = nullptr;
};

/// The per-cell LLG prefactor -gamma_mu0 / (1 + a^2) for every a in `alpha`.
std::vector<double> damping_prefactors(double gamma_mu0,
                                       const std::vector<double>& alpha);

/// dm/dt = -gamma'/(1+a^2) [ m x H + a m x (m x H) ], the explicit
/// (Landau-Lifshitz) form of the Gilbert equation.
///
/// `m` holds unit magnetisation, `H` the effective field in A/m; the result
/// is written into `dmdt` (same mesh).
void llg_rhs(const LlgParams& p, const VectorField& m, const VectorField& H,
             VectorField& dmdt);

/// Max |m x H| over cells, in A/m: the standard convergence criterion for
/// relaxation ("max torque" in OOMMF parlance).
double max_torque(const VectorField& m, const VectorField& H);

}  // namespace sw::mag
