// Explicit time integrators for the LLG equation.
//
// All steppers advance a VectorField state through a caller-supplied RHS
// functor and renormalise the magnetisation afterwards (the LLG flow
// conserves |m| exactly; renormalisation removes the integrator's drift).
#pragma once

#include <functional>
#include <string>

#include "mag/vector_field.h"

namespace sw::mag {

/// RHS evaluation: dmdt = f(t, m). Implementations must not retain refs.
using RhsFn =
    std::function<void(double t, const VectorField& m, VectorField& dmdt)>;

enum class Stepper {
  kEuler,   ///< 1st order, cheapest per step, strict dt limits
  kHeun,    ///< 2nd order (OOMMF's default RungeKuttaEvolve rk2)
  kRk4,     ///< classic 4th order
  kRkf54,   ///< Runge-Kutta-Fehlberg 4(5), adaptive
};

Stepper stepper_from_name(const std::string& name);
const char* stepper_name(Stepper s);

/// Fixed-step integrator state and statistics.
struct StepStats {
  std::size_t steps_taken = 0;
  std::size_t steps_rejected = 0;  ///< adaptive only
  std::size_t rhs_evals = 0;
  double last_dt = 0.0;
};

/// Integrator configuration.
struct IntegratorOptions {
  Stepper stepper = Stepper::kRk4;
  double dt = 1e-13;          ///< fixed step, or initial step when adaptive
  double dt_min = 1e-17;      ///< adaptive floor (throws below)
  double dt_max = 1e-12;      ///< adaptive ceiling
  double tolerance = 1e-5;    ///< adaptive: max |error| per step (unit-m units)
  bool renormalize = true;    ///< renormalise |m| after each step
};

/// Time stepper owning its scratch fields, which follow the mesh of the field
/// being advanced, so one integrator is reusable across runs and meshes.
class Integrator {
 public:
  explicit Integrator(const IntegratorOptions& opts) : opts_(opts) {}

  /// Advance `m` in place from t to t_end, calling `rhs` as needed.
  /// Returns the accumulated statistics (cumulative across calls).
  const StepStats& advance(const RhsFn& rhs, VectorField& m, double t,
                           double t_end);

  const StepStats& stats() const { return stats_; }
  const IntegratorOptions& options() const { return opts_; }

 private:
  void ensure_scratch(const VectorField& m);
  void step_euler(const RhsFn& rhs, VectorField& m, double t, double dt);
  void step_heun(const RhsFn& rhs, VectorField& m, double t, double dt);
  void step_rk4(const RhsFn& rhs, VectorField& m, double t, double dt);
  /// Returns the max-norm error estimate of the embedded pair.
  double step_rkf54(const RhsFn& rhs, const VectorField& m, VectorField& out,
                    double t, double dt);

  IntegratorOptions opts_;
  StepStats stats_;
  // Scratch stages (k1..k6, plus temporaries).
  VectorField k1_, k2_, k3_, k4_, k5_, k6_, tmp_, out_;
};

}  // namespace sw::mag
