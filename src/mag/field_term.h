// Effective-field term interface (OOMMF "energy" object analogue).
//
// Each term adds its contribution (in A/m) to the effective field given the
// current reduced magnetisation m (unit vectors) and time. Terms are owned by
// the Simulation and summed every right-hand-side evaluation.
#pragma once

#include <string>

#include "mag/vector_field.h"

namespace sw::mag {

class FieldTerm {
 public:
  virtual ~FieldTerm() = default;

  /// Accumulate this term's field into `H` (A/m). `m` holds unit vectors.
  virtual void accumulate(double t, const VectorField& m,
                          VectorField& H) const = 0;

  /// Short identifier for logs and energy tables.
  virtual std::string name() const = 0;

  /// Energy density prefactor: E = -pf * mu0 * Ms * sum_c m.H V_cell.
  /// 0.5 for self-consistent (m-dependent) terms such as exchange, demag and
  /// anisotropy; 1.0 for external fields (Zeeman, antennas).
  virtual double energy_prefactor() const { return 0.5; }
};

}  // namespace sw::mag
