// Microwave antenna / magnetoelectric-cell excitation.
//
// Models a transducer as a localised, time-harmonic in-plane field applied
// over a footprint of cells — the standard micromagnetic abstraction of the
// ME cells used in the paper. A single AntennaField term owns all antennas
// on a waveguide so the inner loop touches each excited cell once.
#pragma once

#include <limits>
#include <vector>

#include "mag/field_term.h"
#include "mag/mesh.h"

namespace sw::mag {

/// One transducer: h(t) = amplitude * envelope(t) * sin(2*pi*f*t + phase)
/// applied along `direction` over x in [x_center - width/2, x_center + width/2]
/// (all y, z within the footprint in the current 1-D/2-D waveguide usage).
struct Antenna {
  double x_center = 0.0;   ///< footprint centre along the waveguide [m]
  double width = 10e-9;    ///< footprint extent along x [m]
  double frequency = 0.0;  ///< drive frequency [Hz]
  double phase = 0.0;      ///< drive phase [rad]; pi encodes logic 1
  double amplitude = 0.0;  ///< peak field [A/m]
  Vec3 direction{1, 0, 0}; ///< field direction (unit vector)
  double t_on = 0.0;       ///< drive start [s]
  double t_off = -1.0;     ///< drive stop [s]; < 0 means "never"
  double ramp = 0.0;       ///< linear turn-on/off ramp time [s]

  /// Instantaneous drive factor (envelope * carrier) at time t.
  double drive(double t) const;
};

/// Field term aggregating every antenna on the mesh.
class AntennaField final : public FieldTerm {
 public:
  explicit AntennaField(const Mesh& mesh) : mesh_(mesh) {}

  /// Add one antenna; footprint must intersect the mesh (throws otherwise).
  void add(const Antenna& a);

  std::size_t count() const { return antennas_.size(); }
  const Antenna& antenna(std::size_t i) const { return antennas_[i].ant; }

  void accumulate(double t, const VectorField& m,
                  VectorField& H) const override;
  std::string name() const override { return "antennas"; }
  double energy_prefactor() const override { return 1.0; }

 private:
  struct Placed {
    Antenna ant;
    std::size_t i_begin = 0;  ///< first x-index of the footprint
    std::size_t i_end = 0;    ///< one past last x-index
  };

  Mesh mesh_;
  std::vector<Placed> antennas_;
  // Drive factors of every antenna at time drive_t_ (NaN: none yet). The
  // integrators evaluate several stages at one time (RK4's k2 and k3 share
  // t + dt/2, and the next step's k1 repeats k4's t + dt), so a repeated t
  // reuses them instead of calling sin() again.
  mutable double drive_t_ = std::numeric_limits<double>::quiet_NaN();
  mutable std::vector<double> drive_;
};

}  // namespace sw::mag
