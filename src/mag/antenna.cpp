#include "mag/antenna.h"

#include <algorithm>
#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace sw::mag {

using sw::util::kTwoPi;

double Antenna::drive(double t) const {
  if (t < t_on) return 0.0;
  if (t_off >= 0.0 && t > t_off) return 0.0;
  double env = 1.0;
  if (ramp > 0.0) {
    if (t < t_on + ramp) env = (t - t_on) / ramp;
    if (t_off >= 0.0 && t > t_off - ramp) {
      env = std::min(env, (t_off - t) / ramp);
    }
  }
  return env * std::sin(kTwoPi * frequency * t + phase);
}

void AntennaField::add(const Antenna& a) {
  SW_REQUIRE(a.width > 0.0, "antenna width must be positive");
  SW_REQUIRE(a.frequency >= 0.0, "antenna frequency must be non-negative");
  const double x0 = a.x_center - 0.5 * a.width;
  const double x1 = a.x_center + 0.5 * a.width;
  SW_REQUIRE(x1 > 0.0 && x0 < mesh_.size_x(),
             "antenna footprint outside the mesh");
  Placed p;
  p.ant = a;
  p.ant.direction = a.direction.normalized();
  p.i_begin = mesh_.cell_at_x(std::max(x0, 0.0));
  // cell_at_x clamps; use the cell whose centre is still inside [x0, x1).
  p.i_end = std::min<std::size_t>(mesh_.cell_at_x(x1) + 1, mesh_.nx());
  SW_ASSERT(p.i_begin < p.i_end, "empty antenna footprint");
  antennas_.push_back(p);
  drive_t_ = std::numeric_limits<double>::quiet_NaN();
}

void AntennaField::accumulate(double t, const VectorField& /*m*/,
                              VectorField& H) const {
  SW_REQUIRE(H.size() == mesh_.cell_count(), "field size mismatch");
  if (!(t == drive_t_)) {
    drive_.resize(antennas_.size());
    for (std::size_t a = 0; a < antennas_.size(); ++a) {
      drive_[a] = antennas_[a].ant.drive(t);
    }
    drive_t_ = t;
  }
  const std::size_t nx = mesh_.nx();
  const std::size_t rows = mesh_.ny() * mesh_.nz();
  // Antennas are added one at a time in order: footprints may overlap.
  for (std::size_t a = 0; a < antennas_.size(); ++a) {
    const double d = drive_[a];
    if (d == 0.0) continue;
    const Placed& p = antennas_[a];
    const Vec3 h = p.ant.direction * (p.ant.amplitude * d);
    const double hc[3] = {h.x, h.y, h.z};
    for (std::size_t c = 0; c < 3; ++c) {
      double* plane = H.comp(c);
      for (std::size_t r = 0; r < rows; ++r) {
        double* row = plane + nx * r;
        for (std::size_t i = p.i_begin; i < p.i_end; ++i) row[i] += hc[c];
      }
    }
  }
}

}  // namespace sw::mag
