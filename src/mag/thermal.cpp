#include "mag/thermal.h"

#include <cmath>

#include "util/constants.h"
#include "util/error.h"

namespace sw::mag {

using sw::util::kBoltzmann;
using sw::util::kGammaMu0;
using sw::util::kMu0;

ThermalField::ThermalField(const Mesh& mesh, const Material& mat,
                           double temperature, double dt, std::uint64_t seed)
    : mesh_(mesh), temperature_(temperature), seed_(seed), dt_(dt) {
  mat.validate();
  SW_REQUIRE(temperature >= 0.0, "temperature must be non-negative");
  SW_REQUIRE(dt > 0.0, "dt must be positive");
  const double v = mesh.cell_volume();
  // Brown's fluctuation-dissipation result, gamma in LL convention.
  sigma_ = std::sqrt(2.0 * mat.alpha * kBoltzmann * temperature /
                     (kGammaMu0 * kMu0 * mat.Ms * v * dt));
  current_ = VectorField(mesh);
}

void ThermalField::refresh(long step) const {
  if (step == current_step_) return;
  current_step_ = step;
  // Counter-based seeding: one engine per (seed, step) pair makes the
  // realisation independent of evaluation order and reproducible across
  // reruns and thread layouts.
  std::mt19937_64 rng(seed_ ^ (0x9E3779B97F4A7C15ull *
                               static_cast<std::uint64_t>(step + 1)));
  std::normal_distribution<double> gauss(0.0, sigma_);
  for (std::size_t c = 0; c < current_.size(); ++c) {
    // Braced initialisation draws x, y, z in that order.
    current_.set(c, {gauss(rng), gauss(rng), gauss(rng)});
  }
}

void ThermalField::accumulate(double t, const VectorField& /*m*/,
                              VectorField& H) const {
  if (temperature_ == 0.0 || sigma_ == 0.0) return;
  SW_REQUIRE(H.size() == current_.size(), "field size mismatch");
  // All RHS stages inside step k (t in [k dt, (k+1) dt)) see one frozen
  // realisation; adding 1e-12*dt guards the k*dt boundary itself.
  const long step = static_cast<long>(std::floor(t / dt_ + 1e-12));
  refresh(step);
  for (std::size_t a = 0; a < 3; ++a) {
    double* h = H.comp(a);
    const double* noise = current_.comp(a);
    for (std::size_t c = 0; c < H.size(); ++c) h[c] += noise[c];
  }
}

}  // namespace sw::mag
