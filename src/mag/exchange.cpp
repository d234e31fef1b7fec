#include "mag/exchange.h"

#include "mag/kernels.h"
#include "util/constants.h"
#include "util/error.h"

namespace sw::mag {

using sw::util::kMu0;

namespace {

struct Stencil {
  double inv_dx2, inv_dy2, inv_dz2, prefactor;
  bool x, y, z;  ///< axis has more than one cell
};

// Second difference of one component at one cell, summed over the active
// axes in x, y, z order starting from 0.0.
inline double laplacian(const Stencil& s, double c, double xm, double xp,
                        double ym, double yp, double zm, double zp) {
  double lap = 0.0;
  if (s.x) lap += (xm + xp - 2.0 * c) * s.inv_dx2;
  if (s.y) lap += (ym + yp - 2.0 * c) * s.inv_dy2;
  if (s.z) lap += (zm + zp - 2.0 * c) * s.inv_dz2;
  return lap;
}

// h += prefactor * Laplacian(m) along one x-row of one component. `ym`..`zp`
// are the neighbouring rows, or the row itself on a Neumann boundary (a
// mirrored neighbour contributes nothing). The row's end cells mirror their
// missing x neighbour and are peeled off the vector loop.
SW_MAG_CLONES void exchange_row(Stencil s, std::size_t nx,
                                const double* __restrict m,
                                const double* __restrict ym,
                                const double* __restrict yp,
                                const double* __restrict zm,
                                const double* __restrict zp,
                                double* __restrict h) {
  const std::size_t last = nx - 1;
  if (nx == 1) {
    h[0] += laplacian(s, m[0], m[0], m[0], ym[0], yp[0], zm[0], zp[0]) *
            s.prefactor;
    return;
  }
  h[0] += laplacian(s, m[0], m[0], m[1], ym[0], yp[0], zm[0], zp[0]) *
          s.prefactor;
  for (std::size_t i = 1; i < last; ++i) {
    h[i] += laplacian(s, m[i], m[i - 1], m[i + 1], ym[i], yp[i], zm[i],
                      zp[i]) *
            s.prefactor;
  }
  h[last] += laplacian(s, m[last], m[last - 1], m[last], ym[last], yp[last],
                       zm[last], zp[last]) *
             s.prefactor;
}

}  // namespace

ExchangeField::ExchangeField(const Mesh& mesh, const Material& mat)
    : mesh_(mesh) {
  mat.validate();
  prefactor_ = 2.0 * mat.Aex / (kMu0 * mat.Ms);
  inv_dx2_ = 1.0 / (mesh.dx() * mesh.dx());
  inv_dy2_ = 1.0 / (mesh.dy() * mesh.dy());
  inv_dz2_ = 1.0 / (mesh.dz() * mesh.dz());
}

void ExchangeField::accumulate(double /*t*/, const VectorField& m,
                               VectorField& H) const {
  SW_REQUIRE(m.mesh() == mesh_, "field/mesh mismatch");
  SW_REQUIRE(H.size() == m.size(), "field size mismatch");
  const std::size_t nx = mesh_.nx();
  const std::size_t ny = mesh_.ny();
  const std::size_t nz = mesh_.nz();
  const std::size_t plane = nx * ny;
  const Stencil s{inv_dx2_, inv_dy2_, inv_dz2_, prefactor_,
                  nx > 1,   ny > 1,   nz > 1};

  for (std::size_t k = 0; k < nz; ++k) {
    for (std::size_t j = 0; j < ny; ++j) {
      const std::size_t row = nx * (j + ny * k);
      const std::size_t ym = j > 0 ? row - nx : row;
      const std::size_t yp = j + 1 < ny ? row + nx : row;
      const std::size_t zm = k > 0 ? row - plane : row;
      const std::size_t zp = k + 1 < nz ? row + plane : row;
      for (std::size_t a = 0; a < 3; ++a) {
        const double* mc = m.comp(a);
        exchange_row(s, nx, mc + row, mc + ym, mc + yp, mc + zm, mc + zp,
                     H.comp(a) + row);
      }
    }
  }
}

}  // namespace sw::mag
