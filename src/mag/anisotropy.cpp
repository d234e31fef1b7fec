#include "mag/anisotropy.h"

#include "mag/kernels.h"
#include "util/error.h"

namespace sw::mag {

namespace {

// H += u * (hk * (m . u)), per cell.
SW_MAG_CLONES void add_uniaxial(std::size_t n, const double* __restrict mx,
                                const double* __restrict my,
                                const double* __restrict mz,
                                double* __restrict hx, double* __restrict hy,
                                double* __restrict hz, Vec3 u, double hk) {
  for (std::size_t c = 0; c < n; ++c) {
    const double s = hk * (mx[c] * u.x + my[c] * u.y + mz[c] * u.z);
    hx[c] = hx[c] + u.x * s;
    hy[c] = hy[c] + u.y * s;
    hz[c] = hz[c] + u.z * s;
  }
}

}  // namespace

UniaxialAnisotropyField::UniaxialAnisotropyField(const Material& mat) {
  mat.validate();
  hk_ = mat.anisotropy_field();
  axis_ = mat.easy_axis.normalized();
}

void UniaxialAnisotropyField::accumulate(double /*t*/, const VectorField& m,
                                         VectorField& H) const {
  SW_REQUIRE(m.size() == H.size(), "field size mismatch");
  add_uniaxial(m.size(), m.x(), m.y(), m.z(), H.x(), H.y(), H.z(), axis_,
               hk_);
}

}  // namespace sw::mag
