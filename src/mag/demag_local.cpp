#include "mag/demag_local.h"

#include <cmath>

#include "mag/demag_factors.h"
#include "util/error.h"

namespace sw::mag {

DemagLocalField::DemagLocalField(const Material& mat, const Vec3& factors)
    : ms_(mat.Ms), n_(factors) {
  mat.validate();
  const double tr = factors.x + factors.y + factors.z;
  SW_REQUIRE(std::abs(tr - 1.0) < 1e-3, "demag factors must sum to 1");
  SW_REQUIRE(factors.x >= 0.0 && factors.y >= 0.0 && factors.z >= 0.0,
             "demag factors must be non-negative");
}

DemagLocalField DemagLocalField::from_shape(const Material& mat, double lx,
                                            double ly, double lz) {
  return DemagLocalField(mat, demag_factors(lx, ly, lz));
}

void DemagLocalField::accumulate(double /*t*/, const VectorField& m,
                                 VectorField& H) const {
  // H_a += (-Ms * N_a) * m_a.
  H.add_scaled(m, {-ms_ * n_.x, -ms_ * n_.y, -ms_ * n_.z});
}

}  // namespace sw::mag
