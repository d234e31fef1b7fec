#include "mag/zeeman.h"

namespace sw::mag {

void UniformZeemanField::accumulate(double /*t*/, const VectorField& /*m*/,
                                    VectorField& H) const {
  const double v[3] = {h_.x, h_.y, h_.z};
  for (std::size_t a = 0; a < 3; ++a) {
    double* h = H.comp(a);
    for (std::size_t c = 0; c < H.size(); ++c) h[c] += v[a];
  }
}

}  // namespace sw::mag
