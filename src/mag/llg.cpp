#include "mag/llg.h"

#include <algorithm>
#include <cmath>

#include "mag/kernels.h"
#include "util/error.h"

namespace sw::mag {

namespace {

// One cell of dm/dt = pre * [a m x (m x H) (+ m x H)], in the scalar
// formula's operation order.
template <bool kPrecession>
inline void llg_cell(double mx, double my, double mz, double hx, double hy,
                     double hz, double a, double pre, double& ox, double& oy,
                     double& oz) {
  const double tx = my * hz - mz * hy;  // m x H
  const double ty = mz * hx - mx * hz;
  const double tz = mx * hy - my * hx;
  double rx = (my * tz - mz * ty) * a;  // a m x (m x H)
  double ry = (mz * tx - mx * tz) * a;
  double rz = (mx * ty - my * tx) * a;
  if (kPrecession) {
    rx += tx;
    ry += ty;
    rz += tz;
  }
  ox = rx * pre;
  oy = ry * pre;
  oz = rz * pre;
}

// Damping `a` and prefactor `pre` are per-cell arrays, or (kPerCell false)
// one value each. Each variant and precession setting gets its own loop, so
// the loop body has no branch.
template <bool kPrecession, bool kPerCell>
inline void llg_loop(std::size_t n, const double* mx, const double* my,
                     const double* mz, const double* hx, const double* hy,
                     const double* hz, double* ox, double* oy, double* oz,
                     const double* a, const double* pre) {
  const double a0 = kPerCell ? 0.0 : a[0];
  const double pre0 = kPerCell ? 0.0 : pre[0];
  for (std::size_t c = 0; c < n; ++c) {
    llg_cell<kPrecession>(mx[c], my[c], mz[c], hx[c], hy[c], hz[c],
                          kPerCell ? a[c] : a0, kPerCell ? pre[c] : pre0,
                          ox[c], oy[c], oz[c]);
  }
}

SW_MAG_CLONES void llg_planes(
    std::size_t n, const double* __restrict mx, const double* __restrict my,
    const double* __restrict mz, const double* __restrict hx,
    const double* __restrict hy, const double* __restrict hz,
    double* __restrict ox, double* __restrict oy, double* __restrict oz,
    const double* __restrict a, const double* __restrict pre, bool per_cell,
    bool precession) {
  if (per_cell) {
    if (precession) {
      llg_loop<true, true>(n, mx, my, mz, hx, hy, hz, ox, oy, oz, a, pre);
    } else {
      llg_loop<false, true>(n, mx, my, mz, hx, hy, hz, ox, oy, oz, a, pre);
    }
  } else if (precession) {
    llg_loop<true, false>(n, mx, my, mz, hx, hy, hz, ox, oy, oz, a, pre);
  } else {
    llg_loop<false, false>(n, mx, my, mz, hx, hy, hz, ox, oy, oz, a, pre);
  }
}

}  // namespace

std::vector<double> damping_prefactors(double gamma_mu0,
                                       const std::vector<double>& alpha) {
  std::vector<double> pre(alpha.size());
  for (std::size_t c = 0; c < alpha.size(); ++c) {
    pre[c] = -gamma_mu0 / (1.0 + alpha[c] * alpha[c]);
  }
  return pre;
}

void llg_rhs(const LlgParams& p, const VectorField& m, const VectorField& H,
             VectorField& dmdt) {
  SW_REQUIRE(m.size() == H.size() && m.size() == dmdt.size(),
             "field size mismatch");
  const std::size_t n = m.size();
  if (p.alpha_per_cell == nullptr) {
    const double pre = -p.gamma_mu0 / (1.0 + p.alpha * p.alpha);
    llg_planes(n, m.x(), m.y(), m.z(), H.x(), H.y(), H.z(), dmdt.x(),
               dmdt.y(), dmdt.z(), &p.alpha, &pre, false, p.precession);
    return;
  }
  SW_REQUIRE(p.alpha_per_cell->size() == n, "alpha_per_cell size mismatch");
  std::vector<double> computed;
  const std::vector<double>* pre = p.prefactor_per_cell;
  if (pre == nullptr) {
    computed = damping_prefactors(p.gamma_mu0, *p.alpha_per_cell);
    pre = &computed;
  }
  SW_REQUIRE(pre->size() == n, "prefactor_per_cell size mismatch");
  llg_planes(n, m.x(), m.y(), m.z(), H.x(), H.y(), H.z(), dmdt.x(), dmdt.y(),
             dmdt.z(), p.alpha_per_cell->data(), pre->data(), true,
             p.precession);
}

double max_torque(const VectorField& m, const VectorField& H) {
  SW_REQUIRE(m.size() == H.size(), "field size mismatch");
  double mx = 0.0;
  for (std::size_t c = 0; c < m.size(); ++c) {
    mx = std::max(mx, cross(m[c], H[c]).norm2());
  }
  return std::sqrt(mx);
}

}  // namespace sw::mag
