#include "mag/demag_newell.h"

#include <algorithm>
#include <cmath>

#include "fft/fft.h"
#include "util/constants.h"
#include "util/error.h"

namespace sw::mag {

using sw::util::kPi;

namespace {

// Newell, Williams & Dunlop (1993) auxiliary functions, evaluated in long
// double because the 27-point stencil cancels ~ (d/R)^6 of the magnitude.
long double newell_f(long double x, long double y, long double z) {
  const long double x2 = x * x, y2 = y * y, z2 = z * z;
  const long double r = std::sqrt(x2 + y2 + z2);
  long double f = (1.0L / 6.0L) * (2.0L * x2 - y2 - z2) * r;
  if (y != 0.0L && x2 + z2 > 0.0L) {
    f += 0.5L * y * (z2 - x2) * std::asinh(y / std::sqrt(x2 + z2));
  }
  if (z != 0.0L && x2 + y2 > 0.0L) {
    f += 0.5L * z * (y2 - x2) * std::asinh(z / std::sqrt(x2 + y2));
  }
  if (x != 0.0L && y != 0.0L && z != 0.0L) {
    f -= x * y * z * std::atan(y * z / (x * r));
  }
  return f;
}

long double newell_g(long double x, long double y, long double z) {
  const long double x2 = x * x, y2 = y * y, z2 = z * z;
  const long double r = std::sqrt(x2 + y2 + z2);
  long double g = -x * y * r / 3.0L;
  if (x != 0.0L && y != 0.0L && z != 0.0L && x2 + y2 > 0.0L) {
    g += x * y * z * std::asinh(z / std::sqrt(x2 + y2));
  }
  if (y != 0.0L && y2 + z2 > 0.0L) {
    g += (y / 6.0L) * (3.0L * z2 - y2) * std::asinh(x / std::sqrt(y2 + z2));
  }
  if (x != 0.0L && x2 + z2 > 0.0L) {
    g += (x / 6.0L) * (3.0L * z2 - x2) * std::asinh(y / std::sqrt(x2 + z2));
  }
  if (z != 0.0L) {
    g -= (z * z2 / 6.0L) * std::atan(x * y / (z * r));
  }
  if (y != 0.0L && z != 0.0L) {
    g -= (z * y2 / 2.0L) * std::atan(x * z / (y * r));
  }
  if (x != 0.0L && z != 0.0L) {
    g -= (z * x2 / 2.0L) * std::atan(y * z / (x * r));
  }
  return g;
}

// 27-point second-difference stencil of `fn` around (X, Y, Z); weights are
// (-1, 2, -1) per axis (the collapsed form of Newell's 64-term sum).
template <typename Fn>
double stencil27(Fn fn, double X, double Y, double Z, double dx, double dy,
                 double dz) {
  static constexpr int off[3] = {-1, 0, 1};
  static constexpr long double wgt[3] = {-1.0L, 2.0L, -1.0L};
  long double acc = 0.0L;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 3; ++c) {
        const long double w = wgt[a] * wgt[b] * wgt[c];
        acc += w * fn(static_cast<long double>(X) + off[a] * static_cast<long double>(dx),
                      static_cast<long double>(Y) + off[b] * static_cast<long double>(dy),
                      static_cast<long double>(Z) + off[c] * static_cast<long double>(dz));
      }
    }
  }
  return static_cast<double>(acc);
}

}  // namespace

double newell_nxx(double X, double Y, double Z, double dx, double dy,
                  double dz) {
  const double scale = 1.0 / (4.0 * kPi * dx * dy * dz);
  return scale * stencil27(newell_f, X, Y, Z, dx, dy, dz);
}

double newell_nxy(double X, double Y, double Z, double dx, double dy,
                  double dz) {
  const double scale = 1.0 / (4.0 * kPi * dx * dy * dz);
  return scale * stencil27(newell_g, X, Y, Z, dx, dy, dz);
}

DemagTensor newell_tensor(double X, double Y, double Z, double dx, double dy,
                          double dz, double use_dipole_beyond) {
  DemagTensor n;
  const double r2 = X * X + Y * Y + Z * Z;
  const double dmax = std::max({dx, dy, dz});
  if (use_dipole_beyond > 0.0 &&
      r2 > use_dipole_beyond * use_dipole_beyond * dmax * dmax) {
    // Point-dipole asymptotics: N = (V / 4 pi r^3) (I - 3 rr^T / r^2).
    const double r = std::sqrt(r2);
    const double v = dx * dy * dz;
    const double c = v / (4.0 * kPi * r2 * r);
    const double i3 = 3.0 / r2;
    n.xx = c * (1.0 - i3 * X * X);
    n.yy = c * (1.0 - i3 * Y * Y);
    n.zz = c * (1.0 - i3 * Z * Z);
    n.xy = c * (-i3 * X * Y);
    n.xz = c * (-i3 * X * Z);
    n.yz = c * (-i3 * Y * Z);
    return n;
  }
  n.xx = newell_nxx(X, Y, Z, dx, dy, dz);
  n.yy = newell_nxx(Y, Z, X, dy, dz, dx);
  n.zz = newell_nxx(Z, X, Y, dz, dx, dy);
  n.xy = newell_nxy(X, Y, Z, dx, dy, dz);
  n.xz = newell_nxy(X, Z, Y, dx, dz, dy);
  n.yz = newell_nxy(Y, Z, X, dy, dz, dx);
  return n;
}

DemagNewellField::DemagNewellField(const Mesh& mesh, const Material& mat)
    : mesh_(mesh), ms_(mat.Ms) {
  mat.validate();
  px_ = mesh.nx() > 1 ? sw::fft::next_pow2(2 * mesh.nx()) : 1;
  py_ = mesh.ny() > 1 ? sw::fft::next_pow2(2 * mesh.ny()) : 1;
  pz_ = mesh.nz() > 1 ? sw::fft::next_pow2(2 * mesh.nz()) : 1;
  build_kernel();
}

void DemagNewellField::fft3(std::vector<Complex>& a, int sign) const {
  // Separable 3-D FFT: 1-D transforms along each axis with stride gathers.
  // Dimensions equal to 1 are skipped.
  auto pass = [&](std::size_t n, std::size_t stride, std::size_t count,
                  std::size_t block) {
    if (n <= 1) return;
    std::vector<Complex> line(n);
    for (std::size_t c = 0; c < count; ++c) {
      for (std::size_t b = 0; b < block; ++b) {
        const std::size_t base = c * stride * n + b;
        for (std::size_t i = 0; i < n; ++i) line[i] = a[base + i * stride];
        if (sign < 0) {
          sw::fft::fft(line);
        } else {
          sw::fft::ifft(line);
        }
        for (std::size_t i = 0; i < n; ++i) a[base + i * stride] = line[i];
      }
    }
  };
  // x-axis: contiguous lines.
  pass(px_, 1, py_ * pz_, 1);
  // y-axis: stride px_, one block of px_ per z-slab.
  pass(py_, px_, pz_, px_);
  // z-axis: stride px_*py_.
  pass(pz_, px_ * py_, 1, px_ * py_);
}

void DemagNewellField::build_kernel() {
  const std::size_t total = px_ * py_ * pz_;
  kxx_.assign(total, {});
  kyy_.assign(total, {});
  kzz_.assign(total, {});
  kxy_.assign(total, {});
  kxz_.assign(total, {});
  kyz_.assign(total, {});

  const long ox_max = static_cast<long>(mesh_.nx()) - 1;
  const long oy_max = static_cast<long>(mesh_.ny()) - 1;
  const long oz_max = static_cast<long>(mesh_.nz()) - 1;

  for (long oz = -oz_max; oz <= oz_max; ++oz) {
    for (long oy = -oy_max; oy <= oy_max; ++oy) {
      for (long ox = -ox_max; ox <= ox_max; ++ox) {
        const DemagTensor n = newell_tensor(
            static_cast<double>(ox) * mesh_.dx(),
            static_cast<double>(oy) * mesh_.dy(),
            static_cast<double>(oz) * mesh_.dz(), mesh_.dx(), mesh_.dy(),
            mesh_.dz());
        if (ox == 0 && oy == 0 && oz == 0) self_ = n;
        const std::size_t ix =
            static_cast<std::size_t>((ox + static_cast<long>(px_)) %
                                     static_cast<long>(px_));
        const std::size_t iy =
            static_cast<std::size_t>((oy + static_cast<long>(py_)) %
                                     static_cast<long>(py_));
        const std::size_t iz =
            static_cast<std::size_t>((oz + static_cast<long>(pz_)) %
                                     static_cast<long>(pz_));
        const std::size_t idx = ix + px_ * (iy + py_ * iz);
        // Fold the minus sign of H = -N*M into the kernel.
        kxx_[idx] = -n.xx;
        kyy_[idx] = -n.yy;
        kzz_[idx] = -n.zz;
        kxy_[idx] = -n.xy;
        kxz_[idx] = -n.xz;
        kyz_[idx] = -n.yz;
      }
    }
  }

  fft3(kxx_, -1);
  fft3(kyy_, -1);
  fft3(kzz_, -1);
  fft3(kxy_, -1);
  fft3(kxz_, -1);
  fft3(kyz_, -1);
}

void DemagNewellField::accumulate(double /*t*/, const VectorField& m,
                                  VectorField& H) const {
  SW_REQUIRE(m.mesh() == mesh_, "field/mesh mismatch");
  SW_REQUIRE(H.size() == m.size(), "field size mismatch");
  const std::size_t total = px_ * py_ * pz_;
  std::vector<Complex>* const padded[3] = {&mx_, &my_, &mz_};
  const std::size_t nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();

  // Scatter M = Ms * m into the zero-padded grids, one component at a time.
  for (std::size_t a = 0; a < 3; ++a) {
    std::vector<Complex>& dst = *padded[a];
    dst.assign(total, {});
    const double* src = m.comp(a);
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        const std::size_t row = nx * (j + ny * k);
        const std::size_t prow = px_ * (j + py_ * k);
        for (std::size_t i = 0; i < nx; ++i) {
          dst[prow + i] = src[row + i] * ms_;
        }
      }
    }
  }

  fft3(mx_, -1);
  fft3(my_, -1);
  fft3(mz_, -1);

  for (std::size_t p = 0; p < total; ++p) {
    const Complex ax = mx_[p], ay = my_[p], az = mz_[p];
    mx_[p] = kxx_[p] * ax + kxy_[p] * ay + kxz_[p] * az;
    my_[p] = kxy_[p] * ax + kyy_[p] * ay + kyz_[p] * az;
    mz_[p] = kxz_[p] * ax + kyz_[p] * ay + kzz_[p] * az;
  }

  fft3(mx_, +1);
  fft3(my_, +1);
  fft3(mz_, +1);

  for (std::size_t a = 0; a < 3; ++a) {
    const std::vector<Complex>& src = *padded[a];
    double* dst = H.comp(a);
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        const std::size_t row = nx * (j + ny * k);
        const std::size_t prow = px_ * (j + py_ * k);
        for (std::size_t i = 0; i < nx; ++i) {
          dst[row + i] += src[prow + i].real();
        }
      }
    }
  }
}

}  // namespace sw::mag
