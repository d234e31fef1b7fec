// Bit-identity of the micromagnetic solver against a naive reference.
//
// The solver stores fields as structure-of-arrays planes and runs its hot
// loops as per-ISA vector clones. Its contract is that every cell still
// performs the scalar per-cell operation sequence, so results match the
// plain array-of-Vec3 loops bit for bit. `ref` below holds those loops and
// steppers, one cell at a time in the original operation order. Every
// field term, the LLG right-hand side, each stepper (including rejected
// adaptive steps) and a two-channel MicromagGateRunner run are compared
// byte for byte, on whichever clone this CPU selects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/encoding.h"
#include "core/gate_design.h"
#include "core/micromag_gate.h"
#include "dispersion/local_1d.h"
#include "fft/fft.h"
#include "mag/anisotropy.h"
#include "mag/antenna.h"
#include "mag/demag_factors.h"
#include "mag/demag_local.h"
#include "mag/demag_newell.h"
#include "mag/exchange.h"
#include "mag/integrator.h"
#include "mag/llg.h"
#include "mag/thermal.h"
#include "mag/zeeman.h"
#include "util/constants.h"

namespace {

using namespace sw::mag;
using sw::util::kBoltzmann;
using sw::util::kGammaMu0;
using sw::util::kMu0;

// ---------------------------------------------------------------- reference

namespace ref {

using Field = std::vector<Vec3>;
using Term = std::function<void(double t, const Field& m, Field& H)>;
using Rhs = std::function<void(double t, const Field& m, Field& dmdt)>;

Field copy_of(const VectorField& f) {
  Field out(f.size());
  for (std::size_t c = 0; c < f.size(); ++c) out[c] = f[c];
  return out;
}

void add_scaled(Field& y, const Field& x, double s) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i] * s;
}

void assign_sum(Field& out, const Field& a, const Field& b, double s) {
  out.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i] * s;
}

void normalize(Field& f) {
  for (auto& v : f) {
    const double n = v.norm();
    if (n > 0.0) v *= 1.0 / n;
  }
}

Term exchange(const Mesh& mesh, const Material& mat) {
  const double pf = 2.0 * mat.Aex / (kMu0 * mat.Ms);
  const double idx2 = 1.0 / (mesh.dx() * mesh.dx());
  const double idy2 = 1.0 / (mesh.dy() * mesh.dy());
  const double idz2 = 1.0 / (mesh.dz() * mesh.dz());
  return [=](double, const Field& m, Field& H) {
    const std::size_t nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t c = mesh.index(i, j, k);
          const Vec3& mc = m[c];
          Vec3 lap;
          if (nx > 1) {
            const Vec3& xm = (i > 0) ? m[c - 1] : mc;
            const Vec3& xp = (i + 1 < nx) ? m[c + 1] : mc;
            lap += (xm + xp - 2.0 * mc) * idx2;
          }
          if (ny > 1) {
            const Vec3& ym = (j > 0) ? m[c - nx] : mc;
            const Vec3& yp = (j + 1 < ny) ? m[c + nx] : mc;
            lap += (ym + yp - 2.0 * mc) * idy2;
          }
          if (nz > 1) {
            const Vec3& zm = (k > 0) ? m[c - nx * ny] : mc;
            const Vec3& zp = (k + 1 < nz) ? m[c + nx * ny] : mc;
            lap += (zm + zp - 2.0 * mc) * idz2;
          }
          H[c] += lap * pf;
        }
      }
    }
  };
}

Term uniaxial(const Material& mat) {
  const double hk = mat.anisotropy_field();
  const Vec3 axis = mat.easy_axis.normalized();
  return [=](double, const Field& m, Field& H) {
    for (std::size_t c = 0; c < m.size(); ++c) {
      H[c] += axis * (hk * dot(m[c], axis));
    }
  };
}

Term demag_local(const Material& mat, const Vec3& n) {
  const double ms = mat.Ms;
  return [=](double, const Field& m, Field& H) {
    for (std::size_t c = 0; c < m.size(); ++c) {
      H[c] += {-ms * n.x * m[c].x, -ms * n.y * m[c].y, -ms * n.z * m[c].z};
    }
  };
}

Term zeeman(const Vec3& h) {
  return [=](double, const Field&, Field& H) {
    for (auto& v : H) v += h;
  };
}

// FFT convolution with the Newell tensor: zero-padded grids, separable 3-D
// transforms, the -N of H = -N M folded into the kernel.
class NewellDemag {
 public:
  NewellDemag(const Mesh& mesh, const Material& mat)
      : mesh_(mesh), ms_(mat.Ms) {
    px_ = mesh.nx() > 1 ? sw::fft::next_pow2(2 * mesh.nx()) : 1;
    py_ = mesh.ny() > 1 ? sw::fft::next_pow2(2 * mesh.ny()) : 1;
    pz_ = mesh.nz() > 1 ? sw::fft::next_pow2(2 * mesh.nz()) : 1;
    const std::size_t total = px_ * py_ * pz_;
    for (auto* k : {&kxx_, &kyy_, &kzz_, &kxy_, &kxz_, &kyz_}) {
      k->assign(total, {});
    }
    const long mx = static_cast<long>(mesh.nx()) - 1;
    const long my = static_cast<long>(mesh.ny()) - 1;
    const long mz = static_cast<long>(mesh.nz()) - 1;
    for (long oz = -mz; oz <= mz; ++oz) {
      for (long oy = -my; oy <= my; ++oy) {
        for (long ox = -mx; ox <= mx; ++ox) {
          const DemagTensor n = newell_tensor(
              static_cast<double>(ox) * mesh.dx(),
              static_cast<double>(oy) * mesh.dy(),
              static_cast<double>(oz) * mesh.dz(), mesh.dx(), mesh.dy(),
              mesh.dz());
          const auto wrap = [](long o, std::size_t p) {
            return static_cast<std::size_t>((o + static_cast<long>(p)) %
                                            static_cast<long>(p));
          };
          const std::size_t idx =
              wrap(ox, px_) + px_ * (wrap(oy, py_) + py_ * wrap(oz, pz_));
          kxx_[idx] = -n.xx;
          kyy_[idx] = -n.yy;
          kzz_[idx] = -n.zz;
          kxy_[idx] = -n.xy;
          kxz_[idx] = -n.xz;
          kyz_[idx] = -n.yz;
        }
      }
    }
    for (auto* k : {&kxx_, &kyy_, &kzz_, &kxy_, &kxz_, &kyz_}) fft3(*k, -1);
  }

  void operator()(double, const Field& m, Field& H) const {
    const std::size_t total = px_ * py_ * pz_;
    std::vector<Complex> mx(total), my(total), mz(total);
    const std::size_t nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const Vec3& v = m[mesh_.index(i, j, k)];
          const std::size_t p = i + px_ * (j + py_ * k);
          mx[p] = v.x * ms_;
          my[p] = v.y * ms_;
          mz[p] = v.z * ms_;
        }
      }
    }
    fft3(mx, -1);
    fft3(my, -1);
    fft3(mz, -1);
    for (std::size_t p = 0; p < total; ++p) {
      const Complex ax = mx[p], ay = my[p], az = mz[p];
      mx[p] = kxx_[p] * ax + kxy_[p] * ay + kxz_[p] * az;
      my[p] = kxy_[p] * ax + kyy_[p] * ay + kyz_[p] * az;
      mz[p] = kxz_[p] * ax + kyz_[p] * ay + kzz_[p] * az;
    }
    fft3(mx, +1);
    fft3(my, +1);
    fft3(mz, +1);
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t p = i + px_ * (j + py_ * k);
          H[mesh_.index(i, j, k)] +=
              {mx[p].real(), my[p].real(), mz[p].real()};
        }
      }
    }
  }

 private:
  using Complex = std::complex<double>;

  void fft3(std::vector<Complex>& a, int sign) const {
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
    pass(px_, 1, py_ * pz_, 1);
    pass(py_, px_, pz_, px_);
    pass(pz_, px_ * py_, 1, px_ * py_);
  }

  Mesh mesh_;
  double ms_;
  std::size_t px_ = 1, py_ = 1, pz_ = 1;
  std::vector<Complex> kxx_, kyy_, kzz_, kxy_, kxz_, kyz_;
};

// Brown's thermal field: one Gaussian realisation per fixed step, drawn per
// cell in x, y, z order from an engine seeded on (seed, step).
Term thermal(const Mesh& mesh, const Material& mat, double temperature,
             double dt, std::uint64_t seed) {
  const double sigma =
      std::sqrt(2.0 * mat.alpha * kBoltzmann * temperature /
                (kGammaMu0 * kMu0 * mat.Ms * mesh.cell_volume() * dt));
  auto current = std::make_shared<Field>(mesh.cell_count());
  auto current_step = std::make_shared<long>(-1);
  return [=](double t, const Field&, Field& H) {
    const long step = static_cast<long>(std::floor(t / dt + 1e-12));
    if (step != *current_step) {
      *current_step = step;
      std::mt19937_64 rng(seed ^ (0x9E3779B97F4A7C15ull *
                                  static_cast<std::uint64_t>(step + 1)));
      std::normal_distribution<double> gauss(0.0, sigma);
      for (auto& h : *current) {
        const double x = gauss(rng);
        const double y = gauss(rng);
        const double z = gauss(rng);
        h = {x, y, z};
      }
    }
    for (std::size_t c = 0; c < H.size(); ++c) H[c] += (*current)[c];
  };
}

// Every antenna's drive is evaluated on every call, in antenna order.
Term antennas(const Mesh& mesh, const std::vector<Antenna>& list) {
  struct Placed {
    Antenna ant;
    std::size_t i_begin, i_end;
  };
  std::vector<Placed> placed;
  for (const Antenna& a : list) {
    Placed p{a, 0, 0};
    p.ant.direction = a.direction.normalized();
    p.i_begin = mesh.cell_at_x(std::max(a.x_center - 0.5 * a.width, 0.0));
    p.i_end = std::min<std::size_t>(
        mesh.cell_at_x(a.x_center + 0.5 * a.width) + 1, mesh.nx());
    placed.push_back(p);
  }
  return [=](double t, const Field&, Field& H) {
    const std::size_t nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
    for (const auto& p : placed) {
      const double d = p.ant.drive(t);
      if (d == 0.0) continue;
      const Vec3 h = p.ant.direction * (p.ant.amplitude * d);
      for (std::size_t k = 0; k < nz; ++k) {
        for (std::size_t j = 0; j < ny; ++j) {
          const std::size_t row = nx * (j + ny * k);
          for (std::size_t i = p.i_begin; i < p.i_end; ++i) H[row + i] += h;
        }
      }
    }
  };
}

void llg_rhs(const LlgParams& p, const Field& m, const Field& H,
             Field& dmdt) {
  dmdt.resize(m.size());
  if (p.alpha_per_cell != nullptr) {
    for (std::size_t c = 0; c < m.size(); ++c) {
      const double a = (*p.alpha_per_cell)[c];
      const double pre = -p.gamma_mu0 / (1.0 + a * a);
      const Vec3 mxh = cross(m[c], H[c]);
      Vec3 rhs = cross(m[c], mxh) * a;
      if (p.precession) rhs += mxh;
      dmdt[c] = rhs * pre;
    }
    return;
  }
  const double pre = -p.gamma_mu0 / (1.0 + p.alpha * p.alpha);
  for (std::size_t c = 0; c < m.size(); ++c) {
    const Vec3 mxh = cross(m[c], H[c]);
    Vec3 rhs = cross(m[c], mxh) * p.alpha;
    if (p.precession) rhs += mxh;
    dmdt[c] = rhs * pre;
  }
}

class Integrator {
 public:
  explicit Integrator(const IntegratorOptions& opts) : opts_(opts) {}

  const StepStats& advance(const Rhs& rhs, Field& m, double t,
                           double t_end) {
    if (opts_.stepper != Stepper::kRkf54) {
      while (t < t_end) {
        const double dt = std::min(opts_.dt, t_end - t);
        switch (opts_.stepper) {
          case Stepper::kEuler:
            rhs(t, m, k1_);
            stats_.rhs_evals += 1;
            add_scaled(m, k1_, dt);
            break;
          case Stepper::kHeun:
            rhs(t, m, k1_);
            assign_sum(tmp_, m, k1_, dt);
            rhs(t + dt, tmp_, k2_);
            stats_.rhs_evals += 2;
            add_scaled(m, k1_, 0.5 * dt);
            add_scaled(m, k2_, 0.5 * dt);
            break;
          case Stepper::kRk4:
            rhs(t, m, k1_);
            assign_sum(tmp_, m, k1_, 0.5 * dt);
            rhs(t + 0.5 * dt, tmp_, k2_);
            assign_sum(tmp_, m, k2_, 0.5 * dt);
            rhs(t + 0.5 * dt, tmp_, k3_);
            assign_sum(tmp_, m, k3_, dt);
            rhs(t + dt, tmp_, k4_);
            stats_.rhs_evals += 4;
            add_scaled(m, k1_, dt / 6.0);
            add_scaled(m, k2_, dt / 3.0);
            add_scaled(m, k3_, dt / 3.0);
            add_scaled(m, k4_, dt / 6.0);
            break;
          case Stepper::kRkf54:
            break;
        }
        if (opts_.renormalize) normalize(m);
        t += dt;
        stats_.steps_taken += 1;
        stats_.last_dt = dt;
      }
      return stats_;
    }
    double dt = std::clamp(opts_.dt, opts_.dt_min, opts_.dt_max);
    while (t < t_end) {
      dt = std::min(dt, t_end - t);
      const double err = rkf54(rhs, m, t, dt);
      if (err <= opts_.tolerance || dt <= opts_.dt_min * (1.0 + 1e-12)) {
        m = out_;
        if (opts_.renormalize) normalize(m);
        t += dt;
        stats_.steps_taken += 1;
        stats_.last_dt = dt;
      } else {
        stats_.steps_rejected += 1;
      }
      const double scale =
          (err > 0.0) ? 0.9 * std::pow(opts_.tolerance / err, 0.2) : 2.0;
      dt = std::clamp(dt * std::clamp(scale, 0.2, 4.0), opts_.dt_min,
                      opts_.dt_max);
    }
    return stats_;
  }

 private:
  double rkf54(const Rhs& rhs, const Field& m, double t, double dt) {
    static constexpr double a2 = 0.25;
    static constexpr double b31 = 3.0 / 32.0, b32 = 9.0 / 32.0;
    static constexpr double b41 = 1932.0 / 2197.0, b42 = -7200.0 / 2197.0,
                            b43 = 7296.0 / 2197.0;
    static constexpr double b51 = 439.0 / 216.0, b52 = -8.0,
                            b53 = 3680.0 / 513.0, b54 = -845.0 / 4104.0;
    static constexpr double b61 = -8.0 / 27.0, b62 = 2.0,
                            b63 = -3544.0 / 2565.0, b64 = 1859.0 / 4104.0,
                            b65 = -11.0 / 40.0;
    static constexpr double c1 = 16.0 / 135.0, c3 = 6656.0 / 12825.0,
                            c4 = 28561.0 / 56430.0, c5 = -9.0 / 50.0,
                            c6 = 2.0 / 55.0;
    static constexpr double e1 = 16.0 / 135.0 - 25.0 / 216.0;
    static constexpr double e3 = 6656.0 / 12825.0 - 1408.0 / 2565.0;
    static constexpr double e4 = 28561.0 / 56430.0 - 2197.0 / 4104.0;
    static constexpr double e5 = -9.0 / 50.0 + 1.0 / 5.0;
    static constexpr double e6 = 2.0 / 55.0;

    rhs(t, m, k1_);
    assign_sum(tmp_, m, k1_, a2 * dt);
    rhs(t + a2 * dt, tmp_, k2_);
    assign_sum(tmp_, m, k1_, b31 * dt);
    add_scaled(tmp_, k2_, b32 * dt);
    rhs(t + 0.375 * dt, tmp_, k3_);
    assign_sum(tmp_, m, k1_, b41 * dt);
    add_scaled(tmp_, k2_, b42 * dt);
    add_scaled(tmp_, k3_, b43 * dt);
    rhs(t + 12.0 / 13.0 * dt, tmp_, k4_);
    assign_sum(tmp_, m, k1_, b51 * dt);
    add_scaled(tmp_, k2_, b52 * dt);
    add_scaled(tmp_, k3_, b53 * dt);
    add_scaled(tmp_, k4_, b54 * dt);
    rhs(t + dt, tmp_, k5_);
    assign_sum(tmp_, m, k1_, b61 * dt);
    add_scaled(tmp_, k2_, b62 * dt);
    add_scaled(tmp_, k3_, b63 * dt);
    add_scaled(tmp_, k4_, b64 * dt);
    add_scaled(tmp_, k5_, b65 * dt);
    rhs(t + 0.5 * dt, tmp_, k6_);
    stats_.rhs_evals += 6;
    assign_sum(out_, m, k1_, c1 * dt);
    add_scaled(out_, k3_, c3 * dt);
    add_scaled(out_, k4_, c4 * dt);
    add_scaled(out_, k5_, c5 * dt);
    add_scaled(out_, k6_, c6 * dt);
    double err = 0.0;
    for (std::size_t c = 0; c < m.size(); ++c) {
      const Vec3 e = k1_[c] * e1 + k3_[c] * e3 + k4_[c] * e4 + k5_[c] * e5 +
                     k6_[c] * e6;
      err = std::max(err, e.norm2());
    }
    return std::sqrt(err) * dt;
  }

  IntegratorOptions opts_;
  StepStats stats_;
  Field k1_, k2_, k3_, k4_, k5_, k6_, tmp_, out_;
};

// Probe: x-window average over the cross-section on the k * interval grid.
struct Probe {
  Probe(const Mesh& mesh, double x_center, double width, double interval)
      : mesh(mesh), interval(interval) {
    i_begin = mesh.cell_at_x(std::max(x_center - 0.5 * width, 0.0));
    i_end = std::min<std::size_t>(mesh.cell_at_x(x_center + 0.5 * width) + 1,
                                  mesh.nx());
  }

  double next_deadline() const {
    return static_cast<double>(next_index) * interval;
  }

  void maybe_sample(double t, const Field& m) {
    if (t < next_deadline() - 1e-9 * interval) return;
    Vec3 acc;
    std::size_t count = 0;
    const std::size_t nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
    for (std::size_t k = 0; k < nz; ++k) {
      for (std::size_t j = 0; j < ny; ++j) {
        const std::size_t row = nx * (j + ny * k);
        for (std::size_t i = i_begin; i < i_end; ++i) {
          acc += m[row + i];
          ++count;
        }
      }
    }
    samples.push_back(acc * (1.0 / static_cast<double>(count)));
    next_index = static_cast<std::size_t>(std::floor(t / interval + 1e-9)) + 1;
  }

  Mesh mesh;
  double interval;
  std::size_t i_begin = 0, i_end = 0, next_index = 0;
  std::vector<Vec3> samples;
};

// Simulation::run_until: the run is chunked at probe deadlines so samples
// land on exact times.
struct Simulation {
  Simulation(const Mesh& mesh, const Material& mat,
             const IntegratorOptions& opts)
      : mat(mat), m(mesh.cell_count(), mat.easy_axis.normalized()),
        integrator(opts) {}

  void run_until(double t_end) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    p.alpha = mat.alpha;
    if (!alpha.empty()) p.alpha_per_cell = &alpha;
    Field h;
    const Rhs rhs = [&](double t, const Field& mm, Field& dmdt) {
      h.assign(mm.size(), Vec3{});
      for (const auto& term : terms) term(t, mm, h);
      llg_rhs(p, mm, h, dmdt);
    };
    const auto earliest = [&] {
      double d = std::numeric_limits<double>::infinity();
      for (const auto& pr : probes) d = std::min(d, pr.next_deadline());
      return d;
    };
    while (t < t_end) {
      double next = std::min(earliest(), t_end);
      if (next <= t + 1e-30) {
        for (auto& pr : probes) pr.maybe_sample(t, m);
        next = std::min(earliest(), t_end);
        if (next <= t + 1e-30) break;
      }
      integrator.advance(rhs, m, t, next);
      t = next;
      for (auto& pr : probes) pr.maybe_sample(t, m);
    }
    if (t < t_end) {
      integrator.advance(rhs, m, t, t_end);
      t = t_end;
    }
  }

  Material mat;
  Field m;
  std::vector<Term> terms;
  std::vector<Probe> probes;
  std::vector<double> alpha;
  Integrator integrator;
  double t = 0.0;
};

}  // namespace ref

// ------------------------------------------------------------------ helpers

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

::testing::AssertionResult SameBits(const ref::Field& want,
                                    const VectorField& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", reference " << want.size();
  }
  for (std::size_t c = 0; c < want.size(); ++c) {
    const double w[3] = {want[c].x, want[c].y, want[c].z};
    for (std::size_t a = 0; a < 3; ++a) {
      const double g = got.comp(a)[c];
      if (!same_bits(w[a], g)) {
        return ::testing::AssertionFailure()
               << "cell " << c << " axis " << a << ": solver " << hex(g)
               << ", reference " << hex(w[a]);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Unit vectors scattered around +z, plus a few exact edge values.
VectorField random_unit_field(const Mesh& mesh, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-0.4, 0.4);
  VectorField m(mesh);
  for (std::size_t c = 0; c < m.size(); ++c) {
    m.set(c, Vec3{u(rng), u(rng), 1.0}.normalized());
  }
  if (m.size() > 2) {
    m.set(0, {0.0, 0.0, 1.0});
    m.set(1, {-0.0, 0.0, -1.0});
  }
  return m;
}

/// Arbitrary non-zero starting field, so `+=` accumulation is checked too.
VectorField random_field(const Mesh& mesh, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1e5, 1e5);
  VectorField h(mesh);
  for (std::size_t c = 0; c < h.size(); ++c) {
    h.set(c, {u(rng), u(rng), u(rng)});
  }
  return h;
}

/// Accumulates `term` and `reference` onto the same start and compares.
::testing::AssertionResult TermMatches(const FieldTerm& term,
                                       const ref::Term& reference,
                                       const VectorField& m, double t,
                                       std::uint64_t seed) {
  VectorField h = random_field(m.mesh(), seed);
  ref::Field want = ref::copy_of(h);
  term.accumulate(t, m, h);
  reference(t, ref::copy_of(m), want);
  return SameBits(want, h);
}

Material tilted_material() {
  Material mat = make_fecob();
  mat.easy_axis = Vec3{0.3, -0.2, 1.0}.normalized();
  return mat;
}

const Mesh kMeshes[] = {
    Mesh(9, 1, 1, 2e-9, 50e-9, 1e-9),   // waveguide chain
    Mesh(1, 1, 1, 2e-9, 2e-9, 1e-9),    // single cell
    Mesh(2, 1, 1, 2e-9, 2e-9, 1e-9),    // two boundary cells, no interior
    Mesh(1, 5, 1, 2e-9, 3e-9, 1e-9),    // y only
    Mesh(19, 4, 1, 2e-9, 3e-9, 1e-9),   // 2-D, odd row length
    Mesh(5, 3, 4, 2e-9, 3e-9, 1.5e-9),  // 3-D
    Mesh(3, 1, 6, 2e-9, 3e-9, 1.5e-9),  // x-z
};

// ------------------------------------------------------------------- terms

TEST(SolverReference, ExchangeOnOneTwoAndThreeDimensionalMeshes) {
  const Material mat = make_fecob();
  std::uint64_t seed = 1;
  for (const Mesh& mesh : kMeshes) {
    const ExchangeField term(mesh, mat);
    const VectorField m = random_unit_field(mesh, seed++);
    EXPECT_TRUE(TermMatches(term, ref::exchange(mesh, mat), m, 0.0, seed++))
        << mesh.nx() << "x" << mesh.ny() << "x" << mesh.nz();
  }
}

TEST(SolverReference, AnisotropyLocalDemagAndZeeman) {
  const Material mat = tilted_material();
  const Vec3 factors = demag_factors_waveguide(50e-9, 1e-9);
  std::uint64_t seed = 100;
  for (const Mesh& mesh : kMeshes) {
    const VectorField m = random_unit_field(mesh, seed++);
    EXPECT_TRUE(TermMatches(UniaxialAnisotropyField(mat), ref::uniaxial(mat),
                            m, 0.0, seed++));
    EXPECT_TRUE(TermMatches(DemagLocalField(mat, factors),
                            ref::demag_local(mat, factors), m, 0.0, seed++));
    const Vec3 h_ext{1.5e4, -0.0, 2e3};
    EXPECT_TRUE(TermMatches(UniformZeemanField(h_ext), ref::zeeman(h_ext), m,
                            0.0, seed++));
  }
}

TEST(SolverReference, NewellDemag) {
  const Material mat = make_fecob();
  const Mesh meshes[] = {Mesh(12, 1, 1, 2e-9, 50e-9, 1e-9),
                         Mesh(5, 3, 2, 2e-9, 3e-9, 1e-9)};
  std::uint64_t seed = 200;
  for (const Mesh& mesh : meshes) {
    const DemagNewellField term(mesh, mat);
    const VectorField m = random_unit_field(mesh, seed++);
    EXPECT_TRUE(
        TermMatches(term, ref::NewellDemag(mesh, mat), m, 0.0, seed++));
  }
}

TEST(SolverReference, ThermalFieldWithTheSameSeed) {
  const Mesh mesh(7, 2, 1, 2e-9, 3e-9, 1e-9);
  const Material mat = make_fecob();
  const double dt = 1e-13;
  const ThermalField term(mesh, mat, 300.0, dt, 0xC0FFEEu);
  const ref::Term reference = ref::thermal(mesh, mat, 300.0, dt, 0xC0FFEEu);
  const VectorField m = random_unit_field(mesh, 300);
  // Stages inside one step share a realisation; later and earlier steps
  // redraw it.
  std::uint64_t seed = 301;
  for (const double t : {0.0, 0.5e-13, 1e-13, 3.7e-13, 1e-13, 0.0}) {
    EXPECT_TRUE(TermMatches(term, reference, m, t, seed++)) << "t = " << t;
  }
}

TEST(SolverReference, OverlappingAntennasAtRepeatedAndOutOfOrderTimes) {
  const Mesh mesh(40, 2, 1, 2e-9, 3e-9, 1e-9);
  std::vector<Antenna> list;
  for (int i = 0; i < 4; ++i) {
    Antenna a;
    a.x_center = 30e-9 + 3e-9 * i;  // footprints overlap 3-4 deep
    a.width = 12e-9;
    a.frequency = 1e10 * (i + 1);
    a.phase = i % 2 ? sw::util::kPi : 0.0;
    a.amplitude = 2e3 * (1.0 + 0.1 * i);
    a.direction = i == 3 ? Vec3{1, 1, 0} : Vec3{1, 0, 0};
    a.ramp = 1.0 / a.frequency;
    a.t_on = i == 2 ? 4e-12 : 0.0;  // one antenna still silent early on
    list.push_back(a);
  }
  AntennaField term(mesh);
  for (const auto& a : list) term.add(a);
  const ref::Term reference = ref::antennas(mesh, list);
  const VectorField m(mesh, {0, 0, 1});
  std::uint64_t seed = 400;
  for (const double t :
       {0.0, 1.5e-12, 1.5e-12, 0.75e-12, 6e-12, 6e-12, 6.075e-12, 1.5e-12}) {
    EXPECT_TRUE(TermMatches(term, reference, m, t, seed++)) << "t = " << t;
  }
}

TEST(SolverReference, LlgRhsWithUniformAndPerCellDamping) {
  const Mesh mesh(23, 1, 1, 2e-9, 50e-9, 1e-9);
  const VectorField m = random_unit_field(mesh, 500);
  const VectorField h = random_field(mesh, 501);
  std::vector<double> alpha(mesh.cell_count());
  for (std::size_t c = 0; c < alpha.size(); ++c) {
    alpha[c] = 0.004 + 0.02 * static_cast<double>(c);
  }
  const std::vector<double> prefactors = damping_prefactors(kGammaMu0, alpha);
  for (const bool precession : {true, false}) {
    for (int mode = 0; mode < 3; ++mode) {
      LlgParams p;
      p.gamma_mu0 = kGammaMu0;
      p.alpha = 0.01;
      p.precession = precession;
      if (mode > 0) p.alpha_per_cell = &alpha;
      if (mode > 1) p.prefactor_per_cell = &prefactors;
      VectorField got(mesh);
      llg_rhs(p, m, h, got);
      ref::Field want;
      ref::llg_rhs(p, ref::copy_of(m), ref::copy_of(h), want);
      EXPECT_TRUE(SameBits(want, got))
          << "precession " << precession << ", mode " << mode;
    }
  }
}

// ---------------------------------------------------------------- steppers

// A short chain with every local term, overlapping antennas, per-cell
// damping and (fixed-step only) thermal noise, advanced in chunks.
class SolverReferenceSteppers : public ::testing::TestWithParam<Stepper> {};

TEST_P(SolverReferenceSteppers, AdvanceMatchesStepForStep) {
  const Stepper stepper = GetParam();
  const bool adaptive = stepper == Stepper::kRkf54;
  const Mesh mesh(31, 1, 1, 2e-9, 50e-9, 1e-9);
  const Material mat = tilted_material();
  const Vec3 factors = demag_factors_waveguide(50e-9, 1e-9);
  std::vector<Antenna> list;
  for (int i = 0; i < 3; ++i) {
    Antenna a;
    a.x_center = 24e-9 + 4e-9 * i;
    a.width = 10e-9;
    a.frequency = 2e10 + 1e10 * i;
    a.phase = 0.7 * i;
    a.amplitude = 5e4;
    a.ramp = 2e-12;
    list.push_back(a);
  }
  std::vector<double> alpha(mesh.cell_count());
  for (std::size_t c = 0; c < alpha.size(); ++c) {
    alpha[c] = c < 5 || c > 25 ? 0.3 : mat.alpha;
  }

  IntegratorOptions opts;
  opts.stepper = stepper;
  opts.dt = adaptive ? 1e-12 : 1e-13;  // adaptive: too large at first
  opts.dt_max = 1e-12;
  opts.tolerance = 1e-6;

  std::vector<std::unique_ptr<FieldTerm>> terms;
  terms.push_back(std::make_unique<ExchangeField>(mesh, mat));
  terms.push_back(std::make_unique<UniaxialAnisotropyField>(mat));
  terms.push_back(std::make_unique<DemagLocalField>(mat, factors));
  auto ant = std::make_unique<AntennaField>(mesh);
  for (const auto& a : list) ant->add(a);
  terms.push_back(std::move(ant));
  std::vector<ref::Term> ref_terms = {
      ref::exchange(mesh, mat), ref::uniaxial(mat),
      ref::demag_local(mat, factors), ref::antennas(mesh, list)};
  if (!adaptive) {
    terms.push_back(
        std::make_unique<ThermalField>(mesh, mat, 50.0, opts.dt, 77));
    ref_terms.push_back(ref::thermal(mesh, mat, 50.0, opts.dt, 77));
  }

  LlgParams p;
  p.gamma_mu0 = kGammaMu0;
  p.alpha_per_cell = &alpha;
  VectorField h(mesh);
  const RhsFn rhs = [&](double t, const VectorField& m, VectorField& dmdt) {
    h.zero();
    for (const auto& term : terms) term->accumulate(t, m, h);
    llg_rhs(p, m, h, dmdt);
  };
  ref::Field ref_h;
  const ref::Rhs ref_rhs = [&](double t, const ref::Field& m,
                               ref::Field& dmdt) {
    ref_h.assign(m.size(), Vec3{});
    for (const auto& term : ref_terms) term(t, m, ref_h);
    ref::llg_rhs(p, m, ref_h, dmdt);
  };

  VectorField m = random_unit_field(mesh, 600);
  ref::Field ref_m = ref::copy_of(m);
  Integrator integrator(opts);
  ref::Integrator reference(opts);
  double t = 0.0;
  for (const double chunk : {0.35e-12, 1e-12, 0.05e-12, 2.6e-12}) {
    const StepStats& got = integrator.advance(rhs, m, t, t + chunk);
    const StepStats& want = reference.advance(ref_rhs, ref_m, t, t + chunk);
    t += chunk;
    ASSERT_TRUE(SameBits(ref_m, m)) << "after t = " << t;
    EXPECT_EQ(got.steps_taken, want.steps_taken);
    EXPECT_EQ(got.steps_rejected, want.steps_rejected);
    EXPECT_EQ(got.rhs_evals, want.rhs_evals);
  }
  if (adaptive) {
    EXPECT_GT(integrator.stats().steps_rejected, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSteppers, SolverReferenceSteppers,
                         ::testing::Values(Stepper::kEuler, Stepper::kHeun,
                                           Stepper::kRk4, Stepper::kRkf54));

// ------------------------------------------------------------- gate runner

// The MicromagGateRunner's whole physics path: chain, absorbing ends,
// antennas, chunked probes and decode, for two channels with different data.
TEST(SolverReference, TwoChannelGateRunEverySample) {
  sw::disp::Waveguide wg;
  wg.material = make_fecob();
  wg.width = 50e-9;
  wg.thickness = 1e-9;
  sw::core::MicromagConfig cfg;
  cfg.t_end = 1.2e-9;
  auto model = sw::disp::LocalDemag1DDispersion::from_waveguide(wg);
  model.set_discretization(cfg.cell_size);
  sw::core::GateSpec spec;
  spec.num_inputs = 3;
  spec.frequencies = {2e10, 4e10};
  const auto layout = sw::core::InlineGateDesigner(model).design(spec);
  const std::vector<sw::core::Bits> inputs = {{1, 1, 0}, {0, 0, 1}};

  sw::core::MicromagGateRunner runner(layout, wg, cfg);
  const sw::core::MicromagRun run = runner.run(inputs);

  // The same experiment on the reference solver.
  const auto nx =
      static_cast<std::size_t>(std::ceil(runner.guide_length() / cfg.cell_size));
  const Mesh mesh(nx, 1, 1, cfg.cell_size, wg.width, wg.thickness);
  const Material& mat = wg.material;
  ref::Simulation sim(mesh, mat, cfg.integrator);
  std::vector<Antenna> list;
  for (const auto& s : layout.sources) {
    Antenna a;
    a.x_center = runner.to_mesh_x(s.x);
    a.width = spec.transducer_width;
    a.frequency = spec.frequencies[s.channel];
    a.phase = sw::core::phase_of_bit(inputs[s.channel][s.input] != 0);
    a.amplitude = cfg.drive_field * s.amplitude;
    a.ramp = 1.0 / a.frequency;
    list.push_back(a);
  }
  sim.terms = {ref::exchange(mesh, mat), ref::uniaxial(mat),
               ref::demag_local(
                   mat, demag_factors_waveguide(wg.width, wg.thickness)),
               ref::antennas(mesh, list)};
  for (const auto& d : layout.detectors) {
    sim.probes.emplace_back(mesh, runner.to_mesh_x(d.x),
                            spec.transducer_width, cfg.sample_dt);
  }
  sim.alpha.assign(mesh.cell_count(), mat.alpha);
  for (std::size_t i = 0; i < nx; ++i) {
    const double x = (static_cast<double>(i) + 0.5) * mesh.dx();
    const double edge = std::min(x, mesh.size_x() - x);
    if (edge >= cfg.absorber_width) continue;
    const double u = 1.0 - edge / cfg.absorber_width;
    sim.alpha[i] = std::max(
        sim.alpha[i], mat.alpha + (cfg.absorber_alpha - mat.alpha) * u * u);
  }
  sim.run_until(cfg.t_end);

  ASSERT_EQ(run.traces.size(), 2u);
  std::size_t compared = 0;
  for (std::size_t ch = 0; ch < 2; ++ch) {
    const auto& samples = sim.probes[ch].samples;
    ASSERT_EQ(run.traces[ch].size(), samples.size());
    std::vector<double> trace(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      trace[i] = samples[i].x;
      ASSERT_TRUE(same_bits(run.traces[ch][i], trace[i]))
          << "channel " << ch << " sample " << i << ": "
          << hex(run.traces[ch][i]) << " vs reference " << hex(trace[i]);
      ++compared;
    }
    const auto phasor = sw::core::extract_phasor(
        trace, run.window_begin, trace.size(), run.sample_rate,
        spec.frequencies[ch]);
    EXPECT_TRUE(same_bits(run.channels[ch].phase, std::arg(phasor)));
    EXPECT_TRUE(same_bits(run.channels[ch].amplitude, std::abs(phasor)));
  }
  EXPECT_GT(compared, 1000u);
}

}  // namespace
