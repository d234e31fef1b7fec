// Unit tests for the micromagnetic solver substrate: mesh, fields, field
// terms (exchange / anisotropy / Zeeman / antenna / demag), LLG dynamics,
// integrators, probes and energies.
#include <gtest/gtest.h>

#include <cmath>

#include "mag/anisotropy.h"
#include "mag/antenna.h"
#include "mag/demag_factors.h"
#include "mag/demag_local.h"
#include "mag/demag_newell.h"
#include "mag/energy.h"
#include "mag/exchange.h"
#include "mag/integrator.h"
#include "mag/llg.h"
#include "mag/material.h"
#include "mag/mesh.h"
#include "mag/probe.h"
#include "mag/simulation.h"
#include "mag/vector_field.h"
#include "mag/zeeman.h"
#include "util/constants.h"
#include "util/error.h"

namespace {

using namespace sw::mag;
using sw::util::Error;
using sw::util::kGammaMu0;
using sw::util::kPi;
using sw::util::kTwoPi;

// --------------------------------------------------------------------- vec3

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  const Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 5);
  EXPECT_DOUBLE_EQ((a - b).z, -3);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4);
  EXPECT_DOUBLE_EQ(dot(a, b), 32);
}

TEST(Vec3, CrossFollowsRightHandRule) {
  const Vec3 c = cross(Vec3{1, 0, 0}, Vec3{0, 1, 0});
  EXPECT_DOUBLE_EQ(c.x, 0);
  EXPECT_DOUBLE_EQ(c.y, 0);
  EXPECT_DOUBLE_EQ(c.z, 1);
}

TEST(Vec3, NormAndNormalized) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);
}

// --------------------------------------------------------------------- mesh

TEST(Mesh, IndexCoordsRoundTrip) {
  const Mesh mesh(5, 3, 2, 1e-9, 2e-9, 3e-9);
  EXPECT_EQ(mesh.cell_count(), 30u);
  for (std::size_t idx = 0; idx < mesh.cell_count(); ++idx) {
    std::size_t i, j, k;
    mesh.coords(idx, i, j, k);
    EXPECT_EQ(mesh.index(i, j, k), idx);
  }
}

TEST(Mesh, GeometryQueries) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  EXPECT_DOUBLE_EQ(mesh.size_x(), 20e-9);
  EXPECT_DOUBLE_EQ(mesh.cell_volume(), 1e-25);
  const Vec3 c = mesh.cell_center(0, 0, 0);
  EXPECT_DOUBLE_EQ(c.x, 1e-9);
}

TEST(Mesh, CellAtXClamps) {
  const Mesh mesh(10, 1, 1, 2e-9, 1e-9, 1e-9);
  EXPECT_EQ(mesh.cell_at_x(-5e-9), 0u);
  EXPECT_EQ(mesh.cell_at_x(3e-9), 1u);
  EXPECT_EQ(mesh.cell_at_x(1e-6), 9u);
}

TEST(Mesh, RejectsBadArguments) {
  EXPECT_THROW(Mesh(0, 1, 1, 1e-9, 1e-9, 1e-9), Error);
  EXPECT_THROW(Mesh(1, 1, 1, 0.0, 1e-9, 1e-9), Error);
}

// -------------------------------------------------------------- vectorfield

TEST(VectorField, FillAndAverage) {
  const Mesh mesh(4, 2, 1, 1e-9, 1e-9, 1e-9);
  VectorField f(mesh, {0, 0, 1});
  EXPECT_DOUBLE_EQ(f.average().z, 1.0);
  f.set(mesh.index(0, 0, 0), {0, 0, -1});
  EXPECT_NEAR(f.average().z, 6.0 / 8.0, 1e-15);
}

TEST(VectorField, AddScaledAndAssignSum) {
  const Mesh mesh(3, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField a(mesh, {1, 0, 0});
  const VectorField b(mesh, {0, 2, 0});
  a.add_scaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a[0].y, 1.0);
  VectorField c;
  c.assign_sum(a, b, -0.5);
  EXPECT_DOUBLE_EQ(c[1].y, 0.0);
  EXPECT_DOUBLE_EQ(c[1].x, 1.0);
}

TEST(VectorField, NormalizeRestoresUnitLength) {
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField f(mesh, {0.1, 0.2, 0.9});
  f.normalize();
  EXPECT_NEAR(f[0].norm(), 1.0, 1e-15);
  f.set(1, {0, 0, 0});
  f.normalize();  // zero vectors untouched
  EXPECT_DOUBLE_EQ(f[1].norm(), 0.0);
}

TEST(VectorField, MaxNorm) {
  const Mesh mesh(3, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField f(mesh);
  f.set(2, {0, -3, 4});
  EXPECT_DOUBLE_EQ(f.max_norm(), 5.0);
}

TEST(VectorField, SizeMismatchThrows) {
  const Mesh m1(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const Mesh m2(3, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField a(m1), b(m2);
  EXPECT_THROW(a.add_scaled(b, 1.0), Error);
}

// ----------------------------------------------------------------- material

TEST(Material, PaperParameters) {
  const Material m = make_fecob();
  EXPECT_DOUBLE_EQ(m.Ms, 1.1e6);
  EXPECT_DOUBLE_EQ(m.Aex, 18.5e-12);
  EXPECT_DOUBLE_EQ(m.alpha, 0.004);
  EXPECT_DOUBLE_EQ(m.Ku, 8.3177e5);
  // Hk = 2 Ku / (mu0 Ms) must exceed Ms for self-biased PMA operation.
  EXPECT_GT(m.anisotropy_field(), m.Ms);
  EXPECT_NEAR(m.anisotropy_field(), 1.2035e6, 5e2);
  EXPECT_NEAR(m.exchange_length(), 4.93e-9, 5e-11);
}

TEST(Material, LookupByName) {
  EXPECT_EQ(material_by_name("fecob").name, "Fe60Co20B20");
  EXPECT_EQ(material_by_name("YIG").name, "YIG");
  EXPECT_EQ(material_by_name("Permalloy").name, "Py");
  EXPECT_THROW(material_by_name("unobtainium"), Error);
}

TEST(Material, ValidateRejectsNonsense) {
  Material m = make_fecob();
  m.alpha = 2.0;
  EXPECT_THROW(m.validate(), Error);
  m = make_fecob();
  m.easy_axis = {0, 0, 2};
  EXPECT_THROW(m.validate(), Error);
  m = make_fecob();
  m.Ms = -1.0;
  EXPECT_THROW(m.validate(), Error);
}

// ------------------------------------------------------------ demag factors

TEST(DemagFactors, CubeIsOneThird) {
  const Vec3 n = demag_factors(1e-9, 1e-9, 1e-9);
  EXPECT_NEAR(n.x, 1.0 / 3.0, 1e-10);
  EXPECT_NEAR(n.y, 1.0 / 3.0, 1e-10);
  EXPECT_NEAR(n.z, 1.0 / 3.0, 1e-10);
}

TEST(DemagFactors, TraceIsOne) {
  const Vec3 n = demag_factors(10e-9, 50e-9, 1e-9);
  EXPECT_NEAR(n.x + n.y + n.z, 1.0, 1e-9);
}

TEST(DemagFactors, ThinFilmLimit) {
  // Very wide, very thin: Nz -> 1.
  const Vec3 n = demag_factors(1e-6, 1e-6, 1e-9);
  EXPECT_GT(n.z, 0.99);
  EXPECT_LT(n.x, 0.01);
}

TEST(DemagFactors, OrderingFollowsGeometry) {
  // Longest axis has the smallest factor.
  const Vec3 n = demag_factors(100e-9, 50e-9, 10e-9);
  EXPECT_LT(n.x, n.y);
  EXPECT_LT(n.y, n.z);
}

TEST(DemagFactors, WaveguideHelperIsSane) {
  const Vec3 n = demag_factors_waveguide(50e-9, 1e-9);
  EXPECT_NEAR(n.x + n.y + n.z, 1.0, 1e-12);
  EXPECT_GE(n.x, 0.0);
  EXPECT_LT(n.x, 0.01);    // propagation axis ~ free
  EXPECT_GT(n.z, 0.9);     // thickness direction dominates
  EXPECT_GT(n.y, n.x);
}

TEST(DemagFactors, RejectsBadShape) {
  EXPECT_THROW(demag_factor_z(0.0, 1e-9, 1e-9), Error);
}

// ------------------------------------------------------------ newell tensor

TEST(NewellTensor, SelfTermOfCubeIsOneThird) {
  const double d = 2e-9;
  EXPECT_NEAR(newell_nxx(0, 0, 0, d, d, d), 1.0 / 3.0, 1e-9);
}

TEST(NewellTensor, SelfTermMatchesAharoni) {
  const double dx = 2e-9, dy = 50e-9, dz = 1e-9;
  const Vec3 aha = demag_factors(dx, dy, dz);
  const DemagTensor n = newell_tensor(0, 0, 0, dx, dy, dz, 0.0);
  EXPECT_NEAR(n.xx, aha.x, 1e-6);
  EXPECT_NEAR(n.yy, aha.y, 1e-6);
  EXPECT_NEAR(n.zz, aha.z, 1e-6);
  EXPECT_NEAR(n.xy, 0.0, 1e-12);
  EXPECT_NEAR(n.xz, 0.0, 1e-12);
  EXPECT_NEAR(n.yz, 0.0, 1e-12);
}

TEST(NewellTensor, TraceVanishesOffOrigin) {
  // The demag tensor is traceless away from the source cell.
  const double d = 2e-9;
  const DemagTensor n = newell_tensor(3 * d, 2 * d, d, d, d, d, 0.0);
  EXPECT_NEAR(n.xx + n.yy + n.zz, 0.0, 1e-10);
}

TEST(NewellTensor, MatchesDipoleFarAway) {
  const double d = 2e-9;
  const double X = 40 * d, Y = 10 * d, Z = 5 * d;
  const DemagTensor exact = newell_tensor(X, Y, Z, d, d, d, 0.0);
  const DemagTensor dip = newell_tensor(X, Y, Z, d, d, d, 10.0);
  EXPECT_NEAR(exact.xx, dip.xx, 5e-3 * std::abs(dip.xx) + 1e-12);
  EXPECT_NEAR(exact.xy, dip.xy, 5e-3 * std::abs(dip.xy) + 1e-12);
}

TEST(NewellTensor, SymmetricUnderReflection) {
  const double d = 2e-9;
  const DemagTensor a = newell_tensor(3 * d, d, 0, d, d, d, 0.0);
  const DemagTensor b = newell_tensor(-3 * d, d, 0, d, d, d, 0.0);
  EXPECT_NEAR(a.xx, b.xx, 1e-15);
  EXPECT_NEAR(a.xy, -b.xy, 1e-15);  // odd in x
}

TEST(DemagNewellField, UniformFilmAverageMatchesShapeFactor) {
  // A uniformly magnetised thin platelet: the *average* demag field is
  // -N_body * Ms with N_body the Aharoni factors of the whole body.
  const std::size_t nx = 16, ny = 16;
  const double d = 2e-9;
  const Mesh mesh(nx, ny, 1, d, d, 1e-9);
  const Material mat = make_fecob();
  DemagNewellField demag(mesh, mat);

  VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  demag.accumulate(0.0, m, h);

  const Vec3 body = demag_factors(nx * d, ny * d, 1e-9);
  const Vec3 avg = h.average();
  EXPECT_NEAR(avg.z, -body.z * mat.Ms, 0.01 * mat.Ms);
  EXPECT_NEAR(avg.x, 0.0, 1e-6 * mat.Ms);
}

TEST(DemagNewellField, SelfTensorExposed) {
  const Mesh mesh(4, 1, 1, 2e-9, 50e-9, 1e-9);
  const DemagNewellField demag(mesh, make_fecob());
  const auto self = demag.self_tensor();
  const Vec3 aha = demag_factors(2e-9, 50e-9, 1e-9);
  EXPECT_NEAR(self.zz, aha.z, 1e-8);
}

// ----------------------------------------------------------------- exchange

TEST(ExchangeField, UniformStateHasZeroField) {
  const Mesh mesh(8, 1, 1, 2e-9, 50e-9, 1e-9);
  const Material mat = make_fecob();
  const ExchangeField ex(mesh, mat);
  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  ex.accumulate(0.0, m, h);
  EXPECT_NEAR(h.max_norm(), 0.0, 1e-20);
}

TEST(ExchangeField, CosineModeEigenvalue) {
  // For m_x = eps*cos(kx) (interior cells), the discrete Laplacian gives
  // -k_eff^2 m_x with k_eff^2 = 2(1 - cos(k dx))/dx^2.
  const std::size_t n = 64;
  const double dx = 2e-9;
  const Mesh mesh(n, 1, 1, dx, 50e-9, 1e-9);
  const Material mat = make_fecob();
  const ExchangeField ex(mesh, mat);

  const double k = kTwoPi / (16 * dx);
  const double eps = 1e-4;
  VectorField m(mesh);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = (static_cast<double>(i) + 0.5) * dx;
    m.set(i, Vec3{eps * std::cos(k * x), 0, 1}.normalized());
  }
  VectorField h(mesh);
  ex.accumulate(0.0, m, h);

  const double k_eff2 = 2.0 * (1.0 - std::cos(k * dx)) / (dx * dx);
  // Check interior cells only (boundary cells feel the Neumann mirror).
  for (std::size_t i = 8; i < n - 8; ++i) {
    const double expect = -ex.prefactor() * k_eff2 * m[i].x;
    EXPECT_NEAR(h[i].x, expect, std::abs(expect) * 0.02 + 1e-10);
  }
}

TEST(ExchangeField, PrefactorValue) {
  const Mesh mesh(4, 1, 1, 2e-9, 50e-9, 1e-9);
  const Material mat = make_fecob();
  const ExchangeField ex(mesh, mat);
  EXPECT_NEAR(ex.prefactor(),
              2.0 * mat.Aex / (sw::util::kMu0 * mat.Ms), 1e-20);
}

// --------------------------------------------------------------- anisotropy

TEST(AnisotropyField, AlignedStateFeelsFullHk) {
  const Material mat = make_fecob();
  const UniaxialAnisotropyField ani(mat);
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  ani.accumulate(0.0, m, h);
  EXPECT_NEAR(h[0].z, mat.anisotropy_field(), 1e-6);
  EXPECT_DOUBLE_EQ(h[0].x, 0.0);
}

TEST(AnisotropyField, TransverseStateFeelsNothing) {
  const UniaxialAnisotropyField ani(make_fecob());
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {1, 0, 0});
  VectorField h(mesh);
  ani.accumulate(0.0, m, h);
  EXPECT_NEAR(h[0].norm(), 0.0, 1e-12);
}

TEST(AnisotropyField, ProjectionScaling) {
  const Material mat = make_fecob();
  const UniaxialAnisotropyField ani(mat);
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  const double c = std::cos(0.3), s = std::sin(0.3);
  const VectorField m(mesh, {s, 0, c});
  VectorField h(mesh);
  ani.accumulate(0.0, m, h);
  EXPECT_NEAR(h[0].z, mat.anisotropy_field() * c, 1e-6);
}

// ------------------------------------------------------------------- zeeman

TEST(ZeemanField, AddsUniformField) {
  const UniformZeemanField z({1e4, 0, 2e4});
  const Mesh mesh(3, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  z.accumulate(0.0, m, h);
  EXPECT_DOUBLE_EQ(h[2].x, 1e4);
  EXPECT_DOUBLE_EQ(h[2].z, 2e4);
  EXPECT_DOUBLE_EQ(z.energy_prefactor(), 1.0);
}

// ------------------------------------------------------------------ antenna

TEST(Antenna, DriveEnvelope) {
  Antenna a;
  a.frequency = 1e10;
  a.phase = 0.0;
  a.t_on = 1e-9;
  a.t_off = 2e-9;
  a.ramp = 0.0;
  EXPECT_DOUBLE_EQ(a.drive(0.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(a.drive(2.5e-9), 0.0);
  EXPECT_NE(a.drive(1.5e-9), 0.0);
}

TEST(Antenna, RampGrowsLinearly) {
  Antenna a;
  a.frequency = 1e10;
  a.phase = kPi / 2.0;  // sin(wt + pi/2) = cos(wt) = 1 at t = 0
  a.ramp = 1e-10;
  EXPECT_NEAR(a.drive(0.0), 0.0, 1e-12);
  EXPECT_NEAR(a.drive(1e-10), std::sin(kTwoPi * 1e10 * 1e-10 + kPi / 2.0),
              1e-9);
}

TEST(AntennaField, AppliesOnlyInsideFootprint) {
  const Mesh mesh(100, 1, 1, 2e-9, 50e-9, 1e-9);
  AntennaField af(mesh);
  Antenna a;
  a.x_center = 100e-9;
  a.width = 10e-9;
  a.frequency = 1e10;
  a.phase = kPi / 2.0;
  a.amplitude = 1e3;
  af.add(a);
  ASSERT_EQ(af.count(), 1u);

  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  af.accumulate(0.0, m, h);
  // Footprint is cells with centres in [95, 105] nm -> indices 47..52.
  EXPECT_NEAR(h[50].x, 1e3, 1e-6);
  EXPECT_DOUBLE_EQ(h[30].x, 0.0);
  EXPECT_DOUBLE_EQ(h[70].x, 0.0);
}

TEST(AntennaField, PhaseEncodesLogicOne) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  AntennaField af(mesh);
  Antenna a0;
  a0.x_center = 10e-9;
  a0.width = 20e-9;
  a0.frequency = 1e10;
  a0.amplitude = 1.0;
  Antenna a1 = a0;
  a1.phase = kPi;
  af.add(a0);
  af.add(a1);
  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  af.accumulate(0.025e-9, m, h);  // quarter period of 10 GHz
  // sin(x) + sin(x + pi) = 0: opposite phases cancel exactly.
  EXPECT_NEAR(h[2].x, 0.0, 1e-12);
}

TEST(AntennaField, RejectsOutOfMeshFootprint) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  AntennaField af(mesh);
  Antenna a;
  a.x_center = 1e-6;
  a.width = 10e-9;
  EXPECT_THROW(af.add(a), Error);
}

// -------------------------------------------------------------- demag local

TEST(DemagLocalField, FieldOpposesMagnetisation) {
  const Material mat = make_fecob();
  const DemagLocalField d(mat, {0.0, 0.1, 0.9});
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {0, 0, 1});
  VectorField h(mesh);
  d.accumulate(0.0, m, h);
  EXPECT_NEAR(h[0].z, -0.9 * mat.Ms, 1e-3);
  EXPECT_DOUBLE_EQ(h[0].x, 0.0);
}

TEST(DemagLocalField, FromShapeUsesAharoni) {
  const Material mat = make_fecob();
  const auto d = DemagLocalField::from_shape(mat, 1e-9, 1e-9, 1e-9);
  EXPECT_NEAR(d.factors().z, 1.0 / 3.0, 1e-9);
}

TEST(DemagLocalField, RejectsBadFactors) {
  const Material mat = make_fecob();
  EXPECT_THROW(DemagLocalField(mat, {0.5, 0.5, 0.5}), Error);
  EXPECT_THROW(DemagLocalField(mat, {-0.1, 0.2, 0.9}), Error);
}

// ---------------------------------------------------------------------- llg

TEST(Llg, PrecessionRateMatchesLarmor) {
  // m precessing about a fixed field H: omega = gamma mu0 H (alpha = 0).
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{1, 0, 0});
  const VectorField h(mesh, Vec3{0, 0, 1e5});
  VectorField dmdt(mesh);
  LlgParams p;
  p.gamma_mu0 = kGammaMu0;
  p.alpha = 0.0;
  llg_rhs(p, m, h, dmdt);
  // dm/dt = -gamma (m x H) = -gamma * (x_hat x H z_hat)*H = +gamma H y_hat.
  EXPECT_NEAR(dmdt[0].y, kGammaMu0 * 1e5, 1.0);
  EXPECT_NEAR(dmdt[0].x, 0.0, 1e-9);
  EXPECT_NEAR(dmdt[0].z, 0.0, 1e-9);
}

TEST(Llg, DampingPullsTowardField) {
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{1, 0, 0});
  const VectorField h(mesh, Vec3{0, 0, 1e5});
  VectorField dmdt(mesh);
  LlgParams p;
  p.gamma_mu0 = kGammaMu0;
  p.alpha = 0.1;
  llg_rhs(p, m, h, dmdt);
  EXPECT_GT(dmdt[0].z, 0.0);  // relaxing toward +z
}

TEST(Llg, RhsIsOrthogonalToM) {
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{0.6, 0.48, 0.64});
  const VectorField h(mesh, Vec3{2e4, -1e4, 5e4});
  VectorField dmdt(mesh);
  LlgParams p;
  p.gamma_mu0 = kGammaMu0;
  p.alpha = 0.02;
  llg_rhs(p, m, h, dmdt);
  EXPECT_NEAR(dot(m[0], dmdt[0]), 0.0, 1e-3);
}

TEST(Llg, PerCellAlphaOverrides) {
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{1, 0, 0});
  const VectorField h(mesh, Vec3{0, 0, 1e5});
  VectorField dmdt(mesh);
  LlgParams p;
  p.gamma_mu0 = kGammaMu0;
  p.alpha = 0.0;
  const std::vector<double> alphas{0.0, 0.5};
  p.alpha_per_cell = &alphas;
  llg_rhs(p, m, h, dmdt);
  EXPECT_NEAR(dmdt[0].z, 0.0, 1e-9);
  EXPECT_GT(dmdt[1].z, 0.0);
}

TEST(Llg, MaxTorqueZeroAtEquilibrium) {
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, Vec3{0, 0, 1});
  const VectorField h(mesh, Vec3{0, 0, 1e5});
  EXPECT_NEAR(max_torque(m, h), 0.0, 1e-9);
}

// -------------------------------------------------------------- integrators

// Macrospin precession about +z at 1e5 A/m: period T = 2 pi/(gamma mu0 H).
class MacrospinConvergence : public ::testing::TestWithParam<Stepper> {};

TEST_P(MacrospinConvergence, CompletesOneRevolution) {
  const double H = 1e5;
  const double T = kTwoPi / (kGammaMu0 * H);
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{1, 0, 0});

  const RhsFn rhs = [H](double, const VectorField& mm, VectorField& out) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    p.alpha = 0.0;
    const VectorField h(mm.mesh(), Vec3{0, 0, H});
    llg_rhs(p, mm, h, out);
  };

  IntegratorOptions opts;
  opts.stepper = GetParam();
  opts.dt = T / 500.0;
  opts.dt_max = T / 100.0;
  opts.tolerance = 1e-8;
  Integrator integ(opts);
  integ.advance(rhs, m, 0.0, T);

  // After one full period the macrospin is back at +x.
  const double tol = (GetParam() == Stepper::kEuler) ? 0.05 : 1e-3;
  EXPECT_NEAR(m[0].x, 1.0, tol);
  EXPECT_NEAR(m[0].y, 0.0, 10 * tol);
  EXPECT_NEAR(m[0].norm(), 1.0, 1e-12);  // renormalised
}

INSTANTIATE_TEST_SUITE_P(AllSteppers, MacrospinConvergence,
                         ::testing::Values(Stepper::kEuler, Stepper::kHeun,
                                           Stepper::kRk4, Stepper::kRkf54));

TEST(Integrator, Rk4BeatsHeunAtSameStep) {
  const double H = 1e5;
  const double T = kTwoPi / (kGammaMu0 * H);
  const RhsFn rhs = [H](double, const VectorField& mm, VectorField& out) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    const VectorField h(mm.mesh(), Vec3{0, 0, H});
    llg_rhs(p, mm, h, out);
  };
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);

  auto phase_error = [&](Stepper s) {
    VectorField m(mesh, Vec3{1, 0, 0});
    IntegratorOptions opts;
    opts.stepper = s;
    opts.dt = T / 40.0;
    opts.renormalize = false;
    Integrator integ(opts);
    integ.advance(rhs, m, 0.0, T);
    return std::abs(std::atan2(m[0].y, m[0].x));
  };

  EXPECT_LT(phase_error(Stepper::kRk4), phase_error(Stepper::kHeun) / 10.0);
}

TEST(Integrator, AdaptiveTakesFewerStepsWhenLoose) {
  const double H = 1e5;
  const double T = kTwoPi / (kGammaMu0 * H);
  const RhsFn rhs = [H](double, const VectorField& mm, VectorField& out) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    const VectorField h(mm.mesh(), Vec3{0, 0, H});
    llg_rhs(p, mm, h, out);
  };
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);

  auto steps_at = [&](double tol) {
    VectorField m(mesh, Vec3{1, 0, 0});
    IntegratorOptions opts;
    opts.stepper = Stepper::kRkf54;
    opts.dt = T / 1000.0;
    opts.dt_max = T / 8.0;
    opts.tolerance = tol;
    Integrator integ(opts);
    return integ.advance(rhs, m, 0.0, T).steps_taken;
  };

  EXPECT_LT(steps_at(1e-4), steps_at(1e-8));
}

TEST(Integrator, StatsAccumulate) {
  const RhsFn rhs = [](double, const VectorField& mm, VectorField& out) {
    out = mm;
    out.fill({});
  };
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{0, 0, 1});
  IntegratorOptions opts;
  opts.stepper = Stepper::kRk4;
  opts.dt = 1e-13;
  Integrator integ(opts);
  integ.advance(rhs, m, 0.0, 1e-12);
  EXPECT_EQ(integ.stats().steps_taken, 10u);
  EXPECT_EQ(integ.stats().rhs_evals, 40u);
}

TEST(Integrator, ReusedAcrossMeshesWithEqualCellCounts) {
  // One integrator advancing an 8x1x1 field and then a 4x2x1 field: its
  // scratch stages must take the new mesh although the cell count is the
  // same, or the exchange term rejects the second RK stage.
  const Material mat = make_fecob();
  const Mesh chain(8, 1, 1, 2e-9, 50e-9, 1e-9);
  const Mesh sheet(4, 2, 1, 2e-9, 2e-9, 1e-9);
  const ExchangeField ex_chain(chain, mat);
  const ExchangeField ex_sheet(sheet, mat);
  const auto rhs_for = [](const ExchangeField& ex) {
    return RhsFn([&ex](double, const VectorField& mm, VectorField& out) {
      VectorField h(mm.mesh());
      ex.accumulate(0.0, mm, h);
      LlgParams p;
      p.gamma_mu0 = kGammaMu0;
      p.alpha = 0.01;
      llg_rhs(p, mm, h, out);
    });
  };
  const auto tilted = [](const Mesh& mesh) {
    VectorField m(mesh);
    for (std::size_t c = 0; c < m.size(); ++c) {
      m.set(c, Vec3{0.1 * static_cast<double>(c), 0.05, 1.0}.normalized());
    }
    return m;
  };
  IntegratorOptions opts;
  opts.stepper = Stepper::kRk4;
  opts.dt = 1e-13;

  Integrator shared(opts);
  VectorField a = tilted(chain);
  shared.advance(rhs_for(ex_chain), a, 0.0, 1e-12);
  VectorField b = tilted(sheet);
  ASSERT_NO_THROW(shared.advance(rhs_for(ex_sheet), b, 0.0, 1e-12));

  VectorField fresh = tilted(sheet);
  Integrator(opts).advance(rhs_for(ex_sheet), fresh, 0.0, 1e-12);
  for (std::size_t c = 0; c < b.size(); ++c) {
    EXPECT_EQ(b[c].x, fresh[c].x);
    EXPECT_EQ(b[c].y, fresh[c].y);
    EXPECT_EQ(b[c].z, fresh[c].z);
  }

  VectorField sum(chain);
  sum.assign_sum(b, b, 1.0);
  EXPECT_TRUE(sum.mesh() == sheet);
}

TEST(Integrator, NameRoundTrip) {
  EXPECT_EQ(stepper_from_name("rk4"), Stepper::kRk4);
  EXPECT_EQ(stepper_from_name(stepper_name(Stepper::kHeun)), Stepper::kHeun);
  EXPECT_THROW(stepper_from_name("leapfrog"), Error);
}

// ------------------------------------------------------------------- energy

TEST(Energy, ZeemanEnergyOfUniformState) {
  const Material mat = make_fecob();
  const Mesh mesh(2, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {0, 0, 1});
  const UniformZeemanField z({0, 0, 1e5});
  const double e = term_energy(z, mat, m, 0.0);
  // E = -mu0 Ms H V_total.
  const double expect = -sw::util::kMu0 * mat.Ms * 1e5 * 2e-27;
  EXPECT_NEAR(e, expect, std::abs(expect) * 1e-12);
}

TEST(Energy, AnisotropyFavoursEasyAxis) {
  const Material mat = make_fecob();
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  const UniaxialAnisotropyField ani(mat);
  const VectorField easy(mesh, {0, 0, 1});
  const VectorField hard(mesh, {1, 0, 0});
  EXPECT_LT(term_energy(ani, mat, easy, 0.0),
            term_energy(ani, mat, hard, 0.0));
}

TEST(Energy, TableSumsTerms) {
  const Material mat = make_fecob();
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  const VectorField m(mesh, {0, 0, 1});
  const UniformZeemanField z({0, 0, 1e5});
  const UniaxialAnisotropyField ani(mat);
  const auto table = energy_table({&z, &ani}, mat, m, 0.0);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.back().name, "total");
  EXPECT_NEAR(table.back().energy, table[0].energy + table[1].energy, 1e-30);
}

// -------------------------------------------------------------------- probe

TEST(Probe, SamplesAtRequestedRate) {
  const Mesh mesh(100, 1, 1, 2e-9, 50e-9, 1e-9);
  Probe p("test", mesh, 100e-9, 10e-9, 1e-12);
  const VectorField m(mesh, {0, 0, 1});
  for (int i = 0; i <= 10; ++i) {
    p.maybe_sample(static_cast<double>(i) * 0.5e-12, m);
  }
  // Deadlines at 0, 1, 2, 3, 4, 5 ps within [0, 5] ps.
  EXPECT_EQ(p.samples().size(), 6u);
  EXPECT_DOUBLE_EQ(p.samples()[1].t, 1e-12);
}

TEST(Probe, AveragesWindow) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  VectorField m(mesh, {0, 0, 1});
  m.set(5, {1, 0, 0});
  Probe p("win", mesh, 11e-9, 4e-9, 1e-12);  // covers cells 4..6
  p.sample(0.0, m);
  EXPECT_NEAR(p.samples()[0].m.x, 1.0 / 3.0, 1e-12);
}

TEST(Probe, ComponentExtraction) {
  const Mesh mesh(4, 1, 1, 1e-9, 1e-9, 1e-9);
  Probe p("c", mesh, 2e-9, 2e-9, 1e-12);
  const VectorField m(mesh, {0.25, 0.5, 1.0});
  p.sample(0.0, m);
  p.sample(1e-12, m);
  EXPECT_EQ(p.component('y').size(), 2u);
  EXPECT_DOUBLE_EQ(p.component('y')[0], 0.5);
  EXPECT_THROW(p.component('w'), Error);
}

// --------------------------------------------------------------- simulation

TEST(Simulation, RelaxAlignsWithEasyAxis) {
  const Mesh mesh(8, 1, 1, 2e-9, 50e-9, 1e-9);
  Material mat = make_fecob();
  Simulation sim(mesh, mat);
  sim.add_term<UniaxialAnisotropyField>(mat);
  sim.add_term<DemagLocalField>(mat, demag_factors_waveguide(50e-9, 1e-9));
  // Tilt the state away from equilibrium.
  sim.magnetization().fill(Vec3{0.3, 0.1, 0.95}.normalized());
  const double torque = sim.relax(10.0, 10e-9);
  EXPECT_LT(torque, 10.0);
  EXPECT_GT(sim.magnetization().average().z, 0.999);
}

TEST(Simulation, UniformPrecessionMatchesKittel) {
  // Uniform mode of the PMA film with local demag: the probe must ring at
  // f = gamma mu0 sqrt((Hi + Nx Ms)(Hi + Ny Ms)) / 2 pi.
  const Mesh mesh(4, 1, 1, 2e-9, 50e-9, 1e-9);
  Material mat = make_fecob();
  mat.alpha = 0.0;  // undamped ringdown
  const Vec3 nf = demag_factors_waveguide(50e-9, 1e-9);
  Simulation sim(mesh, mat);
  sim.add_term<UniaxialAnisotropyField>(mat);
  sim.add_term<DemagLocalField>(mat, nf);

  // Small uniform tilt, then free precession.
  sim.magnetization().fill(Vec3{0.02, 0.0, 1.0}.normalized());
  auto& probe = sim.add_probe("fmr", 4e-9, 8e-9, 0.5e-12);
  sim.run_until(2e-9);

  // Count zero crossings of mx to estimate the frequency.
  const auto mx = probe.component('x');
  std::size_t crossings = 0;
  for (std::size_t i = 1; i < mx.size(); ++i) {
    if ((mx[i - 1] < 0.0) != (mx[i] < 0.0)) ++crossings;
  }
  const double duration = probe.samples().back().t;
  const double f_measured =
      static_cast<double>(crossings) / (2.0 * duration);

  const double hi = mat.anisotropy_field() - nf.z * mat.Ms;
  const double f_kittel = kGammaMu0 *
                          std::sqrt((hi + nf.x * mat.Ms) *
                                    (hi + nf.y * mat.Ms)) /
                          kTwoPi;
  EXPECT_NEAR(f_measured, f_kittel, 0.03 * f_kittel);
}

TEST(Simulation, AbsorbingEndsReduceReflection) {
  const Mesh mesh(50, 1, 1, 2e-9, 50e-9, 1e-9);
  Material mat = make_fecob();
  Simulation sim(mesh, mat);
  sim.add_term<UniaxialAnisotropyField>(mat);
  EXPECT_NO_THROW(sim.add_absorbing_ends(20e-9, 0.5));
  EXPECT_THROW(sim.add_absorbing_ends(60e-9), Error);  // > half the guide
}

TEST(Simulation, ProbeRegistrationAndTime) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  Simulation sim(mesh, make_fecob());
  sim.add_term<UniaxialAnisotropyField>(make_fecob());
  sim.add_probe("a", 10e-9, 4e-9, 1e-12);
  EXPECT_EQ(sim.probes().size(), 1u);
  sim.run_until(10e-12);
  EXPECT_DOUBLE_EQ(sim.time(), 10e-12);
  EXPECT_GE(sim.probes()[0].samples().size(), 10u);
}

}  // namespace

// Appended: conservation and reciprocity properties.
namespace {

TEST(Llg, UndampedPrecessionConservesFieldProjection) {
  // With alpha = 0 the angle between m and a static field is conserved:
  // m.z after many periods equals m.z at the start, to integrator accuracy.
  const double H = 2e5;
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{0.6, 0.0, 0.8});
  const RhsFn rhs = [H](double, const VectorField& mm, VectorField& out) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    p.alpha = 0.0;
    const VectorField h(mm.mesh(), Vec3{0, 0, H});
    llg_rhs(p, mm, h, out);
  };
  IntegratorOptions opts;
  opts.stepper = Stepper::kRk4;
  opts.dt = 1e-13;
  Integrator integ(opts);
  integ.advance(rhs, m, 0.0, 1e-9);  // ~56 precession periods
  EXPECT_NEAR(m[0].z, 0.8, 1e-6);
}

TEST(Llg, DampedMotionDecreasesZeemanEnergy) {
  const double H = 2e5;
  const Mesh mesh(1, 1, 1, 1e-9, 1e-9, 1e-9);
  VectorField m(mesh, Vec3{0.6, 0.0, 0.8});
  const RhsFn rhs = [H](double, const VectorField& mm, VectorField& out) {
    LlgParams p;
    p.gamma_mu0 = kGammaMu0;
    p.alpha = 0.05;
    const VectorField h(mm.mesh(), Vec3{0, 0, H});
    llg_rhs(p, mm, h, out);
  };
  IntegratorOptions opts;
  opts.stepper = Stepper::kRk4;
  opts.dt = 1e-13;
  Integrator integ(opts);
  double prev_mz = m[0].z;
  for (int k = 0; k < 5; ++k) {
    integ.advance(rhs, m, k * 2e-10, (k + 1) * 2e-10);
    EXPECT_GE(m[0].z, prev_mz);  // monotone approach to the field axis
    prev_mz = m[0].z;
  }
  EXPECT_GT(m[0].z, 0.95);
}

TEST(NewellTensor, ActionReactionSymmetry) {
  // N(r_ij) for equal cells is symmetric under exchanging the two cells
  // (offset negation) on the diagonal, and the off-diagonal picks up the
  // sign of the odd coordinates.
  const double dx = 2e-9, dy = 3e-9, dz = 1e-9;
  const DemagTensor f = newell_tensor(3 * dx, -2 * dy, dz, dx, dy, dz, 0.0);
  const DemagTensor r = newell_tensor(-3 * dx, 2 * dy, -dz, dx, dy, dz, 0.0);
  EXPECT_NEAR(f.xx, r.xx, 1e-15);
  EXPECT_NEAR(f.yy, r.yy, 1e-15);
  EXPECT_NEAR(f.zz, r.zz, 1e-15);
  EXPECT_NEAR(f.xy, r.xy, 1e-15);  // even in joint negation
  EXPECT_NEAR(f.xz, r.xz, 1e-15);
  EXPECT_NEAR(f.yz, r.yz, 1e-15);
}

TEST(Probe, NextDeadlineTracksGrid) {
  const Mesh mesh(10, 1, 1, 2e-9, 50e-9, 1e-9);
  Probe p("grid", mesh, 10e-9, 4e-9, 1e-12);
  const VectorField m(mesh, {0, 0, 1});
  EXPECT_DOUBLE_EQ(p.next_deadline(), 0.0);
  p.maybe_sample(0.0, m);
  EXPECT_DOUBLE_EQ(p.next_deadline(), 1e-12);
  p.maybe_sample(5.3e-12, m);  // jump over several deadlines
  EXPECT_DOUBLE_EQ(p.next_deadline(), 6e-12);
  EXPECT_EQ(p.samples().size(), 2u);
}

}  // namespace
