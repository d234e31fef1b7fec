#include "mag/vector_field.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "mag/kernels.h"
#include "util/error.h"

namespace sw::mag {

namespace {

SW_MAG_CLONES void axpy(std::size_t n, double* y, const double* x, double s) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + x[i] * s;
}

SW_MAG_CLONES void sum_scaled(std::size_t n, double* out, const double* a,
                              const double* b, double s) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i] * s;
}

SW_MAG_CLONES void normalize_planes(std::size_t n, double* __restrict x,
                                    double* __restrict y,
                                    double* __restrict z) {
  for (std::size_t i = 0; i < n; ++i) {
    kernels::normalize_cell(x[i], y[i], z[i]);
  }
}

}  // namespace

VectorField::VectorField(const Mesh& mesh) { reshape(mesh); }

VectorField::VectorField(const Mesh& mesh, const Vec3& fill)
    : VectorField(mesh) {
  this->fill(fill);
}

VectorField::VectorField(const VectorField& other)
    : VectorField(other.mesh_) {
  std::copy_n(other.planes_, 3 * stride_, planes_);
}

VectorField& VectorField::operator=(const VectorField& other) {
  if (this != &other) {
    if (mesh_ != other.mesh_) reshape(other.mesh_);
    std::copy_n(other.planes_, 3 * stride_, planes_);
  }
  return *this;
}

void VectorField::reshape(const Mesh& mesh) {
  constexpr std::size_t kLine = 64 / sizeof(double);
  mesh_ = mesh;
  stride_ = (mesh.cell_count() + kLine - 1) / kLine * kLine;
  buffer_.assign(3 * stride_ + kLine - 1, 0.0);
  const auto addr = reinterpret_cast<std::uintptr_t>(buffer_.data());
  planes_ = buffer_.data() + (-addr % 64) / sizeof(double);
}

void VectorField::fill(const Vec3& v) {
  std::fill_n(x(), size(), v.x);
  std::fill_n(y(), size(), v.y);
  std::fill_n(z(), size(), v.z);
}

void VectorField::add_scaled(const VectorField& other, const Vec3& s) {
  SW_REQUIRE(other.size() == size(), "field size mismatch");
  const double scale[3] = {s.x, s.y, s.z};
  for (std::size_t a = 0; a < 3; ++a) {
    axpy(size(), comp(a), other.comp(a), scale[a]);
  }
}

void VectorField::assign_sum(const VectorField& a, const VectorField& b,
                             double s) {
  SW_REQUIRE(a.size() == b.size(), "field size mismatch");
  // Reallocate only for a new cell count (this field then aliases neither
  // input); the planes' layout depends on nothing else.
  if (size() != a.size()) reshape(a.mesh());
  mesh_ = a.mesh();
  for (std::size_t c = 0; c < 3; ++c) {
    sum_scaled(size(), comp(c), a.comp(c), b.comp(c), s);
  }
}

void VectorField::normalize() { normalize_planes(size(), x(), y(), z()); }

Vec3 VectorField::average() const { return average_range(0, size()); }

Vec3 VectorField::average_range(std::size_t begin, std::size_t end) const {
  SW_REQUIRE(begin <= end && end <= size(), "bad range");
  if (begin == end) return {};
  Vec3 acc;
  for (std::size_t i = begin; i < end; ++i) acc += (*this)[i];
  return acc * (1.0 / static_cast<double>(end - begin));
}

double VectorField::max_norm() const {
  double m = 0.0;
  for (std::size_t i = 0; i < size(); ++i) m = std::max(m, (*this)[i].norm2());
  return std::sqrt(m);
}

}  // namespace sw::mag
