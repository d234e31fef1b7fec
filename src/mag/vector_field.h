// A Vec3-valued field over a Mesh, plus the arithmetic the integrators need.
#pragma once

#include <cstddef>
#include <vector>

#include "mag/mesh.h"
#include "mag/vec3.h"

namespace sw::mag {

/// Dense field of Vec3 values, one per mesh cell, stored as three component
/// planes (structure of arrays): all x values, then all y, then all z, each
/// plane in cell order (x fastest) and starting on a 64-byte boundary, so
/// the solver's per-component loops vectorise.
class VectorField {
 public:
  VectorField() = default;

  /// Zero-initialised field over `mesh`.
  explicit VectorField(const Mesh& mesh);

  /// Field over `mesh` with every cell set to `fill`.
  VectorField(const Mesh& mesh, const Vec3& fill);

  /// Copies align the planes within their own buffer. There are no move
  /// operations: a move would leave the source's planes dangling.
  VectorField(const VectorField& other);
  VectorField& operator=(const VectorField& other);

  const Mesh& mesh() const { return mesh_; }
  std::size_t size() const { return mesh_.cell_count(); }

  /// Value of cell `idx` (a copy; write cells with set()).
  Vec3 operator[](std::size_t idx) const {
    return {x()[idx], y()[idx], z()[idx]};
  }

  void set(std::size_t idx, const Vec3& v) {
    x()[idx] = v.x;
    y()[idx] = v.y;
    z()[idx] = v.z;
  }

  /// Component plane `axis` (0 = x, 1 = y, 2 = z): size() values in cell
  /// order, 64-byte aligned.
  double* comp(std::size_t axis) { return planes_ + axis * stride_; }
  const double* comp(std::size_t axis) const {
    return planes_ + axis * stride_;
  }
  double* x() { return comp(0); }
  double* y() { return comp(1); }
  double* z() { return comp(2); }
  const double* x() const { return comp(0); }
  const double* y() const { return comp(1); }
  const double* z() const { return comp(2); }

  /// Set every cell to `v`.
  void fill(const Vec3& v);

  /// Set every cell to zero.
  void zero() { fill({}); }

  /// this += s * other (axpy, the integrator workhorse).
  void add_scaled(const VectorField& other, double s) {
    add_scaled(other, Vec3{s, s, s});
  }

  /// this += other scaled per component: x by s.x, y by s.y, z by s.z.
  void add_scaled(const VectorField& other, const Vec3& s);

  /// this = a + s * b; `a` and `b` must be the same size. This field takes
  /// a's mesh.
  void assign_sum(const VectorField& a, const VectorField& b, double s);

  /// Renormalise every vector to unit length (LLG norm conservation guard);
  /// zero vectors are left untouched.
  void normalize();

  /// Mean value over all cells.
  Vec3 average() const;

  /// Mean value over cells [begin, end) of flat index.
  Vec3 average_range(std::size_t begin, std::size_t end) const;

  /// Max |v| over cells.
  double max_norm() const;

 private:
  void reshape(const Mesh& mesh);

  Mesh mesh_;
  std::size_t stride_ = 0;  ///< plane length: size() rounded up to 8 doubles
  // The planes plus slack to reach a 64-byte boundary. Aligning inside a
  // plain allocation, rather than with an aligned operator new, keeps
  // glibc's memalign from fragmenting the heap as runs create and drop
  // fields (it raised the byte-gate benchmark's peak RSS by about 11%).
  std::vector<double> buffer_;
  double* planes_ = nullptr;  ///< first 64-byte boundary in buffer_
};

}  // namespace sw::mag
