// Private to src/mag: the per-ISA clone attribute and the per-cell
// normalisation that several solver loops share.
//
// Every hot solver loop is a per-component pass over structure-of-arrays
// planes, written so each cell (one SIMD lane) performs exactly the IEEE
// operation sequence of the scalar per-cell formula: no reassociation, no
// reductions across cells, branches only on loop-invariant flags. Each lane
// of a vector instruction rounds like the scalar instruction, so every clone
// produces the same bits as scalar code. src/mag is compiled with
// -ffp-contract=off to keep it that way: GCC's C++ default would fuse a*b+c
// into an FMA wherever the clone's ISA has one. It is also compiled with
// -fno-math-errno and -fno-trapping-math, which change no value: std::sqrt
// then needs no errno branch, and a select such as `n > 0 ? n : 1` may be
// computed as compare-and-blend, so those loops vectorise in every clone.
#pragma once

#include <cmath>

#if defined(__x86_64__) && defined(__linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
/// Compile the function once per ISA; the loader picks the widest clone the
/// CPU supports (ifunc).
#define SW_MAG_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef SW_MAG_CLONES
#define SW_MAG_CLONES
#endif

namespace sw::mag::kernels {

/// Scales one cell's (x, y, z) to unit length, as Vec3 code does with
/// `v *= 1.0 / v.norm()`, when `enabled`. Zero vectors, and every vector
/// when not enabled, scale by 1.0, which leaves them unchanged. Selecting
/// the divisor rather than branching keeps the loop body branch-free, so
/// loops over cells vectorise without masking.
inline void normalize_cell(double& x, double& y, double& z,
                           bool enabled = true) {
  const double norm = std::sqrt(x * x + y * y + z * z);
  const double inv = 1.0 / (enabled && norm > 0.0 ? norm : 1.0);
  x = x * inv;
  y = y * inv;
  z = z * inv;
}

}  // namespace sw::mag::kernels
