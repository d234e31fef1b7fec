// Column step loads and stores that both vector kernels' eval_bits use. Only
// the vector kernel TUs include this header, and everything in it is
// TU-local (an anonymous namespace): each TU compiles its own copy under its
// own ISA flags, so no AVX-512-encoded copy can stand in for the AVX2 one at
// link time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sw::wavesim::kernels::detail {
namespace {

/// Word step t of a column: the Step-sized integer at byte
/// sizeof(Step) * t, whose bit b is word 8 * sizeof(Step) * t + b (the
/// vector kernels run on little-endian hosts only).
template <typename Step>
Step load_step(const std::uint64_t* column, std::size_t t) {
  Step m;
  std::memcpy(&m,
              reinterpret_cast<const unsigned char*>(column) + sizeof(m) * t,
              sizeof(m));
  return m;
}

template <typename Step>
void store_step(std::uint64_t* column, std::size_t t, Step m) {
  std::memcpy(reinterpret_cast<unsigned char*>(column) + sizeof(m) * t, &m,
              sizeof(m));
}

}  // namespace
}  // namespace sw::wavesim::kernels::detail
