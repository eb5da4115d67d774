#pragma once
// Chunk grains of the solvers' BLAS and 16-bit kernels.  cg.cpp and
// block_cg.cpp must derive them identically: the block solver's per-RHS
// bitwise contract (block_cg.hpp) holds only at equal grain.

#include <algorithm>
#include <cstddef>

#include "lattice/blas.hpp"
#include "solver/half.hpp"

namespace femto::detail {

/// SolverParams::blas_grain, with 0 meaning blas::kGrain.
inline std::size_t resolve_grain(std::size_t blas_grain) {
  return blas_grain == 0 ? blas::kGrain : blas_grain;
}

/// The half kernels chunk over 24-real blocks, not reals; derive their
/// grain from the BLAS grain so one tunable covers both.
inline std::size_t half_grain(std::size_t blas_grain) {
  if (blas_grain == 0) return HalfSpinorField::kHalfGrain;
  return std::max<std::size_t>(1, blas_grain / kSpinorReals);
}

}  // namespace femto::detail
