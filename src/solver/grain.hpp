#pragma once
// Chunk grains of the solvers' BLAS and 16-bit kernels, both derived from
// the one tunable SolverParams::blas_grain: cg<T> resolves the BLAS grain,
// the mixed-precision CG (block_cg.cpp) both.

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
