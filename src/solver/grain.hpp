#pragma once
// Grains of the solvers' BLAS kernels and of the 16-bit kernels' norm
// trees, both derived from the one tunable SolverParams::blas_grain: cg<T>
// resolves the BLAS grain, the mixed-precision CG (block_cg.cpp) both.

#include <algorithm>
#include <cstddef>

#include "lattice/blas.hpp"
#include "solver/half.hpp"

namespace femto::detail {

/// SolverParams::blas_grain, with 0 meaning blas::kGrain.
inline std::size_t resolve_grain(std::size_t blas_grain) {
  return blas_grain == 0 ? blas::kGrain : blas_grain;
}

/// The half kernels' norms sum over 24-real blocks, not reals; derive the
/// blocks per partial of that sum from the BLAS grain so one tunable
/// covers both.  It sets the reduction tree only: the round trips
/// themselves chunk at HalfSpinorField::kBlocksPerChunk.
inline std::size_t half_grain(std::size_t blas_grain) {
  if (blas_grain == 0) return HalfSpinorField::kHalfGrain;
  return std::max<std::size_t>(1, blas_grain / kSpinorReals);
}

}  // namespace femto::detail
