#pragma once
// Krylov solvers: conjugate gradient on the normal equations (CGNE), in
// uniform precision and in the paper's mixed-precision form — a
// "red-black preconditioned double-half CG solver, where most of the work
// is done using 16-bit precision fixed-point storage (utilizing single-
// precision computation) with occasional reliable updates to full double
// precision".

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/compressed_gauge.hpp"
#include "lattice/field.hpp"

namespace femto {

/// Precision of the sloppy (inner) solver.
///
/// Half is an ACCURACY emulation, not a bandwidth feature: the inner
/// spinors stay in float storage and every update adds an int16
/// quantise/dequantise round trip (solver/half.hpp) to reproduce
/// 16-bit rounding.  On a CPU that round trip is extra traffic, so Half
/// streams more bytes per iteration than Single, never fewer (DESIGN.md
/// §16).
enum class Precision { Double, Single, Half };

const char* to_string(Precision p);

/// Precision tag of an arithmetic type (the half path stores 16-bit but
/// computes in float, so half samples are tagged by the caller).
template <typename T>
constexpr Precision precision_of() {
  return sizeof(T) == sizeof(double) ? Precision::Double
                                     : Precision::Single;
}

/// y = A x application in precision T.  A must be Hermitian positive
/// definite for CG (use the normal operator Mhat^dag Mhat).
template <typename T>
using ApplyFn = std::function<void(SpinorField<T>&, const SpinorField<T>&)>;

struct SolverParams {
  double tol = 1e-10;         ///< target ||r|| / ||b||
  int max_iter = 10000;
  Precision sloppy = Precision::Half;  ///< inner precision for mixed CG
  double delta = 0.1;         ///< reliable-update trigger: inner residual
                              ///< shrinks by this factor vs last update
  /// Gauge storage tier for the sloppy (inner) operator (DESIGN.md §16):
  /// full18 or recon12.  Only the inner iterations read it; reliable
  /// updates always run on full-18 double links.  Autotuned via
  /// tune::tuned_dslash_grain(..., FormatSet::kAll) in
  /// DwfSolver::autotune_multi().
  GaugeFormat gauge_format = GaugeFormat::kFull18;
};

/// One per-iteration point of a solve's convergence trajectory.
struct ResidualSample {
  int iteration = 0;
  double rel_residual = 0.0;  ///< |r|/|b| as seen by the iteration
  Precision precision = Precision::Double;  ///< precision of that residual
  bool reliable_update = false;  ///< sample taken at a reliable update
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;         ///< total matvec count (normal-op applies)
  int reliable_updates = 0;   ///< double-precision residual recomputations
  double final_rel_residual = 0.0;  ///< 0 for a zero right-hand side
  double seconds = 0.0;
  std::int64_t flop_count = 0;
  std::int64_t byte_count = 0;  ///< compulsory traffic (flops::bytes delta)

  /// Full residual history (one sample per iteration plus one per reliable
  /// update), recorded by cg and block_mixed_cg so convergence
  /// regressions are diagnosable from run artifacts.  The femtoscope
  /// report stores a downsampled copy (solver_obs::record).
  std::vector<ResidualSample> history;

  double gflops() const {
    return seconds > 0 ? static_cast<double>(flop_count) / seconds / 1e9
                       : 0.0;
  }
  double arithmetic_intensity() const {
    return byte_count > 0 ? static_cast<double>(flop_count) /
                                static_cast<double>(byte_count)
                          : 0.0;
  }
  std::string summary() const;
};

/// Plain CG in precision T: solves A x = b, x is both the initial guess
/// (typically zero) and the result.  The iteration body uses the fused
/// single-pass kernels (axpy_norm2, axpy_zpbx), so each iteration makes 3
/// full-field BLAS sweeps beyond the matvec instead of the naive 5, each
/// at blas::kGrain.  cg<double> is the pure-double correctness reference
/// (DwfSolver::solve_double).
template <typename T>
SolveResult cg(const ApplyFn<T>& a, SpinorField<T>& x,
               const SpinorField<T>& b, double tol, int max_iter);

/// Mixed-precision CG with reliable updates: the outer residual is held in
/// double and recomputed with @p a_double; inner CG iterations run in
/// single precision via @p a_single, optionally with every inner vector
/// round-tripped through 16-bit fixed-point storage (Precision::Half),
/// which is the paper's production configuration.  This is
/// block_mixed_cg (block_cg.hpp) on a batch of one; cg<double> is the
/// numerical reference.
SolveResult mixed_cg(const ApplyFn<double>& a_double,
                     const ApplyFn<float>& a_single,
                     SpinorField<double>& x, const SpinorField<double>& b,
                     const SolverParams& params);

extern template SolveResult cg<double>(const ApplyFn<double>&,
                                       SpinorField<double>&,
                                       const SpinorField<double>&, double,
                                       int);

}  // namespace femto
