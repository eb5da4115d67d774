#pragma once
// End-to-end Mobius domain-wall solve: the "propagator" computation that
// consumes ~97% of the paper's application time.
//
// Pipeline (per right-hand side):
//   1. bhat = red-black preconditioned source (odd checkerboard)
//   2. CGNE: solve Mhat^dag Mhat y = Mhat^dag bhat with mixed-precision CG
//   3. reconstruct the even checkerboard, giving the full 5D solution
//
// The solver pairs a double-precision operator with a single-precision
// "sloppy" operator built from the converted gauge field (QUDA builds the
// same pair on the GPU).

#include <memory>
#include <span>
#include <vector>

#include "dirac/mobius.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"

namespace femto {

/// Owns the operator pair and scratch needed to solve many right-hand
/// sides against one gauge configuration.
class DwfSolver {
 public:
  DwfSolver(std::shared_ptr<const GaugeField<double>> u, MobiusParams params,
            SolverParams solver_params = {});

  /// Autotune both operators' dslash for batches of @p nrhs right-hand
  /// sides on this volume and use the winners for every subsequent solve,
  /// the way Chroma+QUDA tune on first encounter (cached process-wide).
  /// The double operator races variant x grain on full18 links; the float
  /// one also races the link tier, and its pick becomes
  /// solver_params().gauge_format.  Only that tier moves a solution's
  /// bits: every variant and grain gives the same ones.
  void autotune_multi(std::size_t nrhs);

  const MobiusOperator<double>& op() const { return op_d_; }
  const MobiusParams& params() const { return mobius_; }
  SolverParams& solver_params() { return sparams_; }

  /// Solve D x = b on full 5D fields: solve_multi on a batch of one.
  /// Returns solver statistics.
  SolveResult solve(SpinorField<double>& x, const SpinorField<double>& b);

  /// Solve in pure double precision (reference / correctness baseline).
  SolveResult solve_double(SpinorField<double>& x,
                           const SpinorField<double>& b);

  /// Solve D x_r = b_r for a block of right-hand sides against the shared
  /// gauge field: source prep and CGNE run batched (dslash_multi streams
  /// the links once per block), each RHS converging independently with
  /// per-RHS results bitwise matching its batch of one (see block_cg.hpp).
  std::vector<SolveResult> solve_multi(
      std::span<SpinorField<double>* const> x,
      std::span<const SpinorField<double>* const> b);

 private:
  MobiusParams mobius_;
  SolverParams sparams_;
  std::shared_ptr<const GaugeField<double>> u_d_;
  std::shared_ptr<const GaugeField<float>> u_f_;
  MobiusOperator<double> op_d_;
  MobiusOperator<float> op_f_;
};

}  // namespace femto
