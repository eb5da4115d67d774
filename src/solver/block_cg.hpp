#pragma once
// Mixed-precision CG over a batch of right-hand sides (DESIGN.md §12): the
// one mixed-precision CG body.  mixed_cg (cg.hpp) is this solver on a
// batch of one, and traces and records under the same name
// (solver:mixed_cg).
//
// This is NOT a "true" block-CG method (no shared Krylov space, no
// cross-RHS orthogonalisation): each RHS runs its OWN conjugate-gradient
// recurrence — its own alpha/beta, its own stopping test, its own reliable
// updates — and the batching is purely an execution-layer fusion: the B
// matvecs share one dslash_multi pass (links loaded once per block) and
// the B vector updates share one BLAS launch (blas::*_multi).  The payoff
// is the per-RHS convergence contract:
//
//   A batch of N gives every RHS bitwise the SAME iterates, iteration
//   count, and residual history as its batch of one — independent of
//   which other RHSs share the batch.  The pure-double cg<double>
//   (cg.hpp) is the numerical reference.
//
// That contract is what lets the SolveService batch greedily: adding or
// removing a request from a batch can never change another request's
// answer, so results stay deterministic under any queue timing.  As RHSs
// converge they leave the active block (per-RHS stopping, shrinking
// batch), so a straggler never pays for its finished neighbours beyond
// the (smaller) batch it still shares.
//
// Reported per-RHS flop/byte/seconds are the RHS's share of the block
// totals (total / B): the counters are process-global, and a block's work
// is genuinely joint — attributing the full total to every RHS would
// count it B times.  The per-RHS seconds therefore sum to the block's
// wall time.

#include <functional>
#include <span>
#include <vector>

#include "lattice/field.hpp"
#include "solver/cg.hpp"

namespace femto {

/// Batched y_r = A x_r application in precision T, r = 0..B-1.  Must be
/// per-RHS bitwise identical to the corresponding ApplyFn for the
/// convergence contract to hold (MobiusOperator::apply_normal_multi is).
template <typename T>
using MultiApplyFn = std::function<void(
    std::span<SpinorField<T>* const>, std::span<const SpinorField<T>* const>)>;

/// Mixed-precision CG with reliable updates over a block: solves
/// A x_r = b_r for every r with per-RHS stopping; x_r is the initial guess
/// and the result.  Returns one SolveResult per RHS, bitwise matching the
/// RHS's batch of one.  Each RHS triggers its own reliable updates (a
/// batch-of-one double matvec); the sloppy inner iterations batch across
/// every RHS currently mid-inner-solve.
std::vector<SolveResult> block_mixed_cg(
    const MultiApplyFn<double>& a_double, const MultiApplyFn<float>& a_single,
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b, const SolverParams& params);

}  // namespace femto
