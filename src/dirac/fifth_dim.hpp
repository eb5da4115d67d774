#pragma once
// Fifth-dimension block operators for domain-wall / Mobius fermions.
//
// In the DeGrand-Rossi basis g5 = diag(+,+,-,-), so any operator of the
// form  a*I + b*(P+ shift_down + P- shift_up)  decouples into two real
// L5 x L5 matrices: one acting on the P+ spin pair {0,1}, one on the P-
// pair {2,3}.  FifthDimOp stores those two matrices and applies them per
// 4D site as dense matvecs.  Crucially the matrices are SITE-INDEPENDENT,
// so the even-even block of the Mobius operator is inverted once (SMat)
// and applied everywhere — the red-black preconditioning trick.

#include <span>

#include "lattice/flops.hpp"
#include "dirac/smat.hpp"
#include "lattice/field.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {

/// The hopping matrix Lambda^+ acting on the P+ spin pair:
/// (L+)_{s,s-1} = 1 with chiral boundary (L+)_{0,L5-1} = -mf.
SMat lambda_plus(int l5, double mf);

/// The hopping matrix Lambda^- acting on the P- spin pair:
/// (L-)_{s,s+1} = 1 with chiral boundary (L-)_{L5-1,0} = -mf.
SMat lambda_minus(int l5, double mf);

/// An operator diagonal in 4D space: block `plus` on spins {0,1}, block
/// `minus` on spins {2,3}.
struct FifthDimOp {
  SMat plus;
  SMat minus;

  int l5() const { return plus.n(); }

  FifthDimOp transpose() const {
    return {plus.transpose(), minus.transpose()};
  }

  FifthDimOp operator*(const FifthDimOp& o) const {
    return {plus * o.plus, minus * o.minus};
  }

  FifthDimOp inverse() const { return {plus.inverse(), minus.inverse()}; }

  /// out(s) = sum_s' M(s,s') in(s') per site, per spin pair, per color:
  /// the batch of one of apply_multi.
  template <typename T>
  void apply(const SpinorView<T>& out, const SpinorView<const T>& in) const;

  /// The matvec on B right-hand sides in one launch (what each Schur
  /// stage issues, DESIGN.md §12).  Views must share `sites` and
  /// l5 == n.  The launch grain is site_grain(l5, B) 4D sites, the rule
  /// of the untuned dslash (DslashTuning::grain): a 4^4 parity at l5 = 4,
  /// B = 1 runs as four 32-site chunks.  Every (site, RHS) runs the same
  /// arithmetic whatever the chunking and the batch, so each RHS gets the
  /// bits of its own apply().
  template <typename T>
  void apply_multi(std::span<const SpinorView<T>> out,
                   std::span<const SpinorView<const T>> in) const;
};

#define FEMTO_EXTERN_FIFTH_DIM(T)                                          \
  extern template void FifthDimOp::apply<T>(const SpinorView<T>&,          \
                                            const SpinorView<const T>&)    \
      const;                                                               \
  extern template void FifthDimOp::apply_multi<T>(                         \
      std::span<const SpinorView<T>>,                                      \
      std::span<const SpinorView<const T>>) const;
FEMTO_EXTERN_FIFTH_DIM(double)
FEMTO_EXTERN_FIFTH_DIM(float)
#undef FEMTO_EXTERN_FIFTH_DIM

}  // namespace femto
