#pragma once
// The Mobius domain-wall Dirac operator — the paper's discretization — and
// its red-black (even-odd) Schur preconditioning, "the state-of-the-art
// technique ... conjugate gradient on the normal equations".
//
// Operator convention (reduces to Shamir at b5 = 1, c5 = 0):
//
//   D(x,s; y,s') = (b5 D_W + 1)(x,y) delta_{ss'}
//                + (c5 D_W - 1)(x,y) Lambda_{ss'}
//
//   Lambda = P+ delta_{s',s-1} + P- delta_{s',s+1},  chiral boundary
//   terms multiplied by -mf;  D_W = (4 + m5) - 1/2 Dslash  (m5 < 0 is the
//   domain-wall height).
//
// Writing D_W = A - Dslash/2 with A = 4 + m5 and grouping by 4D parity:
//
//   M_ee = M_oo = C := (b5 A + 1) I + (c5 A - 1) Lambda    (site-diagonal!)
//   M_eo / M_oe  = -1/2 Dslash (x) B,   B := b5 I + c5 Lambda
//
// Because C and B are site-independent L5 x L5 blocks per chirality
// (FifthDimOp), C is inverted once, giving the Schur complement
//
//   Mhat = C - 1/4 Dslash_oe (B C^-1) Dslash_eo B
//
// (operator order matters: the gamma_mu inside Dslash anticommute with
// gamma_5, so Dslash does NOT commute with the chirality-blocked fifth-dim
// operators).  Everything is applied with dslash kernels and dense
// fifth-dim matvecs.  The solver runs CGNE on Mhat^dag Mhat; the even half
// is reconstructed as x_e = C^-1 (b_e + 1/2 Dslash_eo B x_o).

#include <memory>
#include <span>
#include <vector>

#include "dirac/fifth_dim.hpp"
#include "dirac/wilson.hpp"
#include "lattice/field.hpp"

namespace femto {

struct MobiusParams {
  int l5 = 8;        ///< fifth-dimension extent
  double m5 = -1.8;  ///< domain-wall height (negative by convention)
  double b5 = 1.5;   ///< Mobius scale (b5=1, c5=0 is Shamir)
  double c5 = 0.5;
  double mf = 0.01;  ///< input quark mass

  /// Shamir kernel with the same l5/m5/mf.
  static MobiusParams shamir(int l5, double m5, double mf) {
    return {l5, m5, 1.0, 0.0, mf};
  }

  /// Memberwise equality: the SolveService batches requests whose operator
  /// params match exactly (same preconditioned system).
  bool operator==(const MobiusParams&) const = default;
};

template <typename T>
class MobiusOperator {
 public:
  MobiusOperator(std::shared_ptr<const GaugeField<T>> u, MobiusParams params,
                 DslashTuning tune = {});

  const MobiusParams& params() const { return params_; }
  const GaugeField<T>& gauge() const { return *u_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return u_->geom_ptr(); }
  DslashTuning& tuning() { return tune_; }

  /// Full (unpreconditioned) operator on Subset::Full fields.
  void apply_full(SpinorField<T>& out, const SpinorField<T>& in,
                  bool dagger = false) const;

  /// Schur-complement operator Mhat on Subset::Odd fields: the batch of
  /// one of apply_schur_multi.
  void apply_schur(SpinorField<T>& out, const SpinorField<T>& in,
                   bool dagger = false) const;

  /// Normal operator Mhat^dag Mhat on Subset::Odd fields (what CGNE
  /// inverts): the batch of one of apply_normal_multi.
  void apply_normal(SpinorField<T>& out, const SpinorField<T>& in) const;

  /// Schur operator over B right-hand sides: every stage is one launch
  /// for the whole batch (the dslash stages also load each site's links
  /// once per call), so a call makes as many pool calls at any B as at
  /// B = 1.  Per-RHS output is bitwise independent of the batch:
  /// apply_schur on the same field gives the same bits.
  void apply_schur_multi(std::span<SpinorField<T>* const> out,
                         std::span<const SpinorField<T>* const> in,
                         bool dagger = false) const;

  /// Normal operator over B right-hand sides (what block_mixed_cg
  /// applies).
  void apply_normal_multi(std::span<SpinorField<T>* const> out,
                          std::span<const SpinorField<T>* const> in) const;

  /// Build the preconditioned right-hand side:
  ///   bhat_o = b_o - M_oe M_ee^-1 b_e = b_o + 1/2 Dslash_oe (B C^-1) b_e.
  void prepare_source(SpinorField<T>& bhat_odd,
                      const SpinorField<T>& b_full) const;

  /// Reconstruct the even half given the odd solution:
  ///   x_e = C^-1 (b_e + 1/2 Dslash_eo B x_o);  copies x_o to the odd half.
  void reconstruct(SpinorField<T>& x_full, const SpinorField<T>& x_odd,
                   const SpinorField<T>& b_full) const;

  /// Conventional flop count of one apply_schur (used for GFLOPS
  /// reporting, paper S VI: 10,000-12,000 flops per 5D site).
  std::int64_t flops_per_schur() const;
  std::int64_t flops_per_normal() const { return 2 * flops_per_schur(); }

 private:
  // Format dispatch (DESIGN.md §16): every dslash/wilson_op call site
  // below routes through these, which read tune_.format and hand the
  // kernel the matching container.  The recon12 copy is built lazily on
  // first use and cached for the operator's lifetime (the gauge field is
  // immutable here), under the same documented non-thread-safe contract
  // as the workspaces.  recon12() is null when the tier is full18.
  const CompressedGaugeField<T>* recon12() const;
  void dslash_fmt(std::span<const SpinorView<T>> out,
                  std::span<const SpinorView<const T>> in, int out_parity,
                  bool dagger) const;
  void wilson_op_fmt(SpinorField<T>& out, const SpinorField<T>& in,
                     bool dagger) const;

  std::shared_ptr<const GaugeField<T>> u_;
  MobiusParams params_;
  DslashTuning tune_;
  mutable std::unique_ptr<CompressedGaugeField<T>> u_r12_;
  FifthDimOp lambda_, b_, c_, cinv_, bcinv_;
  FifthDimOp bt_, ct_, bcinvt_;  // transposes for the dagger application
  // Workspaces (documented non-thread-safe: one solve per operator).  The
  // per-RHS half-field ones grow on demand to the largest batch seen;
  // entry 0 also serves prepare_source and reconstruct.
  void ensure_workspace(std::size_t n) const;
  mutable SpinorField<T> tmp_f_;
  mutable std::vector<SpinorField<T>> tmp_e_, tmp_e2_, tmp_o_, tmp_mid_;
};

extern template class MobiusOperator<double>;
extern template class MobiusOperator<float>;

}  // namespace femto
