#pragma once
// Quark propagators: 12 domain-wall solves (one per source spin-color)
// collapsed to the physical 4D propagator via the domain-wall boundary
// projection q(x) = P_- psi(x, 0) + P_+ psi(x, L5-1).
//
// A Propagator is the S(x)^{alpha beta}_{ab} object the tensor
// contractions consume: for each sink site, a 12x12 complex matrix
// (sink spin-color x source spin-color).

#include <memory>
#include <vector>

#include "core/spin_matrix.hpp"
#include "lattice/field.hpp"
#include "simd/vec.hpp"
#include "solver/dwf_solve.hpp"

namespace femto::core {

/// 4D point-to-all propagator from one source site.
class Propagator {
 public:
  Propagator(std::shared_ptr<const Geometry> geom);

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }

  /// The 4D solution field for source (spin, color).
  SpinorField<double>& column(int src_spin, int src_color) {
    return cols_[static_cast<std::size_t>(src_spin * kNc + src_color)];
  }
  const SpinorField<double>& column(int src_spin, int src_color) const {
    return cols_[static_cast<std::size_t>(src_spin * kNc + src_color)];
  }

  /// A 4x4 spin matrix over W sink sites, one site per lane:
  /// m[snk_spin][src_spin].
  template <int W>
  using SpinLanes =
      std::array<std::array<Cplx<simd::Lanes<double, W>>, kNs>, kNs>;
  /// S(x) at W sink sites as nine 4x4 spin matrices, one per colour pair:
  /// blocks[snk_col][src_col][snk_spin][src_spin].
  template <int W>
  using ColorBlocks = std::array<std::array<SpinLanes<W>, kNc>, kNc>;
  /// Fills lane j of @p blocks with site @p site0 + j, for j < W, from the
  /// 12 columns: column (s', c') holds source spin s' and colour c' of
  /// every block.  Each entry's lanes are gathered in registers and stored
  /// whole.
  template <int W = simd::kWidth<double>>
  void load_color_blocks(std::int64_t site0, ColorBlocks<W>& blocks) const {
    for (int ss = 0; ss < kNs; ++ss)
      for (int sc = 0; sc < kNc; ++sc) {
        const SpinorField<double>& col = column(ss, sc);
        FEMTO_ASSERT(site0 + W <= col.sites());
        // [spin][colour][re/im] at site0, then one spinor per lane.
        const double* q = col.data() + col.offset(0, site0);
        for (std::size_t s = 0; s < kNs; ++s)
          for (std::size_t c = 0; c < kNc; ++c, q += 2) {
            simd::Lanes<double, W> re, im;
            for (int j = 0; j < W; ++j) {
              simd::set_lane(re, j, q[j * kSpinorReals]);
              simd::set_lane(im, j, q[j * kSpinorReals + 1]);
            }
            blocks[c][static_cast<std::size_t>(sc)][s]
                  [static_cast<std::size_t>(ss)] = {re, im};
          }
      }
  }

 private:
  std::shared_ptr<const Geometry> geom_;
  std::vector<SpinorField<double>> cols_;
};

/// Statistics of the 12 solves that built a propagator.
struct PropagatorSolveStats {
  int total_iterations = 0;
  double total_seconds = 0.0;
  double worst_residual = 0.0;
  bool all_converged = true;
};

/// Make a point source at @p origin with unit strength for (spin, color),
/// embedded at the domain-wall boundaries with the chiral projection that
/// makes the 4D propagator come out right:
///   psi(s=0)     += P_+ source,   psi(s=L5-1) += P_- source.
SpinorField<double> make_dwf_point_source(std::shared_ptr<const Geometry> g,
                                          int l5, const Coord& origin,
                                          int spin, int color);

/// Project a 5D solution to the physical 4D quark field:
///   q(x) = P_- psi(x, 0) + P_+ psi(x, L5-1).
void project_4d(const SpinorField<double>& psi5, SpinorField<double>& q4);

/// Solve the 12 columns of a point-source propagator.
Propagator compute_point_propagator(DwfSolver& solver, const Coord& origin,
                                    PropagatorSolveStats* stats = nullptr);

/// Solve the Feynman-Hellmann partner propagator: for each column q of
/// @p base, solve D psi' = Gamma_src(q) where the source is the axial
/// current Gamma = gamma_z gamma_5 applied to the 4D-projected base
/// propagator at EVERY site (this is what yields every current-insertion
/// time for the price of one solve — the paper's exponential improvement).
Propagator compute_fh_propagator(DwfSolver& solver, const Propagator& base,
                                 PropagatorSolveStats* stats = nullptr);

/// The TRADITIONAL sequential method: the axial current inserted at ONE
/// fixed timeslice tau.  Solving this for every tau costs T solves where
/// the FH method costs one; by linearity
///     sum_tau fixed_insertion(tau) == fh_propagator
/// exactly — the identity the paper's algorithm exploits (verified by the
/// integration tests).
Propagator compute_fixed_insertion_propagator(
    DwfSolver& solver, const Propagator& base, int tau,
    PropagatorSolveStats* stats = nullptr);

}  // namespace femto::core
