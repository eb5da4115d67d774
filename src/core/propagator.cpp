#include "core/propagator.hpp"

#include <cmath>

namespace femto::core {

Propagator::Propagator(std::shared_ptr<const Geometry> geom)
    : geom_(std::move(geom)) {
  cols_.reserve(kNs * kNc);
  for (int i = 0; i < kNs * kNc; ++i)
    cols_.emplace_back(geom_, 1, Subset::Full);
}

namespace {

/// Embed a 4D source into the 5D chiral boundaries:
/// b(s=0) = P_+ eta, b(s=L5-1) = P_- eta.
void embed_source(const SpinorField<double>& eta4,
                  SpinorField<double>& b5) {
  b5.zero();
  const int l5 = b5.l5();
  for (std::int64_t i = 0; i < eta4.sites(); ++i) {
    const auto src = eta4.load(0, i);
    b5.store(0, i, chiral_plus(src));
    b5.store(l5 - 1, i, chiral_minus(src));
  }
}

/// Unit strength for (spin, color) at @p origin of the zeroed 4D field
/// @p eta.
void set_point(SpinorField<double>& eta, const Coord& origin, int spin,
               int color) {
  Spinor<double> unit;
  unit[spin][color] = {1.0, 0.0};
  eta.store(0, eta.geom().index(origin), unit);
}

}  // namespace

SpinorField<double> make_dwf_point_source(std::shared_ptr<const Geometry> g,
                                          int l5, const Coord& origin,
                                          int spin, int color) {
  SpinorField<double> eta(g, 1, Subset::Full);
  eta.zero();
  set_point(eta, origin, spin, color);

  SpinorField<double> b5(g, l5, Subset::Full);
  embed_source(eta, b5);
  return b5;
}

void project_4d(const SpinorField<double>& psi5, SpinorField<double>& q4) {
  const int l5 = psi5.l5();
  for (std::int64_t i = 0; i < psi5.sites(); ++i) {
    auto q = chiral_minus(psi5.load(0, i));
    q += chiral_plus(psi5.load(l5 - 1, i));
    q4.store(0, i, q);
  }
}

namespace {

/// The column solves of every propagator: for each spin-colour column,
/// @p source(eta, spin, color) writes the column's 4D source into the
/// zeroed eta, which is embedded at the chiral boundaries, solved from a
/// zero guess and projected back to 4D.  One set of 4D and 5D fields
/// serves all 12 columns.
template <typename Source>
Propagator solve_columns(DwfSolver& solver, const Source& source,
                         PropagatorSolveStats* stats) {
  const auto g = solver.op().geom_ptr();
  const int l5 = solver.params().l5;
  Propagator out(g);
  PropagatorSolveStats st;
  SpinorField<double> eta(g, 1, Subset::Full);
  SpinorField<double> b5(g, l5, Subset::Full);
  SpinorField<double> x5(g, l5, Subset::Full);
  for (int spin = 0; spin < kNs; ++spin)
    for (int color = 0; color < kNc; ++color) {
      eta.zero();
      source(eta, spin, color);
      embed_source(eta, b5);
      x5.zero();
      const auto res = solver.solve(x5, b5);
      st.total_iterations += res.iterations;
      st.total_seconds += res.seconds;
      st.worst_residual = std::max(st.worst_residual,
                                   res.final_rel_residual);
      st.all_converged = st.all_converged && res.converged;
      project_4d(x5, out.column(spin, color));
    }
  if (stats) *stats = st;
  return out;
}

}  // namespace

Propagator compute_point_propagator(DwfSolver& solver, const Coord& origin,
                                    PropagatorSolveStats* stats) {
  return solve_columns(
      solver,
      [&](SpinorField<double>& eta, int spin, int color) {
        set_point(eta, origin, spin, color);
      },
      stats);
}

namespace {

/// Shared body of the FH and fixed-insertion sequential solves: source =
/// Gamma_axial * q, restricted to timeslice @p tau (tau < 0: every
/// timeslice, the FH method).
Propagator solve_sequential(DwfSolver& solver, const Propagator& base,
                            int tau, PropagatorSolveStats* stats) {
  const auto g = solver.op().geom_ptr();
  const SpinMat gamma_a = axial_gamma();
  return solve_columns(
      solver,
      [&](SpinorField<double>& eta, int spin, int color) {
        const auto& q = base.column(spin, color);
        for (std::int64_t i = 0; i < q.sites(); ++i) {
          if (tau >= 0 && g->coord(i)[3] != tau) continue;
          const auto v = q.load(0, i);
          Spinor<double> gv;
          for (int r = 0; r < kNs; ++r)
            for (int c = 0; c < kNc; ++c) {
              cdouble acc{};
              for (int k = 0; k < kNs; ++k) acc += gamma_a(r, k) * v[k][c];
              gv[r][c] = acc;
            }
          eta.store(0, i, gv);
        }
      },
      stats);
}

}  // namespace

Propagator compute_fh_propagator(DwfSolver& solver, const Propagator& base,
                                 PropagatorSolveStats* stats) {
  return solve_sequential(solver, base, /*tau=*/-1, stats);
}

Propagator compute_fixed_insertion_propagator(DwfSolver& solver,
                                              const Propagator& base,
                                              int tau,
                                              PropagatorSolveStats* stats) {
  return solve_sequential(solver, base, tau, stats);
}

}  // namespace femto::core
