#include "solver/dwf_solve.hpp"

#include <cmath>

#include "autotune/dslash_tunable.hpp"
#include "core/check.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace femto {

void DwfSolver::autotune_multi(std::size_t nrhs) {
  FEMTO_TRACE_SCOPE("autotune", "dwf_solver_autotune_multi");
  const DslashTuning td = tune::tuned_dslash_grain<double>(
      u_d_, mobius_.l5, 0, tune::FormatSet::kFullOnly, nrhs);
  const DslashTuning tf = tune::tuned_dslash_grain<float>(
      u_f_, mobius_.l5, 0, tune::FormatSet::kAll, nrhs);
  op_d_.tuning() = td;
  op_f_.tuning() = tf;
  sparams_.gauge_format = tf.format;
  FEMTO_LOG_DEBUG("autotune",
                  "dwf_solver at B=" << nrhs << ": d=" << to_string(td.variant)
                                     << "/" << td.grain << " f="
                                     << to_string(tf.variant) << "/"
                                     << tf.grain << "/"
                                     << gauge_format_name(tf.format));
}

DwfSolver::DwfSolver(std::shared_ptr<const GaugeField<double>> u,
                     MobiusParams params, SolverParams solver_params)
    : mobius_(params),
      sparams_(solver_params),
      u_d_(std::move(u)),
      u_f_(std::make_shared<GaugeField<float>>(u_d_->convert<float>())),
      op_d_(u_d_, mobius_),
      op_f_(u_f_, mobius_) {
  // Honour a caller-selected storage tier for the sloppy operator even
  // when autotune_multi() is never called (the double operator stays
  // full18).
  op_f_.tuning().format = sparams_.gauge_format;
}

SolveResult DwfSolver::solve(SpinorField<double>& x,
                             const SpinorField<double>& b) {
  SpinorField<double>* xs[] = {&x};
  const SpinorField<double>* bs[] = {&b};
  return solve_multi(xs, bs)[0];
}

std::vector<SolveResult> DwfSolver::solve_multi(
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve");
  op_f_.tuning().format = sparams_.gauge_format;
  const std::size_t nb = x.size();
  FEMTO_ASSERT(b.size() == nb);
  if (nb == 0) return {};
  const auto geom = b[0]->geom_ptr();
  const int l5 = b[0]->l5();
  for (std::size_t r = 0; r < nb; ++r) {
    assert(x[r]->subset() == Subset::Full && b[r]->subset() == Subset::Full);
  }

  // Source prep stays per RHS (one-time cost); the CGNE right-hand sides
  // Mhat^dag bhat_r batch through the multi Schur operator.
  std::vector<SpinorField<double>> bhat, rhs;
  bhat.reserve(nb);
  rhs.reserve(nb);
  std::vector<SpinorField<double>*> rhsp;
  std::vector<const SpinorField<double>*> cbhatp;
  for (std::size_t r = 0; r < nb; ++r) {
    bhat.emplace_back(geom, l5, Subset::Odd);
    rhs.emplace_back(geom, l5, Subset::Odd);
    op_d_.prepare_source(bhat.back(), *b[r]);
  }
  for (std::size_t r = 0; r < nb; ++r) {
    rhsp.push_back(&rhs[r]);
    cbhatp.push_back(&bhat[r]);
  }
  op_d_.apply_schur_multi(rhsp, cbhatp, /*dagger=*/true);

  MultiApplyFn<double> a_d = [this](
                                 std::span<SpinorField<double>* const> out,
                                 std::span<const SpinorField<double>* const>
                                     in) { op_d_.apply_normal_multi(out, in); };
  MultiApplyFn<float> a_f = [this](
                                std::span<SpinorField<float>* const> out,
                                std::span<const SpinorField<float>* const>
                                    in) { op_f_.apply_normal_multi(out, in); };

  std::vector<SpinorField<double>> y;
  y.reserve(nb);
  std::vector<SpinorField<double>*> yp;
  std::vector<const SpinorField<double>*> crhsp;
  for (std::size_t r = 0; r < nb; ++r) {
    y.emplace_back(geom, l5, Subset::Odd);
    crhsp.push_back(&rhs[r]);
  }
  for (std::size_t r = 0; r < nb; ++r) yp.push_back(&y[r]);
  std::vector<SolveResult> res = block_mixed_cg(a_d, a_f, yp, crhsp, sparams_);
  for (std::size_t r = 0; r < nb; ++r) {
    FEMTO_CHECK(std::isfinite(res[r].final_rel_residual),
                "DwfSolver::solve: mixed_cg returned a non-finite "
                "residual");
    op_d_.reconstruct(*x[r], y[r], *b[r]);
  }
  return res;
}

SolveResult DwfSolver::solve_double(SpinorField<double>& x,
                                    const SpinorField<double>& b) {
  FEMTO_TRACE_SCOPE("solver", "dwf_solve_double");
  assert(x.subset() == Subset::Full && b.subset() == Subset::Full);
  const auto geom = b.geom_ptr();
  const int l5 = b.l5();

  SpinorField<double> bhat(geom, l5, Subset::Odd);
  op_d_.prepare_source(bhat, b);
  SpinorField<double> rhs(geom, l5, Subset::Odd);
  op_d_.apply_schur(rhs, bhat, /*dagger=*/true);

  ApplyFn<double> a_d = [this](SpinorField<double>& out,
                               const SpinorField<double>& in) {
    op_d_.apply_normal(out, in);
  };
  SpinorField<double> y(geom, l5, Subset::Odd);
  SolveResult res = cg<double>(a_d, y, rhs, sparams_.tol, sparams_.max_iter);
  FEMTO_CHECK(std::isfinite(res.final_rel_residual),
              "DwfSolver::solve_double: cg returned a non-finite residual");
  op_d_.reconstruct(x, y, b);
  return res;
}

}  // namespace femto
