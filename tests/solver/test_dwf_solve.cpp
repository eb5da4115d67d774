// End-to-end propagator solve: prepare -> CGNE -> reconstruct must satisfy
// the FULL (unpreconditioned) Mobius equation, in every precision mode.

#include "solver/dwf_solve.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "lattice/gauge.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

const MobiusParams kParams{6, -1.8, 1.5, 0.5, 0.1};

std::shared_ptr<const GaugeField<double>> make_gauge(std::uint64_t seed) {
  auto u = std::make_shared<GaugeField<double>>(geom44());
  weak_gauge(*u, seed, 0.25);
  return u;
}

double full_residual(const MobiusOperator<double>& op,
                     const SpinorField<double>& x,
                     const SpinorField<double>& b) {
  SpinorField<double> check(b.geom_ptr(), b.l5(), Subset::Full);
  op.apply_full(check, x);
  blas::axpy(-1.0, b, check);
  return std::sqrt(blas::norm2(check) / blas::norm2(b));
}

TEST(DwfSolver, MixedPrecisionSolvesFullSystem) {
  auto u = make_gauge(121);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      x(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(122);
  auto res = solver.solve(x, b);
  ASSERT_TRUE(res.converged) << res.summary();
  EXPECT_LT(full_residual(solver.op(), x, b), 1e-8);
}

TEST(DwfSolver, DoubleSolveMatchesMixed) {
  auto u = make_gauge(123);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      xd(u->geom_ptr(), kParams.l5, Subset::Full),
      xm(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(124);
  auto rd = solver.solve_double(xd, b);
  auto rm = solver.solve(xm, b);
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rm.converged);
  blas::axpy(-1.0, xd, xm);
  EXPECT_LT(std::sqrt(blas::norm2(xm) / blas::norm2(xd)), 1e-6);
}

TEST(DwfSolver, PointSourceSolve) {
  // A delta-function source (the building block of propagators) must give
  // a solution whose residual is small and which is nonzero away from the
  // source (the quark propagates).
  auto u = make_gauge(125);
  SolverParams sp;
  sp.tol = 1e-8;
  DwfSolver solver(u, kParams, sp);
  const auto g = u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Full),
      x(g, kParams.l5, Subset::Full);
  b.zero();
  // Unit source at origin, spin 0, color 0, s5 = 0.
  Spinor<double> src;
  src[0][0] = {1.0, 0.0};
  b.store(0, g->index({0, 0, 0, 0}), src);

  auto res = solver.solve(x, b);
  ASSERT_TRUE(res.converged) << res.summary();
  EXPECT_LT(full_residual(solver.op(), x, b), 1e-6);
  // Solution spreads beyond the source site.
  const auto far = x.load(kParams.l5 - 1, g->index({2, 2, 2, 2}));
  double far_norm = 0;
  for (int s = 0; s < kNs; ++s) far_norm += norm2(far[s]);
  EXPECT_GT(far_norm, 0.0);
}

TEST(DwfSolver, TighterToleranceCostsMoreIterations) {
  auto u = make_gauge(126);
  SolverParams loose;
  loose.tol = 1e-6;
  SolverParams tight;
  tight.tol = 1e-12;
  DwfSolver s1(u, kParams, loose), s2(u, kParams, tight);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      x1(u->geom_ptr(), kParams.l5, Subset::Full),
      x2(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(127);
  auto r1 = s1.solve(x1, b);
  auto r2 = s2.solve(x2, b);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r1.iterations, r2.iterations);
}

TEST(DwfSolver, HeavierQuarkConvergesFaster) {
  // Condition number grows as the quark mass drops: the physics reason the
  // paper's solves are expensive.
  auto u = make_gauge(128);
  MobiusParams heavy = kParams;
  heavy.mf = 0.5;
  MobiusParams light = kParams;
  light.mf = 0.01;
  SolverParams sp;
  sp.tol = 1e-8;
  DwfSolver sh(u, heavy, sp), sl(u, light, sp);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      x(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(129);
  auto rh = sh.solve(x, b);
  x.zero();
  auto rl = sl.solve(x, b);
  ASSERT_TRUE(rh.converged);
  ASSERT_TRUE(rl.converged);
  EXPECT_LT(rh.iterations, rl.iterations);
}

TEST(DwfSolver, WorksOnQuenchedEnsembleConfig) {
  // The full pipeline on a real Monte Carlo configuration (not just weak
  // field): heatbath-generated gauge, mixed-precision solve.
  auto u = std::make_shared<GaugeField<double>>(
      quenched_config(geom44(), 6.0, 10, 130));
  SolverParams sp;
  sp.tol = 1e-8;
  sp.max_iter = 20000;
  DwfSolver solver(u, kParams, sp);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      x(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(131);
  auto res = solver.solve(x, b);
  ASSERT_TRUE(res.converged) << res.summary();
  EXPECT_LT(full_residual(solver.op(), x, b), 1e-6);
}

TEST(DwfSolver, ZeroSourceStopsAtOnceWithZeroResidual) {
  // b = 0 has the exact answer x = 0.  Every entry point must stop before
  // the first iteration and report |r|/|b| as 0, not 0/0.
  auto u = make_gauge(135);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);
  const auto g = u->geom_ptr();
  const SpinorField<double> zero(g, kParams.l5, Subset::Full);
  const auto expect_zero_solve = [](const SolveResult& res,
                                    const SpinorField<double>& x) {
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0);
    EXPECT_EQ(res.final_rel_residual, 0.0);
    for (std::int64_t k = 0; k < x.reals(); ++k)
      ASSERT_EQ(x.data()[k], 0.0) << "k=" << k;
  };

  SpinorField<double> x(g, kParams.l5, Subset::Full);
  x.gaussian(136);  // stale contents: the solve must overwrite them
  expect_zero_solve(solver.solve(x, zero), x);
  x.gaussian(137);
  expect_zero_solve(solver.solve_double(x, zero), x);

  // In a batch with a nonzero source, the zero RHS still stops at once and
  // the other still matches its solo solve bitwise.
  SpinorField<double> b(g, kParams.l5, Subset::Full),
      x_solo(g, kParams.l5, Subset::Full), x0(g, kParams.l5, Subset::Full),
      x1(g, kParams.l5, Subset::Full);
  b.gaussian(138);
  const SolveResult solo = solver.solve(x_solo, b);
  SpinorField<double>* xp[] = {&x0, &x1};
  const SpinorField<double>* bp[] = {&zero, &b};
  const std::vector<SolveResult> res = solver.solve_multi(xp, bp);
  ASSERT_EQ(res.size(), 2u);
  expect_zero_solve(res[0], x0);
  ASSERT_TRUE(res[1].converged);
  EXPECT_EQ(res[1].iterations, solo.iterations);
  EXPECT_EQ(res[1].reliable_updates, solo.reliable_updates);
  EXPECT_EQ(res[1].final_rel_residual, solo.final_rel_residual);
  for (std::int64_t k = 0; k < b.reals(); ++k)
    ASSERT_EQ(x1.data()[k], x_solo.data()[k]) << "k=" << k;
}

}  // namespace
}  // namespace femto

namespace femto {
namespace {

TEST(DwfSolver, AutotuneThenSolve) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  auto ug = std::make_shared<GaugeField<double>>(g);
  weak_gauge(*ug, 131, 0.2);
  SolverParams sp;
  sp.tol = 1e-8;
  DwfSolver solver(ug, MobiusParams{4, -1.8, 1.5, 0.5, 0.2}, sp);
  solver.autotune_multi(1);  // tunes both operators' dslash at B = 1
  SpinorField<double> b(g, 4, Subset::Full), x(g, 4, Subset::Full);
  b.gaussian(132);
  const auto res = solver.solve(x, b);
  EXPECT_TRUE(res.converged) << res.summary();
}

TEST(DwfSolver, TunedSolveOnFull18MatchesUntunedBitwise) {
  // Tuning moves a solution's bits only through the sloppy operator's
  // link tier: back on full18 links, a tuned solver (whatever variant and
  // grain it picked) gives an untuned solver's bits.
  auto u = make_gauge(135);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver untuned(u, kParams, sp);
  DwfSolver tuned(u, kParams, sp);
  tuned.autotune_multi(1);
  tuned.solver_params().gauge_format = GaugeFormat::kFull18;
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      xu(u->geom_ptr(), kParams.l5, Subset::Full),
      xt(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(136);
  const auto ru = untuned.solve(xu, b);
  const auto rt = tuned.solve(xt, b);
  ASSERT_TRUE(ru.converged) << ru.summary();
  EXPECT_EQ(rt.iterations, ru.iterations);
  EXPECT_EQ(rt.reliable_updates, ru.reliable_updates);
  EXPECT_EQ(rt.final_rel_residual, ru.final_rel_residual);
  EXPECT_EQ(std::memcmp(xt.data(), xu.data(),
                        static_cast<std::size_t>(xu.reals()) *
                            sizeof(double)),
            0);
}

}  // namespace
}  // namespace femto

namespace femto {
namespace {

TEST(DwfSolver, CompressedInnerLinksReachSameAnswer) {
  // The accuracy contract of DESIGN.md §16: the sloppy operator may read
  // recon12 links because the reliable updates recompute the TRUE
  // residual on full-18 double links.  Mixed CG must therefore reach the
  // same double residual, and the answer must match the full18 solve
  // within reliable-update tolerance.
  auto u = make_gauge(133);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver ref_solver(u, kParams, sp);
  SpinorField<double> b(u->geom_ptr(), kParams.l5, Subset::Full),
      x_ref(u->geom_ptr(), kParams.l5, Subset::Full),
      x(u->geom_ptr(), kParams.l5, Subset::Full);
  b.gaussian(134);
  const auto r_ref = ref_solver.solve(x_ref, b);
  ASSERT_TRUE(r_ref.converged) << r_ref.summary();

  SolverParams spc = sp;
  spc.gauge_format = GaugeFormat::kRecon12;
  DwfSolver solver(u, kParams, spc);
  const auto res = solver.solve(x, b);
  ASSERT_TRUE(res.converged) << res.summary();
  // Same double residual: the convergence test is the full18 one.
  EXPECT_LT(full_residual(solver.op(), x, b), 1e-8);
  // Same answer, to the tolerance the reliable updates guarantee.
  SpinorField<double> d(u->geom_ptr(), kParams.l5, Subset::Full);
  blas::copy(d, x);
  blas::axpy(-1.0, x_ref, d);
  EXPECT_LT(std::sqrt(blas::norm2(d) / blas::norm2(x_ref)), 1e-6);
}

}  // namespace
}  // namespace femto
