// Block solver contract: solving B right-hand sides together must give,
// for every RHS, the SAME iterates mixed_cg produces alone — same
// iteration count, same residual history, bitwise-identical solution.
// Batching is a bandwidth optimisation, never a numerics change; this is
// what makes the solve service deterministic under any queue timing.

#include "solver/block_cg.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dirac/mobius.hpp"
#include "lattice/gauge.hpp"
#include "obs/wallclock.hpp"
#include "solver/cg.hpp"
#include "solver/dwf_solve.hpp"

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

template <typename T>
ApplyFn<T> normal(const MobiusOperator<T>& op) {
  return [&op](SpinorField<T>& out, const SpinorField<T>& in) {
    op.apply_normal(out, in);
  };
}

template <typename T>
MultiApplyFn<T> normal_multi(const MobiusOperator<T>& op) {
  return [&op](std::span<SpinorField<T>* const> out,
               std::span<const SpinorField<T>* const> in) {
    op.apply_normal_multi(out, in);
  };
}

std::vector<SpinorField<double>*> ptrs(std::vector<SpinorField<double>>& v) {
  std::vector<SpinorField<double>*> p;
  for (auto& f : v) p.push_back(&f);
  return p;
}

std::vector<const SpinorField<double>*> cptrs(
    const std::vector<SpinorField<double>>& v) {
  std::vector<const SpinorField<double>*> p;
  for (const auto& f : v) p.push_back(&f);
  return p;
}

/// The double/float normal-operator pair DwfSolver runs, on one gauge.
struct OperatorPair {
  explicit OperatorPair(std::shared_ptr<const GaugeField<double>> u)
      : d(u, kParams),
        f(std::make_shared<GaugeField<float>>(u->convert<float>()), kParams) {}
  MobiusOperator<double> d;
  MobiusOperator<float> f;
};

TEST(BlockMixedCg, SolveMultiMatchesSolveExactly) {
  // The full pipeline: DwfSolver::solve_multi per-RHS must reproduce
  // DwfSolver::solve bitwise — reliable updates, half-precision round
  // trips and all.
  auto u = make_gauge(214);
  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, kParams, sp);

  const std::size_t nrhs = 3;
  std::vector<SpinorField<double>> b, xs, xb;
  for (std::size_t r = 0; r < nrhs; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    xs.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    xb.emplace_back(u->geom_ptr(), kParams.l5, Subset::Full);
    b.back().gaussian(330 + static_cast<std::uint64_t>(r));
  }

  std::vector<SolveResult> single;
  for (std::size_t r = 0; r < nrhs; ++r)
    single.push_back(solver.solve(xs[r], b[r]));

  std::vector<SolveResult> block = solver.solve_multi(ptrs(xb), cptrs(b));

  for (std::size_t r = 0; r < nrhs; ++r) {
    ASSERT_TRUE(block[r].converged) << "r=" << r;
    EXPECT_EQ(block[r].iterations, single[r].iterations) << "r=" << r;
    EXPECT_EQ(block[r].reliable_updates, single[r].reliable_updates)
        << "r=" << r;
    EXPECT_EQ(block[r].final_rel_residual, single[r].final_rel_residual)
        << "r=" << r;
    for (std::int64_t k = 0; k < b[r].reals(); ++k)
      ASSERT_EQ(xb[r].data()[k], xs[r].data()[k]) << "r=" << r << " k=" << k;
  }
}

TEST(BlockMixedCg, WarmStartMatchesMixedCg) {
  // One RHS of three starts from a nonzero guess, so the block solver's
  // warm subset (r = b - A x, batched over the warm RHSs) runs beside two
  // cold starts; every RHS must still replay mixed_cg bitwise.
  auto u = make_gauge(216);
  const OperatorPair op(u);
  SolverParams sp;
  sp.tol = 1e-10;

  const std::size_t nrhs = 3;
  std::vector<SpinorField<double>> b, xs, xb;
  for (std::size_t r = 0; r < nrhs; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    xs.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    xb.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    b.back().gaussian(350 + static_cast<std::uint64_t>(r));
  }
  xs[1].gaussian(360);
  blas::copy(xb[1], xs[1]);

  std::vector<SolveResult> single;
  for (std::size_t r = 0; r < nrhs; ++r)
    single.push_back(
        mixed_cg(normal(op.d), normal(op.f), xs[r], b[r], sp));
  const std::vector<SolveResult> block = block_mixed_cg(
      normal_multi(op.d), normal_multi(op.f), ptrs(xb), cptrs(b), sp);

  ASSERT_EQ(block.size(), nrhs);
  for (std::size_t r = 0; r < nrhs; ++r) {
    ASSERT_TRUE(block[r].converged) << "r=" << r;
    EXPECT_EQ(block[r].iterations, single[r].iterations) << "r=" << r;
    EXPECT_EQ(block[r].reliable_updates, single[r].reliable_updates)
        << "r=" << r;
    EXPECT_EQ(block[r].final_rel_residual, single[r].final_rel_residual)
        << "r=" << r;
    for (std::int64_t k = 0; k < b[r].reals(); ++k)
      ASSERT_EQ(xb[r].data()[k], xs[r].data()[k]) << "r=" << r << " k=" << k;
  }
}

TEST(BlockMixedCg, PerRhsSecondsShareTheBlockWallTime) {
  // Each RHS reports its share of the joint block work (block_cg.hpp), so
  // the per-RHS seconds cannot add up to more than the call took.
  auto u = make_gauge(217);
  const OperatorPair op(u);
  SolverParams sp;
  sp.tol = 1e-10;

  std::vector<SpinorField<double>> b, x;
  for (std::size_t r = 0; r < 3; ++r) {
    b.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    x.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
    b.back().gaussian(370 + static_cast<std::uint64_t>(r));
  }

  const obs::Stopwatch sw;
  const std::vector<SolveResult> res = block_mixed_cg(
      normal_multi(op.d), normal_multi(op.f), ptrs(x), cptrs(b), sp);
  const double wall = sw.seconds();

  double sum = 0.0;
  for (const SolveResult& r : res) {
    EXPECT_GT(r.seconds, 0.0);
    sum += r.seconds;
  }
  EXPECT_LE(sum, wall);
}

}  // namespace
}  // namespace femto
