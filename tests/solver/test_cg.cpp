#include "solver/cg.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dirac/mobius.hpp"
#include "lattice/flops.hpp"
#include "lattice/gauge.hpp"
#include "obs/trace.hpp"
#include "solver/block_cg.hpp"
#include "solver/half.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

const MobiusParams kParams{6, -1.8, 1.5, 0.5, 0.1};

struct Fixture {
  std::shared_ptr<const GaugeField<double>> u;
  std::unique_ptr<MobiusOperator<double>> op;
  Fixture() {
    auto ug = std::make_shared<GaugeField<double>>(geom44());
    weak_gauge(*ug, 111, 0.25);
    u = ug;
    op = std::make_unique<MobiusOperator<double>>(u, kParams);
  }
};

TEST(Cg, SolvesIdentityInOneIteration) {
  auto g = geom44();
  SpinorField<double> b(g, 2, Subset::Odd), x(g, 2, Subset::Odd);
  b.gaussian(112);
  ApplyFn<double> identity = [](SpinorField<double>& out,
                                const SpinorField<double>& in) {
    out = in;
  };
  auto res = cg<double>(identity, x, b, 1e-12, 10);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 1);
  blas::axpy(-1.0, b, x);
  EXPECT_LT(blas::norm2(x), 1e-24 * blas::norm2(b));
}

TEST(Cg, SolvesDiagonalOperator) {
  auto g = geom44();
  SpinorField<double> b(g, 1, Subset::Even), x(g, 1, Subset::Even);
  b.gaussian(113);
  ApplyFn<double> diag = [](SpinorField<double>& out,
                            const SpinorField<double>& in) {
    out = in;
    blas::scal(4.0, out);
  };
  auto res = cg<double>(diag, x, b, 1e-12, 10);
  EXPECT_TRUE(res.converged);
  blas::scal(4.0, x);
  blas::axpy(-1.0, b, x);
  EXPECT_LT(blas::norm2(x), 1e-20 * blas::norm2(b));
}

TEST(Cg, SolvesMobiusNormalEquations) {
  Fixture s;
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      x(g, kParams.l5, Subset::Odd), check(g, kParams.l5, Subset::Odd);
  b.gaussian(114);
  ApplyFn<double> normal = [&](SpinorField<double>& out,
                               const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  auto res = cg<double>(normal, x, b, 1e-10, 2000);
  ASSERT_TRUE(res.converged) << res.summary();
  s.op->apply_normal(check, x);
  blas::axpy(-1.0, b, check);
  EXPECT_LT(std::sqrt(blas::norm2(check) / blas::norm2(b)), 1e-9);
}

TEST(Cg, WarmStartReducesIterations) {
  Fixture s;
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      x(g, kParams.l5, Subset::Odd);
  b.gaussian(115);
  ApplyFn<double> normal = [&](SpinorField<double>& out,
                               const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  auto cold = cg<double>(normal, x, b, 1e-8, 2000);
  ASSERT_TRUE(cold.converged);
  // Re-solve to a tighter tolerance starting from the converged solution.
  auto warm = cg<double>(normal, x, b, 1e-10, 2000);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(Cg, ReportsResidualAndFlops) {
  Fixture s;
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      x(g, kParams.l5, Subset::Odd);
  b.gaussian(116);
  ApplyFn<double> normal = [&](SpinorField<double>& out,
                               const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  auto res = cg<double>(normal, x, b, 1e-8, 2000);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.final_rel_residual, 1e-8);
  EXPECT_GT(res.flop_count, 0);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.gflops(), 0.0);
  EXPECT_NE(res.summary().find("converged"), std::string::npos);
}

TEST(Cg, RespectsMaxIter) {
  Fixture s;
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      x(g, kParams.l5, Subset::Odd);
  b.gaussian(117);
  ApplyFn<double> normal = [&](SpinorField<double>& out,
                               const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  auto res = cg<double>(normal, x, b, 1e-14, 3);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
}

class MixedCgTest : public ::testing::TestWithParam<Precision> {};

TEST_P(MixedCgTest, ConvergesToDoublePrecisionTolerance) {
  Fixture s;
  auto uf = std::make_shared<GaugeField<float>>(s.u->convert<float>());
  MobiusOperator<float> opf(uf, kParams);
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      x(g, kParams.l5, Subset::Odd), check(g, kParams.l5, Subset::Odd);
  b.gaussian(118);

  ApplyFn<double> ad = [&](SpinorField<double>& out,
                           const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  ApplyFn<float> af = [&](SpinorField<float>& out,
                          const SpinorField<float>& in) {
    opf.apply_normal(out, in);
  };

  SolverParams params;
  params.tol = 1e-10;
  params.sloppy = GetParam();
  auto res = mixed_cg(ad, af, x, b, params);
  ASSERT_TRUE(res.converged) << res.summary();
  EXPECT_GT(res.reliable_updates, 0);

  // Verify against the TRUE double operator, independent of the solver's
  // own residual bookkeeping.
  s.op->apply_normal(check, x);
  blas::axpy(-1.0, b, check);
  EXPECT_LT(std::sqrt(blas::norm2(check) / blas::norm2(b)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Precisions, MixedCgTest,
                         ::testing::Values(Precision::Single,
                                           Precision::Half),
                         [](const ::testing::TestParamInfo<Precision>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MixedCg, MatchesPureDoubleSolution) {
  Fixture s;
  auto uf = std::make_shared<GaugeField<float>>(s.u->convert<float>());
  MobiusOperator<float> opf(uf, kParams);
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd),
      xd(g, kParams.l5, Subset::Odd), xm(g, kParams.l5, Subset::Odd);
  b.gaussian(119);

  ApplyFn<double> ad = [&](SpinorField<double>& out,
                           const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  ApplyFn<float> af = [&](SpinorField<float>& out,
                          const SpinorField<float>& in) {
    opf.apply_normal(out, in);
  };

  auto r1 = cg<double>(ad, xd, b, 1e-10, 5000);
  SolverParams params;
  params.tol = 1e-10;
  params.sloppy = Precision::Half;
  auto r2 = mixed_cg(ad, af, xm, b, params);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  blas::axpy(-1.0, xd, xm);
  EXPECT_LT(std::sqrt(blas::norm2(xm) / blas::norm2(xd)), 1e-7);
}

// Every kernel a traced mixed_cg runs shows as its own frame under
// solver:mixed_cg in the collapsed stacks, so its time is not mixed_cg's
// self time.  Half storage runs the four round-trips, single storage runs
// xpay; both run copy, redot, axpy and (in the Schur operator) axpby.  A
// batched block_mixed_cg solve is the same body, so its trace shows the
// same frames under the same names.
TEST(MixedCg, TracedSolveFramesEveryKernelUnderTheSolver) {
  Fixture s;
  auto uf = std::make_shared<GaugeField<float>>(s.u->convert<float>());
  MobiusOperator<float> opf(uf, kParams);
  const auto g = s.u->geom_ptr();
  SpinorField<double> b(g, kParams.l5, Subset::Odd);
  b.gaussian(121);
  ApplyFn<double> ad = [&](SpinorField<double>& out,
                           const SpinorField<double>& in) {
    s.op->apply_normal(out, in);
  };
  ApplyFn<float> af = [&](SpinorField<float>& out,
                          const SpinorField<float>& in) {
    opf.apply_normal(out, in);
  };
  MultiApplyFn<double> adm = [&](std::span<SpinorField<double>* const> out,
                                 std::span<const SpinorField<double>* const>
                                     in) { s.op->apply_normal_multi(out, in); };
  MultiApplyFn<float> afm = [&](std::span<SpinorField<float>* const> out,
                                std::span<const SpinorField<float>* const>
                                    in) { opf.apply_normal_multi(out, in); };

  auto expect_frames = [](const std::string& stacks) {
    for (const std::string frame :
         {"blas:copy", "blas:redot", "blas:axpy", "blas:xpay", "blas:axpby",
          "half:roundtrip_norm2", "half:axpy_roundtrip",
          "half:axpy_roundtrip_norm2", "half:xpay_roundtrip"}) {
      bool under_solver = false;
      std::istringstream lines(stacks);
      for (std::string line; std::getline(lines, line) && !under_solver;) {
        const std::size_t solver = line.find(";solver:mixed_cg;");
        const std::size_t at = line.find(";" + frame, solver + 1);
        under_solver = solver != std::string::npos &&
                       at != std::string::npos &&
                       (line[at + 1 + frame.size()] == ';' ||
                        line[at + 1 + frame.size()] == ' ');
      }
      EXPECT_TRUE(under_solver) << frame << " missing under solver:mixed_cg\n"
                                << stacks;
    }
  };

  obs::set_trace_enabled(true);
  obs::trace_clear();
  for (const Precision sloppy : {Precision::Half, Precision::Single}) {
    SpinorField<double> x(g, kParams.l5, Subset::Odd);
    SolverParams params;
    params.tol = 1e-6;
    params.sloppy = sloppy;
    ASSERT_TRUE(mixed_cg(ad, af, x, b, params).converged);
  }
  const std::string stacks = obs::collapsed_stacks();

  obs::trace_clear();
  for (const Precision sloppy : {Precision::Half, Precision::Single}) {
    std::vector<SpinorField<double>> bs, xs;
    for (std::uint64_t r = 0; r < 3; ++r) {
      bs.emplace_back(g, kParams.l5, Subset::Odd);
      bs.back().gaussian(122 + r);
      xs.emplace_back(g, kParams.l5, Subset::Odd);
    }
    std::vector<SpinorField<double>*> xp;
    std::vector<const SpinorField<double>*> bp;
    for (std::size_t r = 0; r < 3; ++r) {
      xp.push_back(&xs[r]);
      bp.push_back(&bs[r]);
    }
    SolverParams params;
    params.tol = 1e-6;
    params.sloppy = sloppy;
    for (const SolveResult& res : block_mixed_cg(adm, afm, xp, bp, params))
      ASSERT_TRUE(res.converged);
  }
  const std::string batch_stacks = obs::collapsed_stacks();
  obs::set_trace_enabled(false);

  expect_frames(stacks);
  expect_frames(batch_stacks);
}

TEST(Cg, FusedIterationTrafficMatchesModel) {
  // Solve a diagonal system with a hand-rolled apply that charges no bytes,
  // so flops::bytes() isolates the solver's own BLAS traffic.  The fused
  // iteration makes 10 field-passes beyond the matvec (redot 2,
  // axpy_norm2 3, axpy_zpbx 5); the seed's unfused body made 12.
  auto g = geom44();
  SpinorField<double> b(g, 2, Subset::Even), x(g, 2, Subset::Even);
  b.gaussian(120);
  ApplyFn<double> diag = [](SpinorField<double>& out,
                            const SpinorField<double>& in) {
    const double* id = in.data();
    double* od = out.data();
    for (std::int64_t k = 0; k < in.reals(); ++k) od[k] = 4.0 * id[k];
  };
  flops::reset();
  auto res = cg<double>(diag, x, b, 1e-12, 10);
  const std::int64_t measured = flops::bytes();
  ASSERT_TRUE(res.converged);
  const std::int64_t nb = b.reals() * static_cast<std::int64_t>(
                                          sizeof(double));
  // Setup: norm2(b) + norm2(x) = 2 passes (cold start skips norm2(r)).
  const std::int64_t fused_model = (2 + 10 * res.iterations) * nb;
  const std::int64_t seed_model = (3 + 12 * res.iterations) * nb;
  EXPECT_EQ(measured, fused_model);
  EXPECT_LT(measured, seed_model);
}

TEST(MixedCg, FusedHalfIterationCutsTrafficByQuarter) {
  // One inner half-precision iteration's BLAS+quantise work, seed sequence
  // vs fused, measured via the byte counter (acceptance: >= 25% less).
  auto g = geom44();
  SpinorField<float> p(g, 4, Subset::Odd), ap(g, 4, Subset::Odd),
      xs(g, 4, Subset::Odd), r(g, 4, Subset::Odd);
  p.gaussian(121);
  ap.gaussian(122);
  xs.gaussian(123);
  r.gaussian(124);
  HalfSpinorField store(g, 4, Subset::Odd);

  flops::reset();
  // Seed: redot, axpy x2, quantize x2 (4 sweeps each), norm2, xpay,
  // quantize.
  blas::redot(p, ap);
  blas::axpy<float>(0.5, p, xs);
  blas::axpy<float>(-0.5, ap, r);
  store.encode(xs);
  store.decode(xs);
  store.encode(r);
  store.decode(r);
  blas::norm2(r);
  blas::xpay<float>(r, 0.25, p);
  store.encode(p);
  store.decode(p);
  const std::int64_t unfused = flops::bytes();

  flops::reset();
  blas::redot(p, ap);
  store.axpy_roundtrip(0.5, p, xs);
  store.axpy_roundtrip_norm2(-0.5, ap, r);
  store.xpay_roundtrip(r, 0.25, p);
  const std::int64_t fused = flops::bytes();

  EXPECT_LE(4 * fused, 3 * unfused)
      << "fused=" << fused << " unfused=" << unfused;
}

}  // namespace
}  // namespace femto
