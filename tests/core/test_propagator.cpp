#include "core/propagator.hpp"

#include <gtest/gtest.h>

#include "lattice/blas.hpp"
#include "lattice/gauge.hpp"

namespace femto::core {
namespace {

struct Fixture {
  std::shared_ptr<const Geometry> g;
  std::shared_ptr<const GaugeField<double>> u;
  MobiusParams params{6, -1.8, 1.5, 0.5, 0.2};
  std::unique_ptr<DwfSolver> solver;

  Fixture() {
    g = std::make_shared<Geometry>(4, 4, 4, 8);
    auto ug = std::make_shared<GaugeField<double>>(g);
    weak_gauge(*ug, 501, 0.2);
    u = ug;
    SolverParams sp;
    sp.tol = 1e-8;
    sp.max_iter = 20000;
    solver = std::make_unique<DwfSolver>(u, params, sp);
  }
};

TEST(PropagatorTest, PointSourceStructure) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  const auto b = make_dwf_point_source(g, 6, {1, 2, 3, 4}, 1, 2);
  // Spin 1 is in the P+ pair: lives at s = 0 only.
  const auto site = g->index({1, 2, 3, 4});
  const auto s0 = b.load(0, site);
  EXPECT_EQ(s0[1][2].re, 1.0);
  const auto sl = b.load(5, site);
  EXPECT_EQ(sl[1][2].re, 0.0);  // P- projection kills spin 1 at s=L5-1
  // Spin 3 (P- pair) would live at s = L5-1 instead.
  const auto b2 = make_dwf_point_source(g, 6, {1, 2, 3, 4}, 3, 0);
  EXPECT_EQ(b2.load(5, site)[3][0].re, 1.0);
  EXPECT_EQ(b2.load(0, site)[3][0].re, 0.0);
  // Everything else zero.
  EXPECT_DOUBLE_EQ(blas::norm2(b), 1.0);
}

TEST(PropagatorTest, Project4dCombinesBoundaries) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  SpinorField<double> psi(g, 6, Subset::Full);
  psi.gaussian(502);
  SpinorField<double> q(g, 1, Subset::Full);
  project_4d(psi, q);
  for (std::int64_t i = 0; i < q.sites(); i += 37) {
    const auto qq = q.load(0, i);
    const auto lo = psi.load(0, i);
    const auto hi = psi.load(5, i);
    for (int c = 0; c < kNc; ++c) {
      // Spins 0,1 (P+) from s = L5-1; spins 2,3 (P-) from s = 0.
      EXPECT_EQ(qq[0][c].re, hi[0][c].re);
      EXPECT_EQ(qq[1][c].im, hi[1][c].im);
      EXPECT_EQ(qq[2][c].re, lo[2][c].re);
      EXPECT_EQ(qq[3][c].im, lo[3][c].im);
    }
  }
}

TEST(PropagatorTest, PointPropagatorSolvesConverge) {
  Fixture f;
  PropagatorSolveStats stats;
  const auto prop = compute_point_propagator(*f.solver, {0, 0, 0, 0},
                                             &stats);
  EXPECT_TRUE(stats.all_converged);
  EXPECT_LT(stats.worst_residual, 1e-7);
  EXPECT_EQ(stats.total_iterations > 0, true);
  // Propagator is nonzero away from the source.
  double far = 0;
  const auto site = f.g->index({2, 2, 2, 4});
  for (int s = 0; s < kNs; ++s)
    for (int c = 0; c < kNc; ++c)
      far += norm2(prop.column(s, c).load(0, site));
  EXPECT_GT(far, 0.0);
}

/// Every lane j of the W-site loader holds site @p site0 + j.
template <int W>
void expect_color_blocks_match_columns(const Propagator& prop,
                                       std::int64_t site0) {
  Propagator::ColorBlocks<W> m;
  prop.load_color_blocks<W>(site0, m);
  for (int j = 0; j < W; ++j)
    for (int ss = 0; ss < kNs; ++ss)
      for (int sc = 0; sc < kNc; ++sc) {
        const auto col = prop.column(ss, sc).load(0, site0 + j);
        for (int s = 0; s < kNs; ++s)
          for (int c = 0; c < kNc; ++c) {
            const auto& e = m[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(sc)]
                             [static_cast<std::size_t>(s)]
                             [static_cast<std::size_t>(ss)];
            EXPECT_EQ(simd::lane(e.re, j), col[s][c].re)
                << "W=" << W << " lane " << j;
            EXPECT_EQ(simd::lane(e.im, j), col[s][c].im)
                << "W=" << W << " lane " << j;
          }
      }
}

TEST(PropagatorTest, ColorBlocksMatchColumns) {
  Fixture f;
  const auto prop = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  const auto site = f.g->index({1, 1, 1, 2});
  expect_color_blocks_match_columns<1>(prop, site);
  expect_color_blocks_match_columns<simd::kWidth<double>>(prop, site);
  expect_color_blocks_match_columns<8>(prop, site);
}

TEST(PropagatorTest, FhPropagatorConvergesAndDiffers) {
  Fixture f;
  const auto base = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  PropagatorSolveStats stats;
  const auto fh = compute_fh_propagator(*f.solver, base, &stats);
  EXPECT_TRUE(stats.all_converged);
  // The FH propagator is a genuinely different field.
  double diff = 0, norm = 0;
  for (int s = 0; s < kNs; ++s)
    for (int c = 0; c < kNc; ++c) {
      const auto& a = base.column(s, c);
      const auto& b = fh.column(s, c);
      norm += blas::norm2(a);
      SpinorField<double> d = a;
      blas::axpy(-1.0, b, d);
      diff += blas::norm2(d);
    }
  EXPECT_GT(diff, 1e-6 * norm);
}

TEST(PropagatorTest, PropagatorDecaysWithDistanceFromSource) {
  Fixture f;
  const auto prop = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  auto strength_at_t = [&](int t) {
    double s2 = 0;
    // Sum over the timeslice.
    for (std::int64_t i = 0; i < f.g->volume(); ++i) {
      if (f.g->coord(i)[3] != t) continue;
      for (int s = 0; s < kNs; ++s)
        for (int c = 0; c < kNc; ++c)
          s2 += norm2(prop.column(s, c).load(0, i));
    }
    return s2;
  };
  // Midpoint of the time extent is strictly weaker than near the source.
  EXPECT_GT(strength_at_t(1), strength_at_t(4));
}

}  // namespace
}  // namespace femto::core
