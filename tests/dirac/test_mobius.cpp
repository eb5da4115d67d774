// Mobius operator validation.  The two strongest checks:
//  * apply_full (fused form D = D_W B + (1 - Lambda)) against an
//    independently coded block composition from the Schur pieces,
//  * dagger consistency via inner products for both the full and the Schur
//    operator (what CGNE correctness rests on).

#include "dirac/mobius.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lattice/blas.hpp"
#include "lattice/gauge.hpp"
#include "obs/metrics.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

std::shared_ptr<const GaugeField<double>> make_gauge(std::uint64_t seed,
                                                     double eps = 0.25) {
  auto u = std::make_shared<GaugeField<double>>(geom44());
  weak_gauge(*u, seed, eps);
  return u;
}

const MobiusParams kParams{6, -1.8, 1.5, 0.5, 0.1};

TEST(Mobius, FullOperatorMatchesBlockComposition) {
  auto u = make_gauge(71);
  MobiusOperator<double> op(u, kParams);
  const auto g = u->geom_ptr();
  const int l5 = kParams.l5;

  SpinorField<double> in(g, l5, Subset::Full), got(g, l5, Subset::Full);
  in.gaussian(72);
  op.apply_full(got, in);

  // Independent composition: out = C in - 1/2 Dslash (B in), built from
  // scratch with the raw pieces (per parity).
  const double a = 4.0 + kParams.m5;
  FifthDimOp lam{lambda_plus(l5, kParams.mf), lambda_minus(l5, kParams.mf)};
  FifthDimOp b{SMat::identity(l5).scaled(kParams.b5) +
                   lambda_plus(l5, kParams.mf).scaled(kParams.c5),
               SMat::identity(l5).scaled(kParams.b5) +
                   lambda_minus(l5, kParams.mf).scaled(kParams.c5)};
  FifthDimOp c{SMat::identity(l5).scaled(kParams.b5 * a + 1.0) +
                   lambda_plus(l5, kParams.mf).scaled(kParams.c5 * a - 1.0),
               SMat::identity(l5).scaled(kParams.b5 * a + 1.0) +
                   lambda_minus(l5, kParams.mf).scaled(kParams.c5 * a - 1.0)};

  SpinorField<double> bin(g, l5, Subset::Full), dbin(g, l5, Subset::Full),
      want(g, l5, Subset::Full);
  b.apply<double>(view(bin), cview(in));
  for (int par = 0; par < 2; ++par)
    dslash<double>(parity_view(dbin, par), *u, parity_view(bin, 1 - par),
                   par, false, {});
  c.apply<double>(view(want), cview(in));
  blas::axpy(-0.5, dbin, want);

  for (std::int64_t k = 0; k < in.reals(); ++k)
    ASSERT_NEAR(got.data()[k], want.data()[k], 1e-11);
}

TEST(Mobius, ShamirLimitMatchesGeneric) {
  // b5 = 1, c5 = 0 through the generic code equals MobiusParams::shamir.
  auto u = make_gauge(73);
  MobiusOperator<double> generic(u, {6, -1.5, 1.0, 0.0, 0.05});
  MobiusOperator<double> shamir(u, MobiusParams::shamir(6, -1.5, 0.05));
  const auto g = u->geom_ptr();
  SpinorField<double> in(g, 6, Subset::Full), a(g, 6, Subset::Full),
      b(g, 6, Subset::Full);
  in.gaussian(74);
  generic.apply_full(a, in);
  shamir.apply_full(b, in);
  for (std::int64_t k = 0; k < in.reals(); ++k)
    ASSERT_EQ(a.data()[k], b.data()[k]);
}

TEST(Mobius, FullDaggerAdjointness) {
  auto u = make_gauge(75);
  MobiusOperator<double> op(u, kParams);
  const auto g = u->geom_ptr();
  SpinorField<double> x(g, kParams.l5, Subset::Full),
      y(g, kParams.l5, Subset::Full), dx(g, kParams.l5, Subset::Full),
      ddy(g, kParams.l5, Subset::Full);
  x.gaussian(76);
  y.gaussian(77);
  op.apply_full(dx, x, false);
  op.apply_full(ddy, y, true);
  const auto lhs = blas::cdot(y, dx);   // <y, D x>
  const auto rhs = blas::cdot(ddy, x);  // <D^dag y, x>
  EXPECT_NEAR(lhs.re, rhs.re, 1e-8 * (std::abs(lhs.re) + 1));
  EXPECT_NEAR(lhs.im, rhs.im, 1e-8 * (std::abs(lhs.re) + 1));
}

TEST(Mobius, SchurDaggerAdjointness) {
  auto u = make_gauge(78);
  MobiusOperator<double> op(u, kParams);
  const auto g = u->geom_ptr();
  SpinorField<double> x(g, kParams.l5, Subset::Odd),
      y(g, kParams.l5, Subset::Odd), mx(g, kParams.l5, Subset::Odd),
      mdy(g, kParams.l5, Subset::Odd);
  x.gaussian(79);
  y.gaussian(80);
  op.apply_schur(mx, x, false);
  op.apply_schur(mdy, y, true);
  const auto lhs = blas::cdot(y, mx);
  const auto rhs = blas::cdot(mdy, x);
  EXPECT_NEAR(lhs.re, rhs.re, 1e-8 * (std::abs(lhs.re) + 1));
  EXPECT_NEAR(lhs.im, rhs.im, 1e-8 * (std::abs(lhs.re) + 1));
}

TEST(Mobius, NormalOperatorIsHermitianPositive) {
  auto u = make_gauge(81);
  MobiusOperator<double> op(u, kParams);
  const auto g = u->geom_ptr();
  SpinorField<double> x(g, kParams.l5, Subset::Odd),
      y(g, kParams.l5, Subset::Odd), nx(g, kParams.l5, Subset::Odd),
      ny(g, kParams.l5, Subset::Odd);
  x.gaussian(82);
  y.gaussian(83);
  op.apply_normal(nx, x);
  op.apply_normal(ny, y);
  const auto a = blas::cdot(y, nx);
  const auto b = blas::cdot(ny, x);
  EXPECT_NEAR(a.re, b.re, 1e-8 * (std::abs(a.re) + 1));
  EXPECT_NEAR(a.im, b.im, 1e-8 * (std::abs(a.re) + 1));
  // Positivity: <x, Mhat^dag Mhat x> = ||Mhat x||^2 > 0.
  EXPECT_GT(blas::redot(x, nx), 0.0);
}

TEST(Mobius, SchurSolvesFullSystem) {
  // If x solves the full system via Schur decomposition then D x = b:
  // take arbitrary x_full, form b = D x_full, run prepare/Schur-identity/
  // reconstruct consistency: Mhat x_o must equal bhat when x is exact.
  auto u = make_gauge(84);
  MobiusOperator<double> op(u, kParams);
  const auto g = u->geom_ptr();
  const int l5 = kParams.l5;
  SpinorField<double> x(g, l5, Subset::Full), b(g, l5, Subset::Full);
  x.gaussian(85);
  op.apply_full(b, x);

  // Extract x_o.
  SpinorField<double> xo(g, l5, Subset::Odd);
  const auto xov = parity_view(const_cast<const SpinorField<double>&>(x), 1);
  for (int s = 0; s < l5; ++s)
    for (std::int64_t i = 0; i < xo.sites(); ++i)
      xo.store(s, i, xov.load(s, i));

  SpinorField<double> bhat(g, l5, Subset::Odd), mx(g, l5, Subset::Odd);
  op.prepare_source(bhat, b);
  op.apply_schur(mx, xo);
  blas::axpy(-1.0, bhat, mx);
  EXPECT_LT(blas::norm2(mx), 1e-18 * blas::norm2(bhat));

  // And reconstruction must reproduce the even half.
  SpinorField<double> xr(g, l5, Subset::Full);
  op.reconstruct(xr, xo, b);
  blas::axpy(-1.0, x, xr);
  EXPECT_LT(blas::norm2(xr), 1e-18 * blas::norm2(x));
}

TEST(Mobius, R5Gamma5HermiticityShamirKernel) {
  // D^dag = G5 R5 D R5 G5 with R5 the s-reflection.  This identity holds
  // exactly for the Shamir kernel (c5 = 0, where the hopping term carries
  // no chirality-blocked scale); for general Mobius the relation is
  // modified because D_W does not commute with B = b5 + c5*Lambda, so we
  // validate the Mobius dagger with the inner-product tests above instead.
  auto u = make_gauge(86);
  const MobiusParams shamir = MobiusParams::shamir(6, -1.8, 0.1);
  MobiusOperator<double> op(u, shamir);
  const auto g = u->geom_ptr();
  const int l5 = shamir.l5;
  SpinorField<double> x(g, l5, Subset::Full), lhs(g, l5, Subset::Full),
      tmp(g, l5, Subset::Full), rhs(g, l5, Subset::Full);
  x.gaussian(87);

  auto r5g5 = [&](SpinorField<double>& out, const SpinorField<double>& in) {
    for (int s = 0; s < l5; ++s)
      for (std::int64_t i = 0; i < in.sites(); ++i)
        out.store(l5 - 1 - s, i, apply_gamma5(in.load(s, i)));
  };

  op.apply_full(lhs, x, true);  // D^dag x
  r5g5(tmp, x);
  op.apply_full(rhs, tmp, false);
  SpinorField<double> rhs2(g, l5, Subset::Full);
  r5g5(rhs2, rhs);  // G5 R5 D R5 G5 x
  blas::axpy(-1.0, rhs2, lhs);
  EXPECT_LT(blas::norm2(lhs), 1e-16 * blas::norm2(rhs2));
}

TEST(Mobius, FlopsPerSchurInPaperRange) {
  // The paper quotes 10,000-12,000 flops per 5D lattice point for the
  // red-black stencil; our Schur operator (two dslash passes + m5inv-style
  // matvecs) must land in the same regime for production L5.
  auto u = make_gauge(88);
  for (int l5 : {8, 12, 16}) {
    MobiusParams p = kParams;
    p.l5 = l5;
    MobiusOperator<double> op(u, p);
    const double per_site5 =
        static_cast<double>(op.flops_per_schur()) /
        static_cast<double>(u->geom().half_volume() * l5);
    EXPECT_GT(per_site5, 2000.0) << l5;
    EXPECT_LT(per_site5, 13000.0) << l5;
  }
}

TEST(Mobius, FloatOperatorTracksDouble) {
  auto ud = make_gauge(89);
  auto uf = std::make_shared<GaugeField<float>>(ud->convert<float>());
  MobiusOperator<double> opd(ud, kParams);
  MobiusOperator<float> opf(uf, kParams);
  const auto g = ud->geom_ptr();
  SpinorField<double> in(g, kParams.l5, Subset::Odd),
      outd(g, kParams.l5, Subset::Odd);
  SpinorField<float> inf(g, kParams.l5, Subset::Odd),
      outf(g, kParams.l5, Subset::Odd);
  in.gaussian(90);
  blas::copy(inf, in);
  opd.apply_schur(outd, in);
  opf.apply_schur(outf, inf);
  double max_rel = 0;
  for (std::int64_t k = 0; k < in.reals(); k += 7) {
    const double d = std::abs(outd.data()[k] - outf.data()[k]);
    max_rel = std::max(max_rel, d / (std::abs(outd.data()[k]) + 1.0));
  }
  EXPECT_LT(max_rel, 1e-4);
}

// Batching is never a numerics change at the operator level: every RHS of
// a batched Schur or normal application must equal its batch-of-one call
// bitwise, for ragged batches (3 and 5 do not divide any lane width, so
// lane blocks straddle fifth-dim slices), both dagger values, every kernel
// variant and both gauge tiers.
template <typename T>
void check_batch_of_one(DslashVariant v, GaugeFormat fmt) {
  const auto ud = make_gauge(91);
  const auto u =
      std::make_shared<GaugeField<T>>(ud->template convert<T>());
  DslashTuning tune;
  tune.grain = 16;
  tune.variant = v;
  tune.format = fmt;
  MobiusOperator<T> op(u, kParams, tune);
  const auto g = u->geom_ptr();
  const int l5 = kParams.l5;
  for (const std::size_t nb : {std::size_t{3}, std::size_t{5}}) {
    std::vector<SpinorField<T>> in, got, want;
    for (std::size_t r = 0; r < nb; ++r) {
      in.emplace_back(g, l5, Subset::Odd);
      got.emplace_back(g, l5, Subset::Odd);
      want.emplace_back(g, l5, Subset::Odd);
      in.back().gaussian(92 + r);
    }
    std::vector<SpinorField<T>*> outs;
    std::vector<const SpinorField<T>*> ins;
    for (std::size_t r = 0; r < nb; ++r) {
      outs.push_back(&got[r]);
      ins.push_back(&in[r]);
    }
    const auto expect_bitwise = [&](const char* what) {
      for (std::size_t r = 0; r < nb; ++r)
        for (std::int64_t k = 0; k < in[r].reals(); ++k)
          ASSERT_EQ(got[r].data()[k], want[r].data()[k])
              << what << " " << to_string(v) << "/" << gauge_format_name(fmt)
              << " B=" << nb << " r=" << r << " k=" << k;
    };
    for (const bool dagger : {false, true}) {
      op.apply_schur_multi(outs, ins, dagger);
      for (std::size_t r = 0; r < nb; ++r)
        op.apply_schur(want[r], in[r], dagger);
      expect_bitwise(dagger ? "schur^dag" : "schur");
    }
    op.apply_normal_multi(outs, ins);
    for (std::size_t r = 0; r < nb; ++r) op.apply_normal(want[r], in[r]);
    expect_bitwise("normal");
  }
}

// Every Schur stage is one launch for the whole batch, so the normal
// operator makes as many pool calls (launches plus inline runs) at B = 12
// as at B = 1.
TEST(Mobius, NormalOpPoolCallsDoNotGrowWithTheBatch) {
  const auto ud = make_gauge(95);
  const auto u =
      std::make_shared<GaugeField<float>>(ud->template convert<float>());
  MobiusOperator<float> op(u, kParams);
  const auto pool_calls = [&](std::size_t nb) {
    std::vector<SpinorField<float>> in, out;
    std::vector<SpinorField<float>*> outs;
    std::vector<const SpinorField<float>*> ins;
    for (std::size_t r = 0; r < nb; ++r) {
      in.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
      out.emplace_back(u->geom_ptr(), kParams.l5, Subset::Odd);
      in.back().gaussian(96 + r);
    }
    for (std::size_t r = 0; r < nb; ++r) {
      outs.push_back(&out[r]);
      ins.push_back(&in[r]);
    }
    const auto count = [] {
      return obs::counter("pool.launches").get() +
             obs::counter("pool.inline_runs").get();
    };
    const std::int64_t before = count();
    op.apply_normal_multi(outs, ins);
    return count() - before;
  };
  const std::int64_t one = pool_calls(1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(pool_calls(12), one);
}

TEST(Mobius, BatchedMatchesBatchOfOneBitwiseDouble) {
  for (const auto v : {DslashVariant::kScalar, DslashVariant::kVector,
                       DslashVariant::kVectorBlocked})
    for (const auto f : {GaugeFormat::kFull18, GaugeFormat::kRecon12})
      check_batch_of_one<double>(v, f);
}

TEST(Mobius, BatchedMatchesBatchOfOneBitwiseFloat) {
  for (const auto v : {DslashVariant::kScalar, DslashVariant::kVector,
                       DslashVariant::kVectorBlocked})
    for (const auto f : {GaugeFormat::kFull18, GaugeFormat::kRecon12})
      check_batch_of_one<float>(v, f);
}

}  // namespace
}  // namespace femto
