#include "lattice/blas.hpp"

#include <gtest/gtest.h>

#include "lattice/flops.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

class BlasTest : public ::testing::Test {
 protected:
  BlasTest()
      : g(geom44()),
        x(g, 4, Subset::Odd),
        y(g, 4, Subset::Odd),
        z(g, 4, Subset::Odd) {
    x.gaussian(1);
    y.gaussian(2);
  }
  std::shared_ptr<const Geometry> g;
  SpinorField<double> x, y, z;
};

TEST_F(BlasTest, Norm2MatchesSerial) {
  double expect = 0;
  for (std::int64_t k = 0; k < x.reals(); ++k)
    expect += x.data()[k] * x.data()[k];
  EXPECT_NEAR(blas::norm2(x), expect, 1e-9 * expect);
}

TEST_F(BlasTest, AxpyMatchesSerial) {
  z = y;
  blas::axpy(0.75, x, z);
  for (std::int64_t k = 0; k < z.reals(); k += 29)
    EXPECT_DOUBLE_EQ(z.data()[k], y.data()[k] + 0.75 * x.data()[k]);
}

TEST_F(BlasTest, XpayMatchesSerial) {
  z = y;
  blas::xpay(x, -0.5, z);
  for (std::int64_t k = 0; k < z.reals(); k += 31)
    EXPECT_DOUBLE_EQ(z.data()[k], x.data()[k] - 0.5 * y.data()[k]);
}

TEST_F(BlasTest, AxpbyMatchesSerial) {
  z = y;
  blas::axpby(2.0, x, -1.0, z);
  for (std::int64_t k = 0; k < z.reals(); k += 37)
    EXPECT_DOUBLE_EQ(z.data()[k], 2.0 * x.data()[k] - y.data()[k]);
}

TEST_F(BlasTest, CdotHermitian) {
  const auto xy = blas::cdot(x, y);
  const auto yx = blas::cdot(y, x);
  EXPECT_NEAR(xy.re, yx.re, 1e-9);
  EXPECT_NEAR(xy.im, -yx.im, 1e-9);
  const auto xx = blas::cdot(x, x);
  EXPECT_NEAR(xx.im, 0.0, 1e-10);
  EXPECT_NEAR(xx.re, blas::norm2(x), 1e-9);
}

TEST_F(BlasTest, RedotIsRealPartOfCdot) {
  EXPECT_NEAR(blas::redot(x, y), blas::cdot(x, y).re, 1e-9);
}

TEST_F(BlasTest, ScalScalesNorm) {
  const double n0 = blas::norm2(x);
  blas::scal(2.0, x);
  EXPECT_NEAR(blas::norm2(x), 4.0 * n0, 1e-9 * n0);
}

TEST_F(BlasTest, CopyAcrossPrecision) {
  SpinorField<float> f(g, 4, Subset::Odd);
  blas::copy(f, x);
  SpinorField<double> back(g, 4, Subset::Odd);
  blas::copy(back, f);
  // float round trip: relative error at the float epsilon scale
  for (std::int64_t k = 0; k < x.reals(); k += 43)
    EXPECT_NEAR(back.data()[k], x.data()[k],
                2e-7 * std::abs(x.data()[k]) + 1e-30);
}

TEST_F(BlasTest, FlopCounterAdvances) {
  flops::reset();
  blas::axpy(1.0, x, y);
  EXPECT_EQ(flops::get(), 2 * x.reals());
  blas::norm2(x);
  EXPECT_EQ(flops::get(), 4 * x.reals());
}

TEST_F(BlasTest, ReductionsDeterministic) {
  const double a = blas::norm2(x);
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(blas::norm2(x), a);
}

// --- fused single-pass kernels ---------------------------------------------

TEST_F(BlasTest, AxpyNorm2MatchesUnfusedBitwise) {
  // Same per-element arithmetic and same chunk partition as the separate
  // axpy + norm2, so the fusion must be bitwise identical.
  z = y;
  blas::axpy(0.75, x, z);
  const double want = blas::norm2(z);
  SpinorField<double> w = y;
  const double got = blas::axpy_norm2(0.75, x, w);
  EXPECT_EQ(got, want);
  for (std::int64_t k = 0; k < w.reals(); k += 29)
    EXPECT_EQ(w.data()[k], z.data()[k]);
}

TEST_F(BlasTest, TripleCgUpdateMatchesUnfusedBitwise) {
  // Seed iteration body: x += alpha p; r -= alpha ap; rsq = norm2(r).
  SpinorField<double> p(g, 4, Subset::Odd), ap(g, 4, Subset::Odd);
  p.gaussian(7);
  ap.gaussian(8);
  const double alpha = 0.375;
  SpinorField<double> x1 = x, r1 = y;
  blas::axpy(alpha, p, x1);
  blas::axpy(-alpha, ap, r1);
  const double want = blas::norm2(r1);
  SpinorField<double> x2 = x, r2 = y;
  const double got = blas::triple_cg_update(alpha, p, ap, x2, r2);
  EXPECT_EQ(got, want);
  for (std::int64_t k = 0; k < r2.reals(); k += 37) {
    EXPECT_EQ(x2.data()[k], x1.data()[k]);
    EXPECT_EQ(r2.data()[k], r1.data()[k]);
  }
}

TEST_F(BlasTest, AxpyZpbxMatchesUnfusedBitwise) {
  // Seed: x += alpha p (axpy), then p = z + beta p (xpay).
  SpinorField<double> zz(g, 4, Subset::Odd);
  zz.gaussian(9);
  const double alpha = 0.25, beta = 0.6;
  SpinorField<double> x1 = x, p1 = y;
  blas::axpy(alpha, p1, x1);
  blas::xpay(zz, beta, p1);
  SpinorField<double> x2 = x, p2 = y;
  blas::axpy_zpbx(alpha, p2, x2, zz, beta);
  for (std::int64_t k = 0; k < p2.reals(); k += 29) {
    EXPECT_EQ(x2.data()[k], x1.data()[k]);
    EXPECT_EQ(p2.data()[k], p1.data()[k]);
  }
}

TEST_F(BlasTest, FusedReductionsBitIdenticalAcrossRuns) {
  SpinorField<double> p(g, 4, Subset::Odd), ap(g, 4, Subset::Odd);
  p.gaussian(7);
  ap.gaussian(8);
  double first_axpy = 0.0, first_triple = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    SpinorField<double> w = y, x2 = x, r2 = y;
    const double a = blas::axpy_norm2(0.75, x, w);
    const double t = blas::triple_cg_update(0.375, p, ap, x2, r2);
    if (rep == 0) {
      first_axpy = a;
      first_triple = t;
    } else {
      EXPECT_EQ(a, first_axpy);
      EXPECT_EQ(t, first_triple);
    }
  }
}

TEST_F(BlasTest, ByteCounterModelsTraffic) {
  const std::int64_t n = x.reals();
  const auto e = static_cast<std::int64_t>(sizeof(double));
  flops::reset();
  blas::axpy(1.0, x, y);
  EXPECT_EQ(flops::bytes(), 3 * n * e);  // read x, read+write y
  flops::reset();
  blas::norm2(x);
  EXPECT_EQ(flops::bytes(), n * e);  // read x
  flops::reset();
  blas::axpy_norm2(1.0, x, y);
  EXPECT_EQ(flops::bytes(), 3 * n * e);  // fused: no extra pass for the norm
  flops::reset();
  SpinorField<double> p(g, 4, Subset::Odd), ap(g, 4, Subset::Odd);
  p.gaussian(7);
  ap.gaussian(8);
  blas::triple_cg_update(0.5, p, ap, x, y);
  EXPECT_EQ(flops::bytes(), 6 * n * e);  // read p, ap; read+write x, r
}

TEST_F(BlasTest, FusedIterationMovesFewerBytes) {
  // The CG iteration body beyond the matvec: seed's 5-kernel sequence vs
  // the fused 3-kernel sequence, same arithmetic.
  SpinorField<double> p(g, 4, Subset::Odd), ap(g, 4, Subset::Odd);
  p.gaussian(7);
  ap.gaussian(8);
  flops::reset();
  blas::redot(p, ap);
  blas::axpy(0.5, p, x);
  blas::axpy(-0.5, ap, y);
  blas::norm2(y);
  blas::xpay(y, 0.25, p);
  const std::int64_t unfused = flops::bytes();
  flops::reset();
  blas::redot(p, ap);
  blas::axpy_norm2(-0.5, ap, y);
  blas::axpy_zpbx(0.5, p, x, y, 0.25);
  const std::int64_t fused = flops::bytes();
  EXPECT_LT(fused, unfused);
  // 10 field-passes instead of 12.
  EXPECT_EQ(fused * 12, unfused * 10);
}

}  // namespace
}  // namespace femto
