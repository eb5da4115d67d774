#include "dirac/fifth_dim.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

TEST(Lambda, StructureAndBoundary) {
  const double mf = 0.1;
  const auto lp = lambda_plus(6, mf);
  EXPECT_EQ(lp(3, 2), 1.0);
  EXPECT_EQ(lp(0, 5), -mf);
  EXPECT_EQ(lp(0, 0), 0.0);
  const auto lm = lambda_minus(6, mf);
  EXPECT_EQ(lm(2, 3), 1.0);
  EXPECT_EQ(lm(5, 0), -mf);
  // Lambda- is the transpose of Lambda+ (same mf).
  const auto lpt = lp.transpose();
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j) EXPECT_EQ(lpt(i, j), lm(i, j));
}

TEST(FifthDim, IdentityOpIsIdentity) {
  auto g = geom44();
  const int l5 = 6;
  SpinorField<double> in(g, l5, Subset::Odd), out(g, l5, Subset::Odd);
  in.gaussian(41);
  FifthDimOp id{SMat::identity(l5), SMat::identity(l5)};
  id.apply<double>(view(out), cview(in));
  for (std::int64_t k = 0; k < in.reals(); ++k)
    EXPECT_EQ(out.data()[k], in.data()[k]);
}

TEST(FifthDim, ShiftMovesSlicesChirally) {
  // Lambda with mf = 0 moves the P+ components down one slice and the P-
  // components up one slice.
  auto g = geom44();
  const int l5 = 4;
  SpinorField<double> in(g, l5, Subset::Even), out(g, l5, Subset::Even);
  in.gaussian(42);
  FifthDimOp lam{lambda_plus(l5, 0.0), lambda_minus(l5, 0.0)};
  lam.apply<double>(view(out), cview(in));
  for (std::int64_t i = 0; i < in.sites(); i += 7) {
    for (int s = 1; s < l5; ++s) {
      const auto o = out.load(s, i);
      const auto prev = in.load(s - 1, i);
      for (int c = 0; c < kNc; ++c) {
        EXPECT_EQ(o[0][c].re, prev[0][c].re);  // P+ pair from s-1
        EXPECT_EQ(o[1][c].im, prev[1][c].im);
      }
    }
    for (int s = 0; s < l5 - 1; ++s) {
      const auto o = out.load(s, i);
      const auto next = in.load(s + 1, i);
      for (int c = 0; c < kNc; ++c) {
        EXPECT_EQ(o[2][c].re, next[2][c].re);  // P- pair from s+1
        EXPECT_EQ(o[3][c].im, next[3][c].im);
      }
    }
    // Chiral boundaries vanish at mf = 0.
    const auto o0 = out.load(0, i);
    const auto oL = out.load(l5 - 1, i);
    for (int c = 0; c < kNc; ++c) {
      EXPECT_EQ(o0[0][c].re, 0.0);
      EXPECT_EQ(oL[2][c].re, 0.0);
    }
  }
}

TEST(FifthDim, MassBoundaryCouples) {
  auto g = geom44();
  const int l5 = 4;
  const double mf = 0.25;
  SpinorField<double> in(g, l5, Subset::Even), out(g, l5, Subset::Even);
  in.gaussian(43);
  FifthDimOp lam{lambda_plus(l5, mf), lambda_minus(l5, mf)};
  lam.apply<double>(view(out), cview(in));
  const auto o0 = out.load(0, 5);
  const auto last = in.load(l5 - 1, 5);
  for (int c = 0; c < kNc; ++c)
    EXPECT_DOUBLE_EQ(o0[0][c].re, -mf * last[0][c].re);
}

TEST(FifthDim, CompositionMatchesMatrixProduct) {
  auto g = geom44();
  const int l5 = 6;
  SpinorField<double> in(g, l5, Subset::Odd), mid(g, l5, Subset::Odd),
      out1(g, l5, Subset::Odd), out2(g, l5, Subset::Odd);
  in.gaussian(44);
  FifthDimOp a{lambda_plus(l5, 0.3), lambda_minus(l5, 0.3)};
  SMat bp = SMat::identity(l5).scaled(2.0) + lambda_plus(l5, 0.1);
  SMat bm = SMat::identity(l5).scaled(2.0) + lambda_minus(l5, 0.1);
  FifthDimOp b{bp, bm};
  // Apply a then b...
  a.apply<double>(view(mid), cview(in));
  b.apply<double>(view(out1), cview(mid));
  // ...must equal applying (b*a).
  const FifthDimOp ba = b * a;
  ba.apply<double>(view(out2), cview(in));
  for (std::int64_t k = 0; k < out1.reals(); ++k)
    EXPECT_NEAR(out1.data()[k], out2.data()[k], 1e-12);
}

TEST(FifthDim, InverseUndoesApply) {
  auto g = geom44();
  const int l5 = 8;
  SpinorField<double> in(g, l5, Subset::Odd), mid(g, l5, Subset::Odd),
      back(g, l5, Subset::Odd);
  in.gaussian(45);
  // A well-conditioned operator (Mobius C-like).
  SMat cp = SMat::identity(l5).scaled(4.3) + lambda_plus(l5, 0.05).scaled(-0.9);
  SMat cm =
      SMat::identity(l5).scaled(4.3) + lambda_minus(l5, 0.05).scaled(-0.9);
  FifthDimOp c{cp, cm};
  c.apply<double>(view(mid), cview(in));
  c.inverse().apply<double>(view(back), cview(mid));
  for (std::int64_t k = 0; k < in.reals(); ++k)
    EXPECT_NEAR(back.data()[k], in.data()[k], 1e-10);
}

TEST(FifthDim, TransposeIsAdjointForRealBlocks) {
  // <u, A v> = <A^T u, v> for real per-chirality blocks.
  auto g = geom44();
  const int l5 = 6;
  SpinorField<double> u(g, l5, Subset::Odd), v(g, l5, Subset::Odd),
      av(g, l5, Subset::Odd), atu(g, l5, Subset::Odd);
  u.gaussian(46);
  v.gaussian(47);
  FifthDimOp a{lambda_plus(l5, 0.2).scaled(1.7) + SMat::identity(l5),
               lambda_minus(l5, 0.2).scaled(1.7) + SMat::identity(l5)};
  a.apply<double>(view(av), cview(v));
  a.transpose().apply<double>(view(atu), cview(u));
  double lhs = 0, rhs = 0;
  for (std::int64_t k = 0; k < u.reals(); ++k) {
    lhs += u.data()[k] * av.data()[k];
    rhs += atu.data()[k] * v.data()[k];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::abs(lhs));
}

TEST(FifthDim, FloatApplyTracksDouble) {
  auto g = geom44();
  const int l5 = 4;
  SpinorField<double> in(g, l5, Subset::Odd), out(g, l5, Subset::Odd);
  SpinorField<float> inf(g, l5, Subset::Odd), outf(g, l5, Subset::Odd);
  in.gaussian(48);
  for (std::int64_t k = 0; k < in.reals(); ++k)
    inf.data()[k] = static_cast<float>(in.data()[k]);
  FifthDimOp a{lambda_plus(l5, 0.1) + SMat::identity(l5).scaled(3.0),
               lambda_minus(l5, 0.1) + SMat::identity(l5).scaled(3.0)};
  a.apply<double>(view(out), cview(in));
  a.apply<float>(view(outf), cview(inf));
  for (std::int64_t k = 0; k < in.reals(); k += 11)
    EXPECT_NEAR(outf.data()[k], out.data()[k],
                1e-5 * (std::abs(out.data()[k]) + 1.0));
}

// The batched matvec (one launch per Schur stage) gives each RHS the bits
// of its own apply(): every (site, RHS) runs the same arithmetic whatever
// the chunking and batch.
template <typename T>
void check_batched_apply_bits() {
  auto g = geom44();
  const int l5 = 4;
  constexpr std::size_t kB = 3;
  const FifthDimOp a{lambda_plus(l5, 0.1) + SMat::identity(l5).scaled(3.0),
                     lambda_minus(l5, 0.1) + SMat::identity(l5).scaled(3.0)};
  std::vector<SpinorField<T>> in, got, want;
  for (std::size_t r = 0; r < kB; ++r) {
    in.emplace_back(g, l5, Subset::Odd);
    got.emplace_back(g, l5, Subset::Odd);
    want.emplace_back(g, l5, Subset::Odd);
    in.back().gaussian(60 + r);
  }
  std::vector<SpinorView<T>> outs;
  std::vector<SpinorView<const T>> ins;
  for (std::size_t r = 0; r < kB; ++r) {
    outs.push_back(view(got[r]));
    ins.push_back(cview(in[r]));
    a.apply<T>(view(want[r]), cview(in[r]));
  }
  a.apply_multi<T>(outs, ins);
  for (std::size_t r = 0; r < kB; ++r)
    for (std::int64_t k = 0; k < in[r].reals(); ++k)
      ASSERT_EQ(got[r].data()[k], want[r].data()[k])
          << "r=" << r << " k=" << k;
}

TEST(FifthDim, BatchedApplyMatchesBatchOfOneBitwiseDouble) {
  check_batched_apply_bits<double>();
}

TEST(FifthDim, BatchedApplyMatchesBatchOfOneBitwiseFloat) {
  check_batched_apply_bits<float>();
}

}  // namespace
}  // namespace femto
