// Cross-width consistency for the 16-bit fixed-point storage.
//
// The encoder's guarantee: the max-abs scan uses only exact operations
// (max, negate) and the quantiser rounds with the same IEEE float
// operations at every width, so the per-block scale — and therefore the
// quantised int16 contents — are bitwise identical at every vector width.
// Only the norm reductions returned by the fused round-trip kernels may
// differ across widths, and then only to rounding.

#include "solver/half.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "lattice/blas.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

constexpr int kL5 = 3;

SpinorField<float> make_field(std::uint64_t seed) {
  SpinorField<float> f(geom(), kL5, Subset::Odd);
  f.gaussian(seed);
  return f;
}

std::uint32_t bits(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// HalfSpinorField::quantise(x, inv) against float(std::lrintf(x * inv)),
// bit for bit, at W = 1 and at the native width (lane j of a vector call
// sees x[i + j] and inv[i + j]).
void expect_quantise_matches_lrintf(const std::vector<float>& x,
                                    const std::vector<float>& inv,
                                    const char* what) {
  constexpr int W = simd::kWidth<float>;
  ASSERT_EQ(x.size(), inv.size());
  std::vector<float> xp = x, ip = inv;
  while (xp.size() % W != 0) {
    xp.push_back(0.0f);
    ip.push_back(1.0f);
  }
  std::vector<float> got_w(xp.size());
  for (std::size_t i = 0; i < xp.size(); i += W)
    HalfSpinorField::quantise(simd::Vec<float, W>::load(xp.data() + i),
                              simd::Vec<float, W>::load(ip.data() + i))
        .store(got_w.data() + i);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float y = x[i] * inv[i];
    const float want = static_cast<float>(std::lrintf(y));
    const float got_1 = HalfSpinorField::quantise(x[i], inv[i]);
    if (bits(got_1) != bits(want) || bits(got_w[i]) != bits(want)) {
      if (++bad <= 5)
        ADD_FAILURE() << what << ": x=" << x[i] << " inv=" << inv[i]
                      << " lrintf=" << want << " W=1:" << got_1
                      << " W=" << W << ":" << got_w[i];
    }
  }
  EXPECT_EQ(bad, 0u) << what << ": " << bad << " of " << x.size();
}

TEST(HalfSimd, QuantiseMatchesLrintf) {
  std::vector<float> x, inv;
  const auto add = [&](float v, float i) {
    x.push_back(v);
    inv.push_back(i);
  };
  // Every tie k +- 0.5 with |k| <= 32767: round half to even.
  for (int k = -32767; k <= 32767; ++k) {
    add(static_cast<float>(k) + 0.5f, 1.0f);
    add(static_cast<float>(k) - 0.5f, 1.0f);
  }
  expect_quantise_matches_lrintf(x, inv, "ties");

  // Signed zeros, the int16 extremes a block's max maps to, and
  // subnormals (all round to +0).
  x.clear();
  inv.clear();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  constexpr float kMin = std::numeric_limits<float>::min();
  for (const float v : {0.0f, 32767.0f, kDenorm, 7.0f * kDenorm,
                        kMin / 2.0f, kMin - kDenorm}) {
    add(v, 1.0f);
    add(-v, 1.0f);
  }
  expect_quantise_matches_lrintf(x, inv, "zeros, extremes, subnormals");

  // One ulp either side of a sample of ties.
  x.clear();
  inv.clear();
  for (int k = -32767; k <= 32767; k += 97) {
    const float t = static_cast<float>(k) + 0.5f;
    add(std::nextafter(t, -1e9f), 1.0f);
    add(std::nextafter(t, 1e9f), 1.0f);
  }
  expect_quantise_matches_lrintf(x, inv, "ties +- 1 ulp");

  // 2^20 values as the kernels see them: x within a block maximum amax,
  // inv = 32767 / amax.  The product is inexact here, so an FMA that
  // fused it with the rounding add would move ties.
  x.clear();
  inv.clear();
  std::mt19937 rng(20260521);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::uniform_real_distribution<float> expo(-30.0f, 30.0f);
  for (int n = 0; n < (1 << 20); ++n) {
    const float amax = std::exp2(expo(rng));
    add(unit(rng) * amax, 32767.0f / amax);
  }
  expect_quantise_matches_lrintf(x, inv, "random");
}

TEST(HalfSimd, QuantisedContentsBitwiseWidthIndependent) {
  auto f1 = make_field(5);
  auto fw = f1;
  HalfSpinorField h1(geom(), kL5, Subset::Odd);
  HalfSpinorField hw(geom(), kL5, Subset::Odd);

  // Drive the block encoder at W = 1 and at the native width through the
  // fused round-trip; the decoded fields must match bit for bit.
  const double n1 = h1.roundtrip_norm2<1>(f1);
  const double nw = hw.roundtrip_norm2<simd::kWidth<float>>(fw);
  for (std::int64_t k = 0; k < f1.reals(); ++k)
    ASSERT_EQ(f1.data()[k], fw.data()[k]) << "k=" << k;
  EXPECT_NEAR(nw / n1, 1.0, 1e-12);
}

TEST(HalfSimd, FusedUpdatesAgreeAcrossWidths) {
  const auto x = make_field(7);
  auto y1 = make_field(9);
  auto yw = y1;
  HalfSpinorField h1(geom(), kL5, Subset::Odd);
  HalfSpinorField hw(geom(), kL5, Subset::Odd);

  h1.axpy_roundtrip<1>(0.25, x, y1);
  hw.axpy_roundtrip<simd::kWidth<float>>(0.25, x, yw);
  // axpy is elementwise (bitwise width-independent) and the round-trip
  // quantisation is bitwise width-independent, so the composition is too.
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    ASSERT_EQ(y1.data()[k], yw.data()[k]) << "axpy k=" << k;

  h1.xpay_roundtrip<1>(x, -0.5, y1);
  hw.xpay_roundtrip<simd::kWidth<float>>(x, -0.5, yw);
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    ASSERT_EQ(y1.data()[k], yw.data()[k]) << "xpay k=" << k;
}

TEST(HalfSimd, RoundTripMatchesEncodeDecode) {
  // The fused one-pass round-trip must produce exactly what the two-pass
  // whole-field encode(); decode() produces.
  auto f = make_field(11);
  auto g2 = f;
  HalfSpinorField h(geom(), kL5, Subset::Odd);
  HalfSpinorField h2(geom(), kL5, Subset::Odd);

  h.roundtrip_norm2(f);
  h2.encode(g2);
  h2.decode(g2);
  for (std::int64_t k = 0; k < f.reals(); ++k)
    ASSERT_EQ(f.data()[k], g2.data()[k]) << "k=" << k;
}

}  // namespace
}  // namespace femto
