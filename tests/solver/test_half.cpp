#include "solver/half.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/flops.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

TEST(HalfStorage, RoundTripErrorBounded) {
  auto g = geom44();
  SpinorField<float> f(g, 4, Subset::Odd), back(g, 4, Subset::Odd);
  f.gaussian(101);
  HalfSpinorField h(g, 4, Subset::Odd);
  h.encode(f);
  h.decode(back);
  // Fixed point with per-block max-norm scale: error per component is at
  // most scale / 2 / 32767.
  for (std::int64_t b = 0; b < h.blocks(); ++b) {
    float amax = 0;
    for (int k = 0; k < kSpinorReals; ++k)
      amax = std::max(amax, std::fabs(f.data()[b * kSpinorReals + k]));
    for (int k = 0; k < kSpinorReals; ++k) {
      const float err = std::fabs(back.data()[b * kSpinorReals + k] -
                                  f.data()[b * kSpinorReals + k]);
      EXPECT_LE(err, amax / 32767.0f * 0.51f);
    }
  }
}

TEST(HalfStorage, MaxComponentIsExact) {
  auto g = geom44();
  SpinorField<float> f(g, 1, Subset::Even), back(g, 1, Subset::Even);
  f.gaussian(102);
  HalfSpinorField h(g, 1, Subset::Even);
  h.encode(f);
  h.decode(back);
  // The per-block max maps to +-32767 exactly, so it round-trips to within
  // one part in 32767 of itself.
  for (std::int64_t b = 0; b < h.blocks(); ++b) {
    int arg = 0;
    float amax = 0;
    for (int k = 0; k < kSpinorReals; ++k) {
      const float a = std::fabs(f.data()[b * kSpinorReals + k]);
      if (a > amax) {
        amax = a;
        arg = k;
      }
    }
    EXPECT_NEAR(back.data()[b * kSpinorReals + arg],
                f.data()[b * kSpinorReals + arg], amax * 1e-4f);
  }
}

TEST(HalfStorage, ZeroBlockStaysZero) {
  auto g = geom44();
  SpinorField<float> f(g, 1, Subset::Even), back(g, 1, Subset::Even);
  f.zero();
  HalfSpinorField h(g, 1, Subset::Even);
  h.encode(f);
  h.decode(back);
  for (std::int64_t k = 0; k < f.reals(); ++k)
    EXPECT_EQ(back.data()[k], 0.0f);
}

TEST(HalfStorage, ScaleAdaptsPerBlock) {
  // A field with wildly different magnitudes per site must preserve
  // RELATIVE precision per site (per-site scales, not a global scale).
  auto g = geom44();
  SpinorField<float> f(g, 1, Subset::Even), back(g, 1, Subset::Even);
  for (std::int64_t b = 0; b < f.sites(); ++b) {
    const float mag = std::pow(10.0f, static_cast<float>(b % 9) - 4.0f);
    for (int k = 0; k < kSpinorReals; ++k)
      f.data()[b * kSpinorReals + k] =
          mag * (0.5f + 0.4f * static_cast<float>(k) / kSpinorReals);
  }
  HalfSpinorField h(g, 1, Subset::Even);
  h.encode(f);
  h.decode(back);
  for (std::int64_t k = 0; k < f.reals(); ++k) {
    const float rel =
        std::fabs(back.data()[k] - f.data()[k]) / std::fabs(f.data()[k]);
    EXPECT_LT(rel, 1e-4f);
  }
}

TEST(HalfStorage, BytesAreHalfOfFloat) {
  auto g = geom44();
  SpinorField<float> f(g, 8, Subset::Odd);
  HalfSpinorField h(g, 8, Subset::Odd);
  // 2 bytes per component + 4-byte norm per 24-component block.
  EXPECT_LT(h.bytes(), f.bytes() * 6 / 10);
}

// --- fused round-trips ------------------------------------------------------

TEST(HalfStorage, RoundtripNorm2MatchesEncodeDecode) {
  auto g = geom44();
  SpinorField<float> f(g, 4, Subset::Odd), want(g, 4, Subset::Odd);
  f.gaussian(103);
  want = f;
  HalfSpinorField h(g, 4, Subset::Odd);
  h.encode(want);
  h.decode(want);
  double want_n2 = 0;
  for (std::int64_t k = 0; k < want.reals(); ++k)
    want_n2 += static_cast<double>(want.data()[k]) *
               static_cast<double>(want.data()[k]);

  HalfSpinorField h2(g, 4, Subset::Odd);
  const double got_n2 = h2.roundtrip_norm2(f);
  for (std::int64_t k = 0; k < f.reals(); ++k)
    ASSERT_EQ(f.data()[k], want.data()[k]) << "k=" << k;
  EXPECT_NEAR(got_n2, want_n2, 1e-10 * want_n2);
}

TEST(HalfStorage, AxpyRoundtripMatchesUnfusedSequence) {
  auto g = geom44();
  SpinorField<float> x(g, 2, Subset::Odd), y1(g, 2, Subset::Odd);
  x.gaussian(104);
  y1.gaussian(105);
  SpinorField<float> y2 = y1;

  // Seed sequence: axpy then a full encode/decode quantise.
  const float a = 0.375f;
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    y1.data()[k] += a * x.data()[k];
  HalfSpinorField h1(g, 2, Subset::Odd);
  h1.encode(y1);
  h1.decode(y1);

  HalfSpinorField h2(g, 2, Subset::Odd);
  h2.axpy_roundtrip(0.375, x, y2);
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    ASSERT_EQ(y2.data()[k], y1.data()[k]) << "k=" << k;

  // And the norm-fused variant returns the quantised norm.
  SpinorField<float> y3(g, 2, Subset::Odd);
  y3.gaussian(105);
  HalfSpinorField h3(g, 2, Subset::Odd);
  const double n2 = h3.axpy_roundtrip_norm2(0.375, x, y3);
  double want = 0;
  for (std::int64_t k = 0; k < y3.reals(); ++k)
    want += static_cast<double>(y3.data()[k]) *
            static_cast<double>(y3.data()[k]);
  EXPECT_NEAR(n2, want, 1e-10 * want);
}

TEST(HalfStorage, XpayRoundtripMatchesUnfusedSequence) {
  auto g = geom44();
  SpinorField<float> x(g, 2, Subset::Odd), y1(g, 2, Subset::Odd);
  x.gaussian(106);
  y1.gaussian(107);
  SpinorField<float> y2 = y1;

  const float b = -0.625f;
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    y1.data()[k] = x.data()[k] + b * y1.data()[k];
  HalfSpinorField h1(g, 2, Subset::Odd);
  h1.encode(y1);
  h1.decode(y1);

  HalfSpinorField h2(g, 2, Subset::Odd);
  h2.xpay_roundtrip(x, -0.625, y2);
  for (std::int64_t k = 0; k < y1.reals(); ++k)
    ASSERT_EQ(y2.data()[k], y1.data()[k]) << "k=" << k;
}

TEST(HalfStorage, FusedRoundtripChargesFewerBytes) {
  auto g = geom44();
  SpinorField<float> x(g, 4, Subset::Odd), y(g, 4, Subset::Odd);
  x.gaussian(108);
  y.gaussian(109);
  HalfSpinorField h(g, 4, Subset::Odd);
  flops::reset();
  // Seed: 3-pass axpy + 4-sweep quantise.
  blas::axpy<float>(0.5, x, y);
  h.encode(y);
  h.decode(y);
  const std::int64_t unfused = flops::bytes();
  flops::reset();
  h.axpy_roundtrip(0.5, x, y);
  const std::int64_t fused = flops::bytes();
  EXPECT_LT(fused, unfused);
}

// The norm kernels' result as the fused in-place kernels computed it,
// written out: per block, a std::lrintf quantise of the 24 floats, their
// int16 dequantise and the block's lane-striped ||.||^2; per partial of a
// parallel_reduce_n at kHalfGrain (min(64, ceil(n / kHalfGrain))
// partials, the first n % partials one block longer), the block norms
// summed in block order; the partials summed in partial order.
double reference_roundtrip_norm2(std::vector<float>& f) {
  const std::size_t grain = HalfSpinorField::kHalfGrain;
  const std::size_t n = f.size() / kSpinorReals;
  std::vector<double> norm(n);
  for (std::size_t b = 0; b < n; ++b) {
    float* v = f.data() + b * kSpinorReals;
    float amax = 0.0f;
    for (int k = 0; k < kSpinorReals; ++k)
      amax = std::max(amax, std::fabs(v[k]));
    const float scale = amax > 0.0f ? amax : 1.0f;
    const float inv = 32767.0f / scale;
    const float s = scale / 32767.0f;
    for (int k = 0; k < kSpinorReals; ++k) {
      const auto q = static_cast<std::int16_t>(std::lrintf(v[k] * inv));
      v[k] = static_cast<float>(q) * s;
    }
    norm[b] = blas::detail::norm2_chunk<simd::kWidth<float>>(v, 0,
                                                             kSpinorReals);
  }
  const std::size_t parts = std::max<std::size_t>(
      1, std::min<std::size_t>(64, (n + grain - 1) / grain));
  double n2 = 0.0;
  for (std::size_t c = 0; c < parts; ++c) {
    const std::size_t lo = c * (n / parts) + std::min(c, n % parts);
    const std::size_t hi = lo + n / parts + (c < n % parts ? 1 : 0);
    double partial = 0.0;
    for (std::size_t b = lo; b < hi; ++b) partial += norm[b];
    n2 += partial;
  }
  return n2;
}

void expect_same_bits(const SpinorField<float>& got,
                      const std::vector<float>& want, double got_n2,
                      double want_n2, const std::string& what) {
  ASSERT_EQ(static_cast<std::size_t>(got.reals()), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << what << ": field bits";
  std::uint64_t gb, wb;
  std::memcpy(&gb, &got_n2, sizeof gb);
  std::memcpy(&wb, &want_n2, sizeof wb);
  EXPECT_EQ(gb, wb) << what << ": norm " << got_n2 << " vs " << want_n2;
}

TEST(HalfStorage, NormsKeepTheirReductionTree) {
  // l5 = 4 is one partial of the kHalfGrain tree, l5 = 6 and 8 two.
  auto g = geom44();
  for (const int l5 : {4, 6, 8}) {
    const std::string what = "l5=" + std::to_string(l5);
    SpinorField<float> f(g, l5, Subset::Odd), x(g, l5, Subset::Odd);
    f.gaussian(110 + l5);
    x.gaussian(120 + l5);
    std::vector<float> want(f.data(), f.data() + f.reals());
    const double want_n2 = reference_roundtrip_norm2(want);
    HalfSpinorField h(g, l5, Subset::Odd);
    const double n2 = h.roundtrip_norm2(f);
    expect_same_bits(f, want, n2, want_n2, "roundtrip_norm2 " + what);

    const float a = -0.375f;
    for (std::int64_t k = 0; k < f.reals(); ++k)
      want[static_cast<std::size_t>(k)] += a * x.data()[k];
    const double want_axpy_n2 = reference_roundtrip_norm2(want);
    const double axpy_n2 = h.axpy_roundtrip_norm2(-0.375, x, f);
    expect_same_bits(f, want, axpy_n2, want_axpy_n2,
                     "axpy_roundtrip_norm2 " + what);
  }
}

TEST(HalfStorage, TinyBlockStoresZerosAndNanStaysNan) {
  // Block 0's max (~1e-36) is below 32767 / FLT_MAX, so its inverse scale
  // overflows: it round-trips to +0 (std::lrintf's int16 0 on x86-64), not
  // to inf or NaN.  Block 1 holds a NaN, which the float field keeps.
  auto g = geom44();
  SpinorField<float> f(g, 1, Subset::Even);
  f.gaussian(132);
  for (int k = 0; k < kSpinorReals; ++k) f.data()[k] *= 1e-36f;
  f.data()[kSpinorReals + 3] = std::numeric_limits<float>::quiet_NaN();
  HalfSpinorField h(g, 1, Subset::Even);
  const double n2 = h.roundtrip_norm2(f);
  for (int k = 0; k < kSpinorReals; ++k) {
    EXPECT_EQ(f.data()[k], 0.0f) << "k=" << k;
    EXPECT_FALSE(std::signbit(f.data()[k])) << "k=" << k;
  }
  EXPECT_TRUE(std::isnan(f.data()[kSpinorReals + 3]));
  EXPECT_TRUE(std::isnan(n2));
}

TEST(HalfStorage, KernelsLaunchOnThePoolAt44) {
  // A 4^4, l5 = 4 parity is 512 blocks: with two or more pool threads
  // every kernel splits it into chunks on the pool; with one it runs
  // inline.
  auto g = geom44();
  SpinorField<float> x(g, 4, Subset::Odd), y(g, 4, Subset::Odd);
  x.gaussian(130);
  y.gaussian(131);
  HalfSpinorField h(g, 4, Subset::Odd);
  const bool pooled = par::ThreadPool::global().size() >= 2;
  const auto check = [&](const char* name, const std::function<void()>& run) {
    const std::int64_t before = obs::counter("pool.launches").get();
    run();
    const std::int64_t launched = obs::counter("pool.launches").get() - before;
    if (pooled)
      EXPECT_GT(launched, 0) << name;
    else
      EXPECT_EQ(launched, 0) << name;
  };
  check("roundtrip_norm2", [&] { h.roundtrip_norm2(y); });
  check("axpy_roundtrip", [&] { h.axpy_roundtrip(0.5, x, y); });
  check("axpy_roundtrip_norm2", [&] { h.axpy_roundtrip_norm2(-0.5, x, y); });
  check("xpay_roundtrip", [&] { h.xpay_roundtrip(x, 0.25, y); });
  check("encode", [&] { h.encode(y); });
  check("decode", [&] { h.decode(y); });
}

}  // namespace
}  // namespace femto
