// Cross-width consistency for the vectorized BLAS kernels.
//
// The W template parameter on every lattice/blas.hpp kernel exists so a
// scalar instantiation (W = 1, what FEMTO_SIMD=OFF builds run) can be
// compared against the build's native width and a double-wide width in one
// binary.  The contracts split in two:
//
//   * elementwise kernels (axpy, xpay, axpby, scal): identical IEEE
//     operations per element at every width, no reassociation anywhere, so
//     results must be BITWISE identical across widths (the target has no
//     FMA contraction in either path);
//   * reductions (norm2, redot, cdot, the fused *_norm2 kernels): the
//     lane-striped accumulation reassociates the sum, so widths agree only
//     to rounding — but each width must stay bitwise reproducible
//     run-to-run (covered by RepeatStability below).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/field.hpp"

namespace femto::blas {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

std::shared_ptr<const Geometry> geom() {
  return std::make_shared<Geometry>(4, 4, 4, 6);
}

constexpr int kL5 = 5;  // odd so vector widths see ragged tails

template <typename T>
SpinorField<T> make_field(std::uint64_t seed) {
  SpinorField<T> f(geom(), kL5, Subset::Even);
  f.gaussian(seed);
  return f;
}

template <typename T>
void expect_fields_equal(const SpinorField<T>& a, const SpinorField<T>& b,
                         const char* what) {
  for (std::int64_t k = 0; k < a.reals(); ++k)
    ASSERT_EQ(a.data()[k], b.data()[k]) << what << " k=" << k;
}

using Widths = ::testing::Types<float, double>;

template <typename T>
class BlasCrossWidth : public ::testing::Test {};
TYPED_TEST_SUITE(BlasCrossWidth, Widths);

TYPED_TEST(BlasCrossWidth, ElementwiseKernelsBitwiseAcrossWidths) {
  using T = TypeParam;
  constexpr int kNative = simd::kWidth<T>;
  const auto x = make_field<T>(11);
  auto y1 = make_field<T>(22);
  auto yn = y1;
  auto yw = y1;

  axpy<T, 1>(0.375, x, y1);
  axpy<T, kNative>(0.375, x, yn);
  axpy<T, 2 * kNative>(0.375, x, yw);
  expect_fields_equal(y1, yn, "axpy native");
  expect_fields_equal(y1, yw, "axpy wide");

  xpay<T, 1>(x, -1.25, y1);
  xpay<T, kNative>(x, -1.25, yn);
  expect_fields_equal(y1, yn, "xpay");

  axpby<T, 1>(1.5, x, -0.5, y1);
  axpby<T, kNative>(1.5, x, -0.5, yn);
  expect_fields_equal(y1, yn, "axpby");

  scal<T, 1>(0.8125, y1);
  scal<T, kNative>(0.8125, yn);
  expect_fields_equal(y1, yn, "scal");
}

TYPED_TEST(BlasCrossWidth, ComplexKernelsAgreeAcrossWidths) {
  // cdot, the complex-pair reduction: the vector form pairs each lane with
  // its partner via swap_pairs and an alternating sign, so it agrees with
  // the scalar per-pair form to rounding.
  using T = TypeParam;
  constexpr int kNative = simd::kWidth<T>;
  const auto x = make_field<T>(33);
  const auto y = make_field<T>(44);

  const Cplx<double> c1 = cdot<T, 1>(x, y);
  const Cplx<double> cn = cdot<T, kNative>(x, y);
  EXPECT_NEAR(cn.re, c1.re, 1e-10 * (1.0 + std::fabs(c1.re)));
  EXPECT_NEAR(cn.im, c1.im, 1e-10 * (1.0 + std::fabs(c1.im)));
}

TYPED_TEST(BlasCrossWidth, ReductionsAgreeToRoundingAcrossWidths) {
  using T = TypeParam;
  constexpr int kNative = simd::kWidth<T>;
  const auto x = make_field<T>(55);
  const auto y = make_field<T>(66);

  const double n1 = norm2<T, 1>(x);
  const double nn = norm2<T, kNative>(x);
  const double nw = norm2<T, 2 * kNative>(x);
  EXPECT_NEAR(nn / n1, 1.0, 1e-12);
  EXPECT_NEAR(nw / n1, 1.0, 1e-12);

  const double r1 = redot<T, 1>(x, y);
  const double rn = redot<T, kNative>(x, y);
  EXPECT_NEAR(rn, r1, 1e-10 * (1.0 + std::fabs(r1)));
}

TYPED_TEST(BlasCrossWidth, FusedKernelsMatchUnfusedAtEveryWidth) {
  // The fused == unfused bitwise contract of tests/lattice/test_blas.cpp
  // holds at the NATIVE width (both sides share one chunk body); check it
  // survives explicit instantiation at other widths too.
  using T = TypeParam;
  constexpr int kNative = simd::kWidth<T>;
  const auto x = make_field<T>(77);

  auto y_fused = make_field<T>(88);
  auto y_plain = y_fused;
  const double nf = axpy_norm2<T, kNative>(0.5, x, y_fused);
  axpy<T, kNative>(0.5, x, y_plain);
  const double np = norm2<T, kNative>(y_plain);
  expect_fields_equal(y_fused, y_plain, "axpy_norm2 field");
  EXPECT_EQ(bits(nf), bits(np));

  auto z_fused = make_field<T>(99);
  auto z_plain = z_fused;
  const double mf = axpy_norm2<T, 1>(0.5, x, z_fused);
  axpy<T, 1>(0.5, x, z_plain);
  const double mp = norm2<T, 1>(z_plain);
  expect_fields_equal(z_fused, z_plain, "axpy_norm2 field W=1");
  EXPECT_EQ(bits(mf), bits(mp));
}

TYPED_TEST(BlasCrossWidth, RepeatStabilityPerWidth) {
  // For a fixed width and thread count, every kernel is bitwise
  // reproducible across repeated runs.
  using T = TypeParam;
  constexpr int kNative = simd::kWidth<T>;
  const auto p = make_field<T>(123);
  const auto ap = make_field<T>(321);
  const auto x0 = make_field<T>(456);
  const auto r0 = make_field<T>(654);

  std::uint64_t first_n = 0, first_t = 0;
  std::vector<std::uint64_t> first_r;
  for (int rep = 0; rep < 3; ++rep) {
    auto x = x0;
    auto r = r0;
    const double n = norm2<T, kNative>(r);
    const double t = triple_cg_update<T, kNative>(0.375, p, ap, x, r);
    if (rep == 0) {
      first_n = bits(n);
      first_t = bits(t);
      for (std::int64_t k = 0; k < r.reals(); ++k)
        first_r.push_back(bits(static_cast<double>(r.data()[k])));
    } else {
      EXPECT_EQ(bits(n), first_n) << "rep=" << rep;
      EXPECT_EQ(bits(t), first_t) << "rep=" << rep;
      for (std::int64_t k = 0; k < r.reals(); ++k)
        ASSERT_EQ(bits(static_cast<double>(r.data()[k])),
                  first_r[static_cast<std::size_t>(k)])
            << "rep=" << rep << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace femto::blas
