// Batch-of-one contract of the BLAS kernels with a batched form.  norm2,
// redot, xpay, axpby, axpy_norm2 and triple_cg_update are their *_multi
// kernels on a span of one, so a batch of three must give every member the
// bits of its own batch of one: the returned values and the updated
// fields, on a field of a few kGrain chunks and on one past the
// 64-partial cap of the reductions.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/field.hpp"

namespace femto::blas {
namespace {

constexpr std::size_t kB = 3;

/// A field shape: 4^4 at l5 = 4 is 12,288 reals on one parity (three
/// kGrain chunks); 8^4 at l5 = 8 is 393,216, above 64 x kGrain, so the
/// reductions run 64 partials of more than kGrain reals each.
struct Shape {
  int l, l5;
};
constexpr Shape kShapes[] = {{4, 4}, {8, 8}};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename T>
bool same_bits(const SpinorField<T>& a, const SpinorField<T>& b) {
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

/// kB Gaussian odd-parity fields, seeds @p seed .. @p seed + kB - 1.
template <typename T>
std::vector<SpinorField<T>> fields(const std::shared_ptr<const Geometry>& g,
                                   int l5, std::uint64_t seed) {
  std::vector<SpinorField<T>> v;
  for (std::size_t r = 0; r < kB; ++r) {
    v.emplace_back(g, l5, Subset::Odd);
    v.back().gaussian(seed + r);
  }
  return v;
}

template <typename T>
std::vector<SpinorField<T>*> ptrs(std::vector<SpinorField<T>>& v) {
  std::vector<SpinorField<T>*> p;
  for (auto& f : v) p.push_back(&f);
  return p;
}

template <typename T>
std::vector<const SpinorField<T>*> cptrs(const std::vector<SpinorField<T>>& v) {
  std::vector<const SpinorField<T>*> p;
  for (const auto& f : v) p.push_back(&f);
  return p;
}

template <typename T>
void expect_batch_of_one_bits() {
  const std::vector<double> a = {0.75, -1.25, 3e-3};
  for (const Shape sh : kShapes) {
    SCOPED_TRACE(testing::Message() << sh.l << "^4, l5 = " << sh.l5);
    const auto g = std::make_shared<Geometry>(sh.l, sh.l, sh.l, sh.l);
    const auto x = fields<T>(g, sh.l5, 10), y = fields<T>(g, sh.l5, 20),
               p = fields<T>(g, sh.l5, 30), ap = fields<T>(g, sh.l5, 40);
    std::vector<double> got(kB);

    norm2_multi<T>(cptrs(x), got);
    for (std::size_t r = 0; r < kB; ++r)
      EXPECT_TRUE(same_bits(got[r], norm2(x[r]))) << "norm2 r=" << r;

    redot_multi<T>(cptrs(x), cptrs(y), got);
    for (std::size_t r = 0; r < kB; ++r)
      EXPECT_TRUE(same_bits(got[r], redot(x[r], y[r])))
          << "redot r=" << r;

    auto yb = y, ys = y;
    xpay_multi<T>(cptrs(x), a, ptrs(yb));
    for (std::size_t r = 0; r < kB; ++r) {
      xpay(x[r], a[r], ys[r]);
      EXPECT_TRUE(same_bits(yb[r], ys[r])) << "xpay r=" << r;
    }

    yb = y;
    ys = y;
    axpby_multi<T>(a[0], cptrs(x), a[1], ptrs(yb));
    for (std::size_t r = 0; r < kB; ++r) {
      axpby(a[0], x[r], a[1], ys[r]);
      EXPECT_TRUE(same_bits(yb[r], ys[r])) << "axpby r=" << r;
    }

    yb = y;
    ys = y;
    axpy_norm2_multi<T>(a, cptrs(x), ptrs(yb), got);
    for (std::size_t r = 0; r < kB; ++r) {
      EXPECT_TRUE(same_bits(got[r], axpy_norm2(a[r], x[r], ys[r])))
          << "axpy_norm2 r=" << r;
      EXPECT_TRUE(same_bits(yb[r], ys[r])) << "axpy_norm2 y r=" << r;
    }

    auto xb = x, xs = x;
    yb = y;
    ys = y;
    triple_cg_update_multi<T>(a, cptrs(p), cptrs(ap), ptrs(xb), ptrs(yb),
                              got);
    for (std::size_t r = 0; r < kB; ++r) {
      EXPECT_TRUE(same_bits(
          got[r], triple_cg_update(a[r], p[r], ap[r], xs[r], ys[r])))
          << "triple_cg_update r=" << r;
      EXPECT_TRUE(same_bits(xb[r], xs[r])) << "triple_cg_update x r=" << r;
      EXPECT_TRUE(same_bits(yb[r], ys[r])) << "triple_cg_update r r=" << r;
    }
  }
}

TEST(BlasBatchOfOne, BatchOfThreeKeepsEachMembersBitsDouble) {
  expect_batch_of_one_bits<double>();
}

TEST(BlasBatchOfOne, BatchOfThreeKeepsEachMembersBitsFloat) {
  expect_batch_of_one_bits<float>();
}

}  // namespace
}  // namespace femto::blas
