// Dslash kernel-variant consistency: the scalar reference, the
// fifth-dim-vectorized kernel and the lane-blocked kernel are three
// implementations of one operator.  The vector variants do the same IEEE
// arithmetic per lane as the scalar path (broadcast links, no FMA on the
// baseline target, pack/unpack is pure data movement), so on this build
// they must agree BITWISE with the scalar kernel — including ragged
// l5 % W tails, both parities, and the dagger flag.  Repeat runs of one
// variant must also be bitwise stable.

#include "dirac/wilson.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "lattice/gauge.hpp"
#include "simd/vec.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

template <typename T>
void run_variant(SpinorField<T>& out, const GaugeField<T>& u,
                 const SpinorField<T>& in, bool dagger, DslashVariant v,
                 std::size_t grain) {
  DslashTuning tune;
  tune.grain = grain;
  tune.variant = v;
  for (int par = 0; par < 2; ++par)
    dslash<T>(parity_view(out, par), u, parity_view(in, 1 - par), par, dagger,
              tune);
}

template <typename T>
void check_variants_agree(int l5, bool dagger, std::size_t grain) {
  auto g = geom();
  GaugeField<double> ud(g);
  weak_gauge(ud, 91, 0.3);
  GaugeField<T> u = ud.template convert<T>();

  SpinorField<T> in(g, l5, Subset::Full);
  in.gaussian(17);
  SpinorField<T> ref(g, l5, Subset::Full), got(g, l5, Subset::Full);

  run_variant(ref, u, in, dagger, DslashVariant::kScalar, grain);
  for (DslashVariant v :
       {DslashVariant::kVector, DslashVariant::kVectorBlocked}) {
    run_variant(got, u, in, dagger, v, grain);
    for (std::int64_t k = 0; k < in.reals(); ++k)
      ASSERT_EQ(got.data()[k], ref.data()[k])
          << to_string(v) << " l5=" << l5 << " dagger=" << dagger
          << " k=" << k;
  }
}

TEST(WilsonSimd, VariantsAgreeBitwiseDouble) {
  // l5 = 8 fills W = 2 (double/SSE2) blocks evenly; l5 = 3 and 5 leave
  // ragged tails at every realistic width.
  for (int l5 : {3, 5, 8})
    for (bool dagger : {false, true})
      check_variants_agree<double>(l5, dagger, 16);
}

TEST(WilsonSimd, VariantsAgreeBitwiseFloat) {
  for (int l5 : {3, 8})
    for (bool dagger : {false, true})
      check_variants_agree<float>(l5, dagger, 16);
}

TEST(WilsonSimd, VariantsAgreeAcrossGrains) {
  // The launch grain partitions sites across workers; no variant may let
  // it leak into the arithmetic.
  auto g = geom();
  GaugeField<double> u(g);
  weak_gauge(u, 23, 0.25);
  const int l5 = 6;
  SpinorField<double> in(g, l5, Subset::Full);
  in.gaussian(29);
  SpinorField<double> ref(g, l5, Subset::Full), got(g, l5, Subset::Full);
  run_variant(ref, u, in, false, DslashVariant::kVector, 16);
  for (std::size_t grain : {std::size_t{1}, std::size_t{64},
                            std::size_t{4096}}) {
    run_variant(got, u, in, false, DslashVariant::kVector, grain);
    for (std::int64_t k = 0; k < in.reals(); ++k)
      ASSERT_EQ(got.data()[k], ref.data()[k]) << "grain=" << grain
                                              << " k=" << k;
  }
}

TEST(WilsonSimd, RepeatRunsBitwiseStable) {
  auto g = geom();
  GaugeField<double> u(g);
  weak_gauge(u, 37, 0.25);
  const int l5 = 5;
  SpinorField<double> in(g, l5, Subset::Full);
  in.gaussian(41);
  SpinorField<double> out(g, l5, Subset::Full);

  for (DslashVariant v : {DslashVariant::kScalar, DslashVariant::kVector,
                          DslashVariant::kVectorBlocked}) {
    std::vector<std::uint64_t> first;
    for (int rep = 0; rep < 3; ++rep) {
      run_variant(out, u, in, false, v, 64);
      if (rep == 0) {
        first.reserve(static_cast<std::size_t>(in.reals()));
        for (std::int64_t k = 0; k < in.reals(); ++k) {
          std::uint64_t b = 0;
          std::memcpy(&b, out.data() + k, sizeof(b));
          first.push_back(b);
        }
      } else {
        for (std::int64_t k = 0; k < in.reals(); ++k) {
          std::uint64_t b = 0;
          std::memcpy(&b, out.data() + k, sizeof(b));
          ASSERT_EQ(b, first[static_cast<std::size_t>(k)])
              << to_string(v) << " rep=" << rep << " k=" << k;
        }
      }
    }
  }
}

TEST(WilsonSimd, UntunedDefaultIsLaneBlockedWithScalarBits) {
  // Callers that never autotune (run_workflow, a DwfSolver without
  // autotune_multi()) run DslashTuning{}: the lane-blocked body wherever the
  // build has lanes, and the scalar reference's bits either way.
  const DslashTuning def;
  EXPECT_EQ(def.variant, simd::compiled_with_simd()
                             ? DslashVariant::kVectorBlocked
                             : DslashVariant::kScalar);
  auto g = geom();
  GaugeField<double> ud(g);
  weak_gauge(ud, 97, 0.3);
  const GaugeField<float> u = ud.convert<float>();
  SpinorField<float> in(g, 4, Subset::Full);
  in.gaussian(101);
  SpinorField<float> ref(g, 4, Subset::Full), got(g, 4, Subset::Full);
  run_variant(ref, u, in, false, DslashVariant::kScalar, def.grain);
  for (int par = 0; par < 2; ++par)
    dslash<float>(parity_view(got, par), u, parity_view(in, 1 - par), par,
                  false);
  for (std::int64_t k = 0; k < in.reals(); ++k)
    ASSERT_EQ(got.data()[k], ref.data()[k]) << "k=" << k;
}

TEST(WilsonSimd, WilsonOpAgreesAcrossVariants) {
  auto g = geom();
  GaugeField<double> u(g);
  weak_gauge(u, 53, 0.3);
  const int l5 = 4;
  SpinorField<double> in(g, l5, Subset::Full);
  in.gaussian(59);
  SpinorField<double> ref(g, l5, Subset::Full), got(g, l5, Subset::Full);

  DslashTuning scalar;
  scalar.variant = DslashVariant::kScalar;
  wilson_op<double>(ref, u, in, 0.1, false, scalar);
  for (DslashVariant v :
       {DslashVariant::kVector, DslashVariant::kVectorBlocked}) {
    DslashTuning tune;
    tune.variant = v;
    wilson_op<double>(got, u, in, 0.1, false, tune);
    for (std::int64_t k = 0; k < in.reals(); ++k)
      ASSERT_EQ(got.data()[k], ref.data()[k]) << to_string(v) << " k=" << k;
  }
}

}  // namespace
}  // namespace femto
