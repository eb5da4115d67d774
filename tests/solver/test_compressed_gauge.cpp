// QUDA's reconstruct-12 gauge compression: 12 stored reals per link, third
// row rebuilt from unitarity on load — exact for SU(3) links.

#include "lattice/compressed_gauge.hpp"

#include <gtest/gtest.h>

#include "dirac/wilson.hpp"
#include "lattice/gauge.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom448() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

TEST(CompressedGauge, ReconstructionIsExactForSu3) {
  GaugeField<double> u(geom448());
  hot_gauge(u, 1601);
  CompressedGaugeField<double> c(u);
  for (int mu = 0; mu < 4; ++mu)
    for (std::int64_t s = 0; s < u.geom().volume(); s += 13) {
      const auto full = u.load(mu, s);
      const auto rec = c.load(mu, s);
      EXPECT_LT(dist2(full, rec), 1e-24) << mu << " " << s;
    }
}

TEST(CompressedGauge, StorageIsTwoThirds) {
  GaugeField<double> u(geom448());
  unit_gauge(u);
  CompressedGaugeField<double> c(u);
  EXPECT_EQ(c.bytes() * 3, u.bytes() * 2);
}

TEST(CompressedGauge, DecompressRoundTrip) {
  GaugeField<double> u(geom448());
  weak_gauge(u, 1602, 0.3);
  CompressedGaugeField<double> c(u);
  const auto back = c.decompress();
  for (std::int64_t k = 0; k < u.bytes() / 8; k += 29)
    EXPECT_NEAR(back.data()[k], u.data()[k], 1e-14);
}

TEST(CompressedGauge, DslashThroughDecompressedMatches) {
  // A dslash on the decompressed field equals the original: compression
  // is exact on unitary links, so the physics cannot change.
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 1603);
  CompressedGaugeField<double> c(u);
  const auto u2 = c.decompress();

  SpinorField<double> in(g, 2, Subset::Odd), a(g, 2, Subset::Even),
      b(g, 2, Subset::Even);
  in.gaussian(1604);
  dslash<double>(view(a), u, cview(in), 0, false, {});
  dslash<double>(view(b), u2, cview(in), 0, false, {});
  for (std::int64_t k = 0; k < a.reals(); ++k)
    ASSERT_NEAR(a.data()[k], b.data()[k], 1e-12);
}

TEST(CompressedGauge, ReconstructThirdRowProperty) {
  // For any SU(3) matrix, the reconstructed third row equals the
  // original; for a NON-unitary matrix it generally does not (the
  // compression is only valid on the group).
  Xoshiro256 rng(1605);
  ColorMat<double> m;
  for (auto& e : m.m) e = {rng.gaussian(), rng.gaussian()};
  const auto su3 = project_su3(m);
  ColorMat<double> rec = su3;
  reconstruct_third_row(rec);
  EXPECT_LT(dist2(rec, su3), 1e-24);

  ColorMat<double> nonunitary = m;
  reconstruct_third_row(nonunitary);
  EXPECT_GT(dist2(nonunitary, m), 1e-6);
}

TEST(CompressedGauge, FloatPrecisionReconstruction) {
  GaugeField<double> ud(geom448());
  hot_gauge(ud, 1606);
  const auto uf = ud.convert<float>();
  CompressedGaugeField<float> c(uf);
  for (std::int64_t s = 0; s < ud.geom().volume(); s += 37) {
    const auto full = uf.load(1, s);
    const auto rec = c.load(1, s);
    EXPECT_LT(dist2(full, rec), 1e-10f);
  }
}

}  // namespace
}  // namespace femto

namespace femto {
namespace {

TEST(CompressedGauge, CompressedDslashMatchesFull) {
  // The kernel reading 12-real links must match the 18-real kernel.
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 1607);
  CompressedGaugeField<double> c(u);
  SpinorField<double> in(g, 4, Subset::Odd), a(g, 4, Subset::Even),
      b(g, 4, Subset::Even);
  in.gaussian(1608);
  for (bool dagger : {false, true}) {
    dslash<double>(view(a), u, cview(in), 0, dagger, {});
    dslash<double>(view(b), c, cview(in), 0, dagger, {});
    for (std::int64_t k = 0; k < a.reals(); ++k)
      ASSERT_NEAR(a.data()[k], b.data()[k], 1e-12) << dagger;
  }
}

}  // namespace
}  // namespace femto

// ---------------------------------------------------------------------------
// The storage/traffic/determinism contracts of the recon12 container.
// ---------------------------------------------------------------------------

#include "lattice/flops.hpp"

namespace femto {
namespace {

TEST(CompressedGauge, ParallelCompressionIsDeterministic) {
  GaugeField<double> u(geom448());
  hot_gauge(u, 1614);
  CompressedGaugeField<double> a(u), b(u);
  const auto da = a.decompress(), db = b.decompress();
  for (std::int64_t k = 0; k < da.bytes() / 8; ++k)
    ASSERT_EQ(da.data()[k], db.data()[k]) << k;
}

TEST(CompressedGauge, CompressionChargesTrueTraffic) {
  // The ctor streams the full field in and the stored tier out; bytes()
  // must report the stored size so femtoscope's GB/s stays honest.
  GaugeField<double> u(geom448());
  hot_gauge(u, 1615);
  flops::reset();
  CompressedGaugeField<double> c(u);
  EXPECT_EQ(flops::bytes(), u.bytes() + c.bytes());
}

#if FEMTO_CHECKED_ENABLED
TEST(CompressedGaugeDeathTest, CheckedStoreRejectsNonUnitaryLinks) {
  // Reconstruction silently fabricates a wrong third row on non-unitary
  // input; checked builds must refuse instead.
  GaugeField<double> u(geom448());
  hot_gauge(u, 1616);
  CompressedGaugeField<double> c(u);
  ColorMat<double> bad = u.load(0, 0);
  bad(0, 0).re += 0.5;  // breaks row normalisation
  EXPECT_DEATH(c.store(0, 0, bad), "SU");
}
#endif

}  // namespace
}  // namespace femto
