#include "fio/propagator_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "temp_path.hpp"

namespace femto::fio {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

TEST(PropagatorIo, RoundTripPreservesFieldAndMeta) {
  auto g = geom44();
  SpinorField<double> prop(g, 6, Subset::Full);
  prop.gaussian(301);

  File f;
  PropagatorMeta meta;
  meta.ensemble = "testens";
  meta.config_id = 42;
  meta.mf = 0.01;
  meta.residual = 1e-9;
  write_propagator(f, "p0", prop, meta);

  SpinorField<double> back(g, 6, Subset::Full);
  const auto m2 = read_propagator(f, "p0", back);
  EXPECT_EQ(m2.ensemble, "testens");
  EXPECT_EQ(m2.config_id, 42);
  EXPECT_NEAR(m2.residual, 1e-9, 1e-15);
  for (std::int64_t k = 0; k < prop.reals(); ++k)
    ASSERT_EQ(back.data()[k], prop.data()[k]);
}

TEST(PropagatorIo, GeometryMismatchRejected) {
  auto g = geom44();
  SpinorField<double> prop(g, 6, Subset::Full);
  File f;
  write_propagator(f, "p0", prop, {});

  // Wrong L5.
  SpinorField<double> wrong_l5(g, 8, Subset::Full);
  EXPECT_THROW(read_propagator(f, "p0", wrong_l5), IoError);
  // Wrong lattice.
  auto g2 = std::make_shared<Geometry>(4, 4, 4, 8);
  SpinorField<double> wrong_geom(g2, 6, Subset::Full);
  EXPECT_THROW(read_propagator(f, "p0", wrong_geom), IoError);
  // Wrong subset.
  SpinorField<double> wrong_sub(g, 6, Subset::Odd);
  EXPECT_THROW(read_propagator(f, "p0", wrong_sub), IoError);
}

TEST(PropagatorIo, CorrelatorRoundTrip) {
  File f;
  write_correlator(f, "nucleon", {1.0, 0.5, 0.25}, "test corr");
  const auto c = read_correlator(f, "nucleon");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], 0.25);
}

TEST(PropagatorIo, DiskRoundTripThroughSave) {
  const std::string path = test_temp_path("femto_prop_io.bin");
  auto g = geom44();
  SpinorField<double> prop(g, 4, Subset::Full);
  prop.gaussian(302);
  {
    File f;
    write_propagator(f, "pX", prop, {.ensemble = "disk", .config_id = 7});
    f.save(path);
  }
  File f = File::load(path);
  SpinorField<double> back(g, 4, Subset::Full);
  const auto meta = read_propagator(f, "pX", back);
  EXPECT_EQ(meta.ensemble, "disk");
  for (std::int64_t k = 0; k < prop.reals(); k += 101)
    ASSERT_EQ(back.data()[k], prop.data()[k]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace femto::fio

namespace femto::fio {
namespace {

TEST(GaugeIo, RoundTripPreservesLinksAndPlaquette) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  GaugeField<double> u(g);
  // Fill with a recognizable deterministic pattern.
  for (std::int64_t k = 0; k < u.bytes() / 8; ++k)
    u.data()[k] = 0.001 * static_cast<double>(k % 977);

  File f;
  write_gauge(f, "cfg7", u, 0.5931);
  GaugeField<double> back(g);
  const double plaq = read_gauge(f, "cfg7", back);
  EXPECT_NEAR(plaq, 0.5931, 1e-12);
  for (std::int64_t k = 0; k < u.bytes() / 8; k += 53)
    ASSERT_EQ(back.data()[k], u.data()[k]);
}

TEST(GaugeIo, GeometryMismatchRejected) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  GaugeField<double> u(g);
  File f;
  write_gauge(f, "cfg", u, 1.0);
  auto g2 = std::make_shared<Geometry>(4, 4, 4, 8);
  GaugeField<double> wrong(g2);
  EXPECT_THROW(read_gauge(f, "cfg", wrong), IoError);
}

}  // namespace
}  // namespace femto::fio
