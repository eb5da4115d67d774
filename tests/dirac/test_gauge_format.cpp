// Gauge storage tiers through the kernels and the wire (DESIGN.md §16).
//
// Two contracts:
//
//  * kernels -- every dslash variant (scalar / vector / lane-blocked) must
//    read both storage tiers.  Within one tier the variants are three
//    implementations of one operator and must agree BITWISE (links are
//    reconstructed per site by the same scalar codec, then broadcast);
//    across tiers recon12 matches full18 to reconstruction rounding.
//
//  * wire -- the one-time gauge-halo exchange in recon12 must fill the
//    same full-precision ghosts (to codec tolerance) as the plain
//    exchange while moving 33% fewer bytes, and full18 must stay bitwise
//    identical to the pre-tier path.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>

#include "dirac/distributed.hpp"
#include "dirac/wilson.hpp"
#include "lattice/compressed_gauge.hpp"
#include "lattice/gauge.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom448() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

template <typename T, typename GaugeT>
void run_variant_fmt(SpinorField<T>& out, const GaugeT& u,
                     const SpinorField<T>& in, DslashVariant v) {
  DslashTuning tune;
  tune.grain = 16;
  tune.variant = v;
  for (int par = 0; par < 2; ++par)
    dslash<T>(parity_view(out, par), u, parity_view(in, 1 - par), par,
              false, tune);
}

template <typename GaugeT>
void check_variants_agree_on(const GaugeT& u, const SpinorField<double>& in,
                             const char* fmt) {
  auto g = in.geom_ptr();
  SpinorField<double> ref(g, in.l5(), Subset::Full),
      got(g, in.l5(), Subset::Full);
  run_variant_fmt(ref, u, in, DslashVariant::kScalar);
  for (DslashVariant v :
       {DslashVariant::kVector, DslashVariant::kVectorBlocked}) {
    run_variant_fmt(got, u, in, v);
    for (std::int64_t k = 0; k < in.reals(); ++k)
      ASSERT_EQ(got.data()[k], ref.data()[k])
          << fmt << " " << to_string(v) << " k=" << k;
  }
}

TEST(GaugeFormatKernels, VariantsAgreeBitwisePerFormat) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 2101);
  const CompressedGaugeField<double> r12(u);
  SpinorField<double> in(g, 3, Subset::Full);  // ragged l5 % W tail
  in.gaussian(2102);

  check_variants_agree_on(u, in, "full18");
  check_variants_agree_on(r12, in, "recon12");
}

TEST(GaugeFormatKernels, FormatsMatchFullWithinCodecTolerance) {
  auto g = geom448();
  GaugeField<double> u(g);
  hot_gauge(u, 2103);
  const CompressedGaugeField<double> r12(u);
  const int l5 = 4;
  SpinorField<double> in(g, l5, Subset::Full), ref(g, l5, Subset::Full),
      got(g, l5, Subset::Full);
  in.gaussian(2104);
  run_variant_fmt(ref, u, in, DslashVariant::kVector);

  const auto rel_diff = [&](const SpinorField<double>& a) {
    double d2 = 0.0, n2 = 0.0;
    for (std::int64_t k = 0; k < a.reals(); ++k) {
      const double d = a.data()[k] - ref.data()[k];
      d2 += d * d;
      n2 += ref.data()[k] * ref.data()[k];
    }
    return std::sqrt(d2 / n2);
  };

  run_variant_fmt(got, r12, in, DslashVariant::kVector);
  // Exact to reconstruction rounding; the autotuner enforces the same bound.
  EXPECT_LT(rel_diff(got), recon12_tolerance<double>());
}

// ---------------------------------------------------------------------------
// Wire: the compressed gauge-halo exchange.
// ---------------------------------------------------------------------------

struct HaloRun {
  comm::HaloStats stats;
  std::vector<double> ghosts;  // every ghost real, concatenated
};

HaloRun run_gauge_halo(const GaugeField<double>& u, GaugeFormat fmt) {
  const std::array<int, 4> global{8, 4, 4, 8};
  DistributedLattice dl{global, comm::ProcessGrid({2, 1, 1, 2})};
  HaloRun out;
  std::mutex mu;
  // Per-rank slots: ranks finish in thread order, so a shared append would
  // shuffle the concatenation run to run.
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(dl.grid.size()));
  comm::run_ranks(dl.grid.size(), [&](comm::RankHandle& h) {
    auto gauge = scatter_gauge(dl, h.rank(), u);
    comm::HaloExchanger ex(dl.grid, comm::CommPolicy::ZeroCopy,
                           comm::Granularity::Fused);
    comm::HaloStats stats;
    exchange_gauge_halo(h, dl, ex, gauge, fmt, &stats);
    auto& mine = per_rank[static_cast<std::size_t>(h.rank())];
    for (int mu4 = 0; mu4 < 4; ++mu4)
      for (std::int64_t f = 0; f < gauge.face_sites(mu4); ++f)
        for (int r = 0; r < kDistGaugeReals; ++r) {
          mine.push_back(gauge.ghost_bwd(mu4, f)[r]);
          mine.push_back(gauge.ghost_fwd(mu4, f)[r]);
        }
    std::lock_guard<std::mutex> lk(mu);
    out.stats += stats;
  });
  for (const auto& rank_ghosts : per_rank)
    out.ghosts.insert(out.ghosts.end(), rank_ghosts.begin(),
                      rank_ghosts.end());
  return out;
}

TEST(GaugeFormatHalo, Full18DelegatesBitwise) {
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2105);
  const auto plain = run_gauge_halo(u, GaugeFormat::kFull18);
  const auto tiered = run_gauge_halo(u, GaugeFormat::kFull18);
  ASSERT_EQ(plain.ghosts.size(), tiered.ghosts.size());
  for (std::size_t k = 0; k < plain.ghosts.size(); ++k)
    ASSERT_EQ(plain.ghosts[k], tiered.ghosts[k]) << k;
}

TEST(GaugeFormatHalo, CompressedTiersFillGhostsToCodecTolerance) {
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2106);
  const auto ref = run_gauge_halo(u, GaugeFormat::kFull18);
  const auto got = run_gauge_halo(u, GaugeFormat::kRecon12);
  ASSERT_EQ(got.ghosts.size(), ref.ghosts.size());
  for (std::size_t k = 0; k < ref.ghosts.size(); ++k)
    ASSERT_NEAR(got.ghosts[k], ref.ghosts[k], 1e-12) << "k=" << k;
}

TEST(GaugeFormatHalo, StatsAccountCompressedPayload) {
  // The wire carries the compressed slab, so HaloStats must shrink by the
  // exact per-site ratio: 48/72 doubles.
  auto g = std::make_shared<Geometry>(8, 4, 4, 8);
  GaugeField<double> u(g);
  hot_gauge(u, 2107);
  const auto full = run_gauge_halo(u, GaugeFormat::kFull18);
  ASSERT_GT(full.stats.bytes_sent, 0);
  const auto got = run_gauge_halo(u, GaugeFormat::kRecon12);
  EXPECT_EQ(got.stats.messages, full.stats.messages);
  EXPECT_EQ(got.stats.bytes_sent * kDistGaugeReals,
            full.stats.bytes_sent * gauge_wire_reals(GaugeFormat::kRecon12));
  EXPECT_EQ(gauge_wire_reals(GaugeFormat::kRecon12), 48);
}

TEST(GaugeFormatHalo, DistributedDslashOnCompressedHaloMatchesSingleRank) {
  // End to end: a recon12 gauge halo feeds the same stencil answer as the
  // single-rank kernel (the codec is exact on SU(3) links).
  const std::array<int, 4> global{8, 4, 4, 8};
  auto geom =
      std::make_shared<Geometry>(global[0], global[1], global[2], global[3]);
  GaugeField<double> u(geom);
  hot_gauge(u, 2108);
  SpinorField<double> in(geom, 1, Subset::Full), want(geom, 1, Subset::Full);
  in.gaussian(2109);
  for (int par = 0; par < 2; ++par)
    dslash<double>(parity_view(want, par), u, parity_view(in, 1 - par), par,
                   false, {});

  DistributedLattice dl{global, comm::ProcessGrid({2, 1, 1, 2})};
  SpinorField<double> got(geom, 1, Subset::Full);
  std::mutex mu;
  comm::run_ranks(dl.grid.size(), [&](comm::RankHandle& h) {
    auto psi = scatter_spinor(dl, h.rank(), in);
    auto gauge = scatter_gauge(dl, h.rank(), u);
    comm::HaloField out(dl.local_extents(), kDistSpinorReals);
    comm::HaloExchanger ex(dl.grid, comm::CommPolicy::ZeroCopy,
                           comm::Granularity::Fused);
    exchange_gauge_halo(h, dl, ex, gauge, GaugeFormat::kRecon12);
    distributed_dslash(h, dl, ex, psi, gauge, out, false);
    std::lock_guard<std::mutex> lk(mu);
    gather_spinor(dl, h.rank(), out, got);
  });
  for (std::int64_t k = 0; k < want.reals(); ++k)
    ASSERT_NEAR(got.data()[k], want.data()[k], 1e-11) << k;
}

}  // namespace
}  // namespace femto
