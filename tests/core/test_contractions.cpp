#include "core/contractions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <utility>

#include "lattice/flops.hpp"
#include "lattice/gauge.hpp"

namespace femto::core {
namespace {

// --- the per-epsilon-pair reference -----------------------------------------
//
// The nucleon contraction in its direct Wick form: every one of the 36
// Levi-Civita pairs per site (72 with the FH line) spelled out with its own
// spin-matrix products, summed serially.  It shares neither the kernel's
// diquark-block algebra nor its colour-block loader, so the
// ContractionReference tests below catch a wrong hoist that the kernel's
// own consistency checks cannot (C_FH(u, u, u) = 2 C2(u, u) holds by
// construction in the hoisted form).

/// S(x): the full 12x12 matrix at a sink site, indexed
/// [snk_spin][snk_col][src_spin][src_col].
using RefSiteMatrix = std::array<
    std::array<std::array<std::array<cdouble, kNc>, kNs>, kNc>, kNs>;

RefSiteMatrix ref_site_matrix(const Propagator& p, std::int64_t site) {
  RefSiteMatrix m{};
  for (int ss = 0; ss < kNs; ++ss)
    for (int sc = 0; sc < kNc; ++sc) {
      const auto spinor = p.column(ss, sc).load(0, site);
      for (int s = 0; s < kNs; ++s)
        for (int c = 0; c < kNc; ++c)
          m[static_cast<std::size_t>(s)][static_cast<std::size_t>(c)]
           [static_cast<std::size_t>(ss)][static_cast<std::size_t>(sc)] =
               spinor[s][c];
    }
  return m;
}

/// The nonzero entries of the 3D Levi-Civita tensor.
struct Eps {
  int a, b, c;
  double sign;
};
constexpr Eps kEps[6] = {{0, 1, 2, +1.0}, {1, 2, 0, +1.0}, {2, 0, 1, +1.0},
                         {0, 2, 1, -1.0}, {2, 1, 0, -1.0}, {1, 0, 2, -1.0}};

/// Spin matrix view of a propagator's (snk_color, src_color) block.
SpinMat color_block(const RefSiteMatrix& m, int snk_c, int src_c) {
  SpinMat s;
  for (int r = 0; r < kNs; ++r)
    for (int c = 0; c < kNs; ++c)
      s(r, c) = m[static_cast<std::size_t>(r)][static_cast<std::size_t>(
          snk_c)][static_cast<std::size_t>(c)][static_cast<std::size_t>(
          src_c)];
  return s;
}

/// C = sum_{eps, eps'} s(eps) s(eps') [T2 - T1] per site, with the u blocks
/// X (at aa' / ca') and Y (at cc' / ac'); the FH correlator is
/// terms(F, U) + terms(U, F).
Correlator reference_contract(const Propagator& u, const Propagator* fh,
                              const Propagator& down,
                              const SpinMat& projector, int t_src,
                              std::array<int, 3> momentum = {0, 0, 0}) {
  const auto& geom = u.geom();
  const int nt = geom.extent(3);
  const SpinMat cg5 = cgamma5();
  const SpinMat proj_t = projector.transpose();
  Correlator corr(static_cast<std::size_t>(nt));
  for (std::int64_t site = 0; site < geom.volume(); ++site) {
    const auto x = geom.coord(site);
    const int t = (x[3] - t_src + nt) % nt;

    const auto m_u = ref_site_matrix(u, site);
    const auto md = ref_site_matrix(down, site);
    RefSiteMatrix m_f{};
    if (fh) m_f = ref_site_matrix(*fh, site);

    auto terms = [&](const RefSiteMatrix& mx, const RefSiteMatrix& my) {
      cdouble sum{};
      for (const auto& e1 : kEps)
        for (const auto& e2 : kEps) {
          const double sgn = e1.sign * e2.sign;
          const SpinMat a = cg5 * color_block(md, e1.b, e2.b) * cg5;
          const SpinMat x_aa = color_block(mx, e1.a, e2.a).transpose();
          const SpinMat y_cc = color_block(my, e1.c, e2.c);
          const cdouble t1 =
              (projector * y_cc).trace() * (a * x_aa).trace();
          const SpinMat x_ca = color_block(mx, e1.c, e2.a).transpose();
          const SpinMat y_ac = color_block(my, e1.a, e2.c).transpose();
          const cdouble t2 = (a * x_ca * proj_t * y_ac).trace();
          sum += sgn * (t2 - t1);
        }
      return sum;
    };

    cdouble acc = fh ? terms(m_f, m_u) + terms(m_u, m_f) : terms(m_u, m_u);
    double phase = 0.0;
    for (int i = 0; i < 3; ++i)
      phase -= 2.0 * std::numbers::pi * momentum[i] * x[i] / geom.extent(i);
    acc = acc * cdouble{std::cos(phase), std::sin(phase)};
    corr[static_cast<std::size_t>(t)] += acc;
  }
  return corr;
}

/// Gaussian-filled U, D and F (4^3 x 8 by default), all three distinct.
struct GaussianProps {
  std::shared_ptr<const Geometry> g;
  Propagator up, down, fh;
  explicit GaussianProps(std::shared_ptr<const Geometry> geom =
                             std::make_shared<Geometry>(4, 4, 4, 8))
      : g(std::move(geom)), up(g), down(g), fh(g) {
    std::uint64_t seed = 7301;
    for (Propagator* p : {&up, &down, &fh})
      for (int k = 0; k < kNs * kNc; ++k)
        p->column(k / kNc, k % kNc).gaussian(seed++);
  }
};

constexpr int kRefTsrc = 3;
/// The kernel sums in another order than the reference; it reads at most
/// 3.8e-15 here.
constexpr double kRefTol = 1e-12;

/// The projectors the reference tests run: the two physical ones and a
/// dense complex matrix with no symmetry, for which the identity holds
/// as well.
std::vector<SpinMat> test_projectors() {
  SpinMat dense;
  double v = 0.37;
  for (int r = 0; r < kNs; ++r)
    for (int c = 0; c < kNs; ++c) {
      v = std::fmod(v * 7.13 + 0.29, 2.0) - 1.0;
      dense(r, c) = {v, 0.5 * v + 0.1 * (r - c)};
    }
  return {parity_projector(), polarized_projector(), dense};
}

/// Largest |got[t] - want[t]| / |want[t]| over the timeslices.
double max_rel_dev(const Correlator& got, const Correlator& want) {
  EXPECT_EQ(got.size(), want.size());
  double dev = 0.0;
  for (std::size_t t = 0; t < want.size(); ++t) {
    const cdouble d = got[t] - want[t];
    dev = std::max(dev, std::sqrt(norm2(d)) / std::sqrt(norm2(want[t])));
  }
  return dev;
}

TEST(ContractionReference, TwoPointMatchesEpsilonPairLoop) {
  const GaussianProps p;
  for (const SpinMat& proj : test_projectors())
    EXPECT_LE(max_rel_dev(nucleon_two_point(p.up, p.down, proj, kRefTsrc),
                          reference_contract(p.up, nullptr, p.down, proj,
                                             kRefTsrc)),
              kRefTol);
}

TEST(ContractionReference, TwoPointMomentumMatchesEpsilonPairLoop) {
  const GaussianProps p;
  for (const std::array<int, 3> mom :
       {std::array<int, 3>{1, 0, 0}, std::array<int, 3>{0, 1, 1}})
    for (const SpinMat& proj : test_projectors())
      EXPECT_LE(
          max_rel_dev(
              nucleon_two_point_momentum(p.up, p.down, proj, kRefTsrc, mom),
              reference_contract(p.up, nullptr, p.down, proj, kRefTsrc,
                                 mom)),
          kRefTol)
          << "p = (" << mom[0] << ", " << mom[1] << ", " << mom[2] << ")";
}

TEST(ContractionReference, FhThreePointMatchesEpsilonPairLoop) {
  const GaussianProps p;
  for (const SpinMat& proj : test_projectors())
    EXPECT_LE(
        max_rel_dev(
            nucleon_fh_three_point(p.up, p.fh, p.down, proj, kRefTsrc),
            reference_contract(p.up, &p.fh, p.down, proj, kRefTsrc)),
        kRefTol);
}

// --- bitwise across widths ---------------------------------------------------
//
// nucleon_contract<W> runs W sites per step, one per lane, and the last
// (hi - lo) mod W sites of each reduce chunk at W = 1.  Every lane does
// the one-site arithmetic and the lanes add into the timeslice sums in
// site order, so every width must give the W = 1 bits.  On 6^3 x 10 (2,160
// sites: 33 reduce chunks of 65 or 66) the W = 1 tail runs in every chunk
// at W = 2, 4 and 8.  A build that contracts one width's multiply-adds
// into FMAs and not another's (-mfma) fails here.

/// Every timeslice of @p got has the bits of @p want.
void expect_same_bits(const Correlator& got, const Correlator& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].re),
              std::bit_cast<std::uint64_t>(want[t].re))
        << what << " t=" << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].im),
              std::bit_cast<std::uint64_t>(want[t].im))
        << what << " t=" << t;
  }
}

TEST(ContractionWidths, EveryWidthGivesTheScalarBits) {
  const SpinMat proj = test_projectors()[2];  // dense, no symmetry
  const std::array<int, 3> mom = {0, 1, 1};
  for (const auto& geom : {std::make_shared<Geometry>(6, 6, 6, 10),
                           std::make_shared<Geometry>(4, 4, 4, 8)}) {
    const GaussianProps p(geom);
    const std::string vol = std::to_string(geom->volume()) + " sites, ";
    const Correlator c2 =
        nucleon_contract<1>(p.up, nullptr, p.down, proj, kRefTsrc);
    const Correlator c2p =
        nucleon_contract<1>(p.up, nullptr, p.down, proj, kRefTsrc, mom);
    const Correlator c3 =
        nucleon_contract<1>(p.up, &p.fh, p.down, proj, kRefTsrc);
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      auto at_width = [&]<int W>() {
        const std::string w = vol + "W=" + std::to_string(W) + ": ";
        expect_same_bits(
            nucleon_contract<W>(p.up, nullptr, p.down, proj, kRefTsrc), c2,
            w + "2pt");
        expect_same_bits(nucleon_contract<W>(p.up, nullptr, p.down, proj,
                                             kRefTsrc, mom),
                         c2p, w + "2pt at p = (0, 1, 1)");
        expect_same_bits(
            nucleon_contract<W>(p.up, &p.fh, p.down, proj, kRefTsrc), c3,
            w + "FH 3pt");
      };
      (at_width.template operator()<kContractWidths[I]>(), ...);
    }(std::make_index_sequence<kContractWidths.size()>{});
    // The public functions run the native width.
    expect_same_bits(nucleon_two_point(p.up, p.down, proj, kRefTsrc), c2,
                     vol + "nucleon_two_point");
    expect_same_bits(
        nucleon_two_point_momentum(p.up, p.down, proj, kRefTsrc, mom), c2p,
        vol + "nucleon_two_point_momentum");
    expect_same_bits(
        nucleon_fh_three_point(p.up, p.fh, p.down, proj, kRefTsrc), c3,
        vol + "nucleon_fh_three_point");
  }
}

TEST(Contractions, ChargesTheDocumentedFlopsAndBytes) {
  const GaussianProps p;
  const std::int64_t vol = p.g->volume();
  const SpinMat proj = polarized_projector();
  auto charged = [](auto&& call) {
    const std::int64_t f0 = flops::get(), b0 = flops::bytes();
    call();
    return std::array<std::int64_t, 2>{flops::get() - f0,
                                       flops::bytes() - b0};
  };
  using Charge = std::array<std::int64_t, 2>;
  EXPECT_EQ(charged([&] { nucleon_two_point(p.up, p.down, proj, 0); }),
            (Charge{vol * kNucleonTwoPointFlopsPerSite,
                    vol * 2 * kPropagatorSiteBytes}));
  EXPECT_EQ(charged([&] {
              nucleon_two_point_momentum(p.up, p.down, proj, 0, {0, 1, 1});
            }),
            (Charge{vol * kNucleonTwoPointFlopsPerSite,
                    vol * 2 * kPropagatorSiteBytes}));
  EXPECT_EQ(charged([&] {
              nucleon_fh_three_point(p.up, p.fh, p.down, proj, 0);
            }),
            (Charge{vol * kNucleonFhFlopsPerSite,
                    vol * 3 * kPropagatorSiteBytes}));
  EXPECT_EQ(kNucleonTwoPointFlopsPerSite, 24122);
  EXPECT_EQ(kNucleonFhFlopsPerSite, 48242);
}

struct Fixture {
  std::shared_ptr<const Geometry> g;
  std::shared_ptr<const GaugeField<double>> u;
  MobiusParams params{6, -1.8, 1.5, 0.5, 0.3};  // heavy quark: fast solves
  std::unique_ptr<DwfSolver> solver;
  Fixture(std::uint64_t seed = 601, double eps = 0.2) {
    g = std::make_shared<Geometry>(4, 4, 4, 8);
    auto ug = std::make_shared<GaugeField<double>>(g);
    weak_gauge(*ug, seed, eps);
    u = ug;
    SolverParams sp;
    sp.tol = 1e-8;
    sp.max_iter = 20000;
    solver = std::make_unique<DwfSolver>(u, params, sp);
  }
};

TEST(Contractions, TwoPointHasCorrectLengthAndDecays) {
  Fixture f;
  const auto up = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  const auto c2 = nucleon_two_point(up, up, parity_projector(), 0);
  ASSERT_EQ(c2.size(), 8u);
  // The correlator decays away from the source (before backward-state
  // effects at the far end).
  EXPECT_GT(std::abs(c2[1].re), std::abs(c2[3].re));
  EXPECT_GT(std::abs(c2[0].re), std::abs(c2[2].re));
}

TEST(Contractions, TwoPointPositiveNearSource) {
  // With the positive-parity projector the nucleon correlator is positive
  // at small t (spectral positivity).
  Fixture f;
  const auto up = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  const auto c2 = nucleon_two_point(up, up, parity_projector(), 0);
  EXPECT_GT(c2[0].re, 0.0);
  EXPECT_GT(c2[1].re, 0.0);
  EXPECT_GT(c2[2].re, 0.0);
  // And is predominantly real: imaginary part is noise-level relative to
  // the real part at the source.
  EXPECT_LT(std::abs(c2[1].im), std::abs(c2[1].re));
}

TEST(Contractions, SourceShiftCovariance) {
  // Shifting the source timeslice must shift the correlator (exactly, on
  // the same configuration, up to the antiperiodic sign structure which
  // cancels in the 3-quark correlator: 3 fermion lines -> odd sign^3 ...
  // the nucleon correlator picks up the boundary sign when the source-sink
  // pair straddles the boundary, so compare magnitudes).
  Fixture f;
  const auto p0 = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  const auto p2 = compute_point_propagator(*f.solver, {0, 0, 0, 2});
  const auto c0 = nucleon_two_point(p0, p0, parity_projector(), 0);
  const auto c2 = nucleon_two_point(p2, p2, parity_projector(), 2);
  // Gauge field breaks exact translation invariance on one config, but
  // the source-relative decay pattern must be similar in scale.
  for (int t = 0; t < 3; ++t) {
    const double a = std::abs(c0[static_cast<std::size_t>(t)].re);
    const double b = std::abs(c2[static_cast<std::size_t>(t)].re);
    EXPECT_GT(b, 0.05 * a);
    EXPECT_LT(b, 20.0 * a);
  }
}

TEST(Contractions, FhThreePointDiffersFromTwoPoint) {
  Fixture f;
  const auto up = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  const auto fh = compute_fh_propagator(*f.solver, up);
  const auto c2 = nucleon_two_point(up, up, polarized_projector(), 0);
  const auto c3 = nucleon_fh_three_point(up, fh, up,
                                         polarized_projector(), 0);
  ASSERT_EQ(c3.size(), c2.size());
  bool differs = false;
  for (std::size_t t = 0; t < c2.size(); ++t)
    if (std::abs(c3[t].re - c2[t].re) > 1e-12) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Contractions, EffectiveCouplingSeriesLength) {
  Correlator c2(8), c3(8);
  for (int t = 0; t < 8; ++t) {
    c2[static_cast<std::size_t>(t)] = {std::exp(-0.5 * t), 0.0};
    // R(t) = 1.27 * t  => finite difference = 1.27 everywhere.
    c3[static_cast<std::size_t>(t)] = {1.27 * t * std::exp(-0.5 * t), 0.0};
  }
  const auto g = fh_effective_coupling_series(c2, c3);
  ASSERT_EQ(g.size(), 7u);
  for (double v : g) EXPECT_NEAR(v, 1.27, 1e-10);
}

TEST(Contractions, EffectiveMassOfPureExponential) {
  Correlator c(10);
  for (int t = 0; t < 10; ++t)
    c[static_cast<std::size_t>(t)] = {5.0 * std::exp(-0.7 * t), 0.0};
  const auto m = effective_mass(c);
  for (double v : m) EXPECT_NEAR(v, 0.7, 1e-10);
}

TEST(Contractions, LinearityInSubstitutedLine) {
  // The FH contraction is bilinear in each line: scaling the substituted
  // propagator scales the correlator.
  Fixture f;
  const auto up = compute_point_propagator(*f.solver, {0, 0, 0, 0});
  auto fh = compute_fh_propagator(*f.solver, up);
  const auto c3 = nucleon_fh_three_point(up, fh, up,
                                         parity_projector(), 0);
  // Scale the FH propagator by 2.
  Propagator fh2(f.g);
  for (int s = 0; s < kNs; ++s)
    for (int c = 0; c < kNc; ++c) {
      fh2.column(s, c) = fh.column(s, c);
      for (std::int64_t k = 0; k < fh2.column(s, c).reals(); ++k)
        fh2.column(s, c).data()[k] *= 2.0;
    }
  const auto c3x2 = nucleon_fh_three_point(up, fh2, up,
                                           parity_projector(), 0);
  for (std::size_t t = 0; t < c3.size(); ++t) {
    EXPECT_NEAR(c3x2[t].re, 2.0 * c3[t].re,
                1e-9 * (std::abs(c3[t].re) + 1e-6));
  }
}

}  // namespace
}  // namespace femto::core
