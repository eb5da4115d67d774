#include "lattice/gauge.hpp"

#include <cmath>

#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {

namespace {

constexpr double kTwoPi = 6.283185307179586;

/// Uniformly random SU(3) matrix: Gaussian complex entries projected by
/// Gram-Schmidt (Haar up to the measure of the projection; fully adequate
/// for hot starts, which are immediately thermalised anyway).
ColorMat<double> random_su3(Xoshiro256& rng) {
  ColorMat<double> g;
  for (auto& e : g.m) e = {rng.gaussian(), rng.gaussian()};
  return project_su3(g);
}

}  // namespace

void unit_gauge(GaugeField<double>& u) {
  const auto& geom = u.geom();
  const auto id = ColorMat<double>::identity();
  for (int mu = 0; mu < 4; ++mu)
    for (std::int64_t s = 0; s < geom.volume(); ++s) u.store(mu, s, id);
}

void hot_gauge(GaugeField<double>& u, std::uint64_t seed) {
  const auto& geom = u.geom();
  // femtolint: allow(kernel-traffic): RNG-bound initialisation, not a
  // measured stencil/BLAS path; charging it would skew solver AI numbers.
  par::parallel_for(0, static_cast<size_t>(geom.volume()), [&](size_t s) {
    for (int mu = 0; mu < 4; ++mu) {
      Xoshiro256 rng(seed, s, static_cast<std::uint64_t>(mu));
      u.store(mu, static_cast<std::int64_t>(s), random_su3(rng));
    }
  });
}

void weak_gauge(GaugeField<double>& u, std::uint64_t seed, double eps) {
  const auto& geom = u.geom();
  // femtolint: allow(kernel-traffic): RNG-bound initialisation, as above.
  par::parallel_for(0, static_cast<size_t>(geom.volume()), [&](size_t s) {
    for (int mu = 0; mu < 4; ++mu) {
      Xoshiro256 rng(seed, s, static_cast<std::uint64_t>(mu));
      ColorMat<double> g = ColorMat<double>::identity();
      for (auto& e : g.m)
        e += Cplx<double>(eps * rng.gaussian(), eps * rng.gaussian());
      u.store(mu, static_cast<std::int64_t>(s), project_su3(g));
    }
  });
}

double plaquette(const GaugeField<double>& u) {
  const auto& geom = u.geom();
  double sum = 0.0;
  par::parallel_reduce_n(
      0, static_cast<size_t>(geom.volume()), 1,
      [&](size_t lo, size_t hi, double* partial) {
        double acc = 0.0;
        for (size_t s = lo; s < hi; ++s) {
          const auto site = static_cast<std::int64_t>(s);
          for (int mu = 0; mu < 4; ++mu)
            for (int nu = mu + 1; nu < 4; ++nu) {
              const auto xpm = geom.site_fwd(site, mu);
              const auto xpn = geom.site_fwd(site, nu);
              const ColorMat<double> p = u.load(mu, site) * u.load(nu, xpm) *
                                         adj(u.load(nu, site) *
                                             u.load(mu, xpn));
              acc += trace(p).re;
            }
        }
        partial[0] = acc;
      },
      &sum);
  // 6 planes x 3 matmuls per site; one read pass over the gauge field.
  flops::add(geom.volume() * 6 * 3 * flops::kSu3MatmulFlops);
  flops::add_bytes(u.bytes());
  return sum / (3.0 * 6.0 * static_cast<double>(geom.volume()));
}

ColorMat<double> staple(const GaugeField<double>& u, int mu,
                        std::int64_t site) {
  const auto& geom = u.geom();
  ColorMat<double> a;  // zero
  const auto xpm = geom.site_fwd(site, mu);
  for (int nu = 0; nu < 4; ++nu) {
    if (nu == mu) continue;
    // Upper staple: U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag
    const auto xpn = geom.site_fwd(site, nu);
    a += u.load(nu, xpm) * adj(u.load(nu, site) * u.load(mu, xpn));
    // Lower staple: U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu)
    const auto xmn = geom.site_bwd(site, nu);
    const auto xpm_mn = geom.site_bwd(xpm, nu);
    a += adj(u.load(mu, xmn) * u.load(nu, xpm_mn)) * u.load(nu, xmn);
  }
  return a;
}

namespace {

/// One SU(2) element as a unit quaternion (a0, a1, a2, a3).
struct Quat {
  double a0, a1, a2, a3;
};

/// Kennedy-Pendleton sampling of a0 with weight sqrt(1-a0^2) exp(alpha a0).
double kp_sample_a0(double alpha, Xoshiro256& rng) {
  for (int tries = 0; tries < 10000; ++tries) {
    const double r1 = rng.uniform_pos();
    const double r2 = rng.uniform();
    const double r3 = rng.uniform_pos();
    const double c = std::cos(kTwoPi * r2);
    const double lam2 = -(std::log(r1) + c * c * std::log(r3)) / (2.0 * alpha);
    const double r4 = rng.uniform();
    if (r4 * r4 <= 1.0 - lam2) return 1.0 - 2.0 * lam2;
  }
  return 1.0;  // pathological alpha; accept the cold value
}

/// Sample g with P(g) ~ exp(alpha * g0) d(Haar) for SU(2).
Quat su2_heatbath(double alpha, Xoshiro256& rng) {
  const double a0 = kp_sample_a0(alpha, rng);
  const double r = std::sqrt(std::max(0.0, 1.0 - a0 * a0));
  // Random direction on the 2-sphere.
  const double ct = 2.0 * rng.uniform() - 1.0;
  const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
  const double phi = kTwoPi * rng.uniform();
  return {a0, r * st * std::cos(phi), r * st * std::sin(phi), r * ct};
}

/// Quaternion product c = a * b (SU(2) group law).
Quat qmul(const Quat& a, const Quat& b) {
  return {a.a0 * b.a0 - a.a1 * b.a1 - a.a2 * b.a2 - a.a3 * b.a3,
          a.a0 * b.a1 + a.a1 * b.a0 + a.a2 * b.a3 - a.a3 * b.a2,
          a.a0 * b.a2 - a.a1 * b.a3 + a.a2 * b.a0 + a.a3 * b.a1,
          a.a0 * b.a3 + a.a1 * b.a2 - a.a2 * b.a1 + a.a3 * b.a0};
}

/// The three SU(2) subgroups of SU(3) (index pairs).
constexpr int kSub[3][2] = {{0, 1}, {0, 2}, {1, 2}};

/// Update link w = U*A restricted to subgroup k, returning the embedded
/// SU(3) rotation g (identity outside the 2x2 block).
ColorMat<double> cm_subgroup_update(const ColorMat<double>& w, int k,
                                    double beta, Xoshiro256& rng) {
  const int i = kSub[k][0];
  const int j = kSub[k][1];
  // Project the 2x2 block onto the quaternion basis {1, i sigma}.
  const Quat wq{(w(i, i).re + w(j, j).re) / 2.0,
                (w(i, j).im + w(j, i).im) / 2.0,
                (w(i, j).re - w(j, i).re) / 2.0,
                (w(i, i).im - w(j, j).im) / 2.0};
  const double kn = std::sqrt(wq.a0 * wq.a0 + wq.a1 * wq.a1 +
                              wq.a2 * wq.a2 + wq.a3 * wq.a3);
  Quat g;
  if (kn < 1e-14) {
    // Degenerate environment: any SU(2) element is equally likely.
    const Quat h = su2_heatbath(1e-8, rng);
    g = h;
  } else {
    const Quat v{wq.a0 / kn, wq.a1 / kn, wq.a2 / kn, wq.a3 / kn};
    // P(h) ~ exp(2 beta k / Nc * h0); new block g = h * v^{-1}.
    const double alpha = 2.0 * beta * kn / 3.0;
    const Quat h = su2_heatbath(alpha, rng);
    const Quat vinv{v.a0, -v.a1, -v.a2, -v.a3};
    g = qmul(h, vinv);
  }
  // Embed g into SU(3).
  ColorMat<double> r = ColorMat<double>::identity();
  r(i, i) = {g.a0, g.a3};
  r(i, j) = {g.a2, g.a1};
  r(j, i) = {-g.a2, g.a1};
  r(j, j) = {g.a0, -g.a3};
  return r;
}

}  // namespace

void heatbath_sweep(GaugeField<double>& u, double beta, std::uint64_t seed,
                    int sweep_id) {
  const auto& geom = u.geom();
  const std::int64_t volh = geom.half_volume();
  // (parity, mu) classes update independently: the staple of a link at
  // parity p in direction mu reads mu-links only at the opposite parity and
  // nu != mu links everywhere, none of which are written in this class.
  for (int par = 0; par < 2; ++par) {
    for (int mu = 0; mu < 4; ++mu) {
      par::parallel_for(0, static_cast<size_t>(volh), [&](size_t cb) {
        const std::int64_t site = std::int64_t(par) * volh +
                                  static_cast<std::int64_t>(cb);
        Xoshiro256 rng(seed,
                       static_cast<std::uint64_t>(site),
                       static_cast<std::uint64_t>(
                           (std::uint64_t(sweep_id) * 8 + std::uint64_t(mu)) *
                               2 +
                           std::uint64_t(par)));
        ColorMat<double> link = u.load(mu, site);
        const ColorMat<double> a = staple(u, mu, site);
        for (int k = 0; k < 3; ++k) {
          const ColorMat<double> g =
              cm_subgroup_update(link * a, k, beta, rng);
          link = g * link;
        }
        u.store(mu, site, project_su3(link));
      });
    }
  }
  // 8 (parity, mu) classes of volh links: staple sum + 3 SU(2) subgroup
  // updates + projection (~4 matmuls-worth) each.  Traffic: the sweep
  // reads the staple environment and rewrites every link once.
  flops::add(8 * geom.half_volume() *
             (flops::kStapleFlops + 4 * flops::kSu3MatmulFlops));
  flops::add_bytes(2 * u.bytes());
}

GaugeField<double> quenched_config(std::shared_ptr<const Geometry> geom,
                                   double beta, int n_thermal,
                                   std::uint64_t seed) {
  GaugeField<double> u(std::move(geom));
  hot_gauge(u, seed);
  for (int sweep = 0; sweep < n_thermal; ++sweep)
    heatbath_sweep(u, beta, seed + 1, sweep);
  return u;
}

std::vector<GaugeField<double>> quenched_ensemble(
    std::shared_ptr<const Geometry> geom, double beta, int n_configs,
    int n_thermal, int decorrelation, std::uint64_t seed) {
  std::vector<GaugeField<double>> configs;
  configs.reserve(static_cast<std::size_t>(n_configs));
  GaugeField<double> u(std::move(geom));
  hot_gauge(u, seed);
  int sweep = 0;
  for (; sweep < n_thermal; ++sweep) heatbath_sweep(u, beta, seed + 1, sweep);
  for (int cfg = 0; cfg < n_configs; ++cfg) {
    for (int d = 0; d < decorrelation; ++d, ++sweep)
      heatbath_sweep(u, beta, seed + 1, sweep);
    configs.push_back(u);
  }
  return configs;
}

}  // namespace femto
