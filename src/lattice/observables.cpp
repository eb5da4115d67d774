#include "lattice/observables.hpp"

#include <cmath>

#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {

namespace {

/// Ordered product of links along a straight segment of @p len steps in
/// direction mu starting at @p site; returns the product and the end site.
ColorMat<double> line_product(const GaugeField<double>& u,
                              std::int64_t& site, int mu, int len) {
  ColorMat<double> p = ColorMat<double>::identity();
  for (int k = 0; k < len; ++k) {
    p = p * u.load(mu, site);
    site = u.geom().site_fwd(site, mu);
  }
  return p;
}

}  // namespace

double wilson_loop(const GaugeField<double>& u, int r, int t) {
  const auto& geom = u.geom();
  double sum = 0.0;
  par::parallel_reduce_n(
      0, static_cast<std::size_t>(geom.volume()), 1,
      [&](std::size_t lo, std::size_t hi, double* partial) {
        double acc = 0.0;
        for (std::size_t s = lo; s < hi; ++s) {
          for (int mu = 0; mu < 4; ++mu)
            for (int nu = mu + 1; nu < 4; ++nu) {
              // Go r in mu, t in nu, then back (daggered returns).
              std::int64_t x = static_cast<std::int64_t>(s);
              const ColorMat<double> bottom = line_product(u, x, mu, r);
              const ColorMat<double> right = line_product(u, x, nu, t);
              std::int64_t y = static_cast<std::int64_t>(s);
              const ColorMat<double> left = line_product(u, y, nu, t);
              const ColorMat<double> top = line_product(u, y, mu, r);
              // W = tr[ bottom * right * (left * top)^dag ]
              acc += trace(bottom * right * adj(left * top)).re;
            }
        }
        partial[0] = acc;
      },
      &sum);
  // Per site and plane: two line products of r and t links plus the 3
  // matmuls combining the four sides.  One read pass over the gauge field
  // (repeated loads of the same links are cache traffic, not compulsory).
  flops::add(geom.volume() * 6 * (2 * std::int64_t(r + t) + 3) *
             flops::kSu3MatmulFlops);
  flops::add_bytes(u.bytes());
  return sum / (3.0 * 6.0 * static_cast<double>(geom.volume()));
}

double creutz_ratio(const GaugeField<double>& u, int r, int t) {
  const double w_rt = wilson_loop(u, r, t);
  const double w_r1t1 = wilson_loop(u, r - 1, t - 1);
  const double w_rt1 = wilson_loop(u, r, t - 1);
  const double w_r1t = wilson_loop(u, r - 1, t);
  return -std::log((w_rt * w_r1t1) / (w_rt1 * w_r1t));
}

Cplx<double> polyakov_loop(const GaugeField<double>& u) {
  const auto& geom = u.geom();
  const int nt = geom.extent(3);
  Cplx<double> sum{};
  std::int64_t count = 0;
  // Walk every spatial site on the t = 0 slice and wind around time.
  for (std::int64_t s = 0; s < geom.volume(); ++s) {
    if (geom.coord(s)[3] != 0) continue;
    std::int64_t x = s;
    const ColorMat<double> line = line_product(u, x, 3, nt);
    sum += trace(line);
    ++count;
  }
  return Cplx<double>(1.0 / (3.0 * static_cast<double>(count))) * sum;
}

ColorMat<double> clover_field_strength(const GaugeField<double>& u,
                                       std::int64_t site, int mu, int nu) {
  const auto& g = u.geom();
  // The four plaquette leaves around `site` in the (mu, nu) plane.
  const auto xpm = g.site_fwd(site, mu);
  const auto xpn = g.site_fwd(site, nu);
  const auto xmm = g.site_bwd(site, mu);
  const auto xmn = g.site_bwd(site, nu);
  const auto xpm_mn = g.site_bwd(xpm, nu);
  const auto xmm_pn = g.site_fwd(xmm, nu);
  const auto xmm_mn = g.site_bwd(xmm, nu);

  // The four plaquette leaves, all traversed counter-clockwise in the
  // (mu, nu) plane and all based at `site`.
  // leaf 1 (+mu, +nu): U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag
  ColorMat<double> clover = u.load(mu, site) * u.load(nu, xpm) *
                            adj(u.load(nu, site) * u.load(mu, xpn));
  // leaf 2 (+nu, -mu): U_nu(x) U_mu(x-mu+nu)^dag U_nu(x-mu)^dag U_mu(x-mu)
  clover += u.load(nu, site) * adj(u.load(mu, xmm_pn)) *
            adj(u.load(nu, xmm)) * u.load(mu, xmm);
  // leaf 3 (-mu, -nu): U_mu(x-mu)^dag U_nu(x-mu-nu)^dag U_mu(x-mu-nu)
  //                    U_nu(x-nu)
  clover += adj(u.load(mu, xmm)) * adj(u.load(nu, xmm_mn)) *
            u.load(mu, xmm_mn) * u.load(nu, xmn);
  // leaf 4 (-nu, +mu): U_nu(x-nu)^dag U_mu(x-nu) U_nu(x+mu-nu) U_mu(x)^dag
  clover += adj(u.load(nu, xmn)) * u.load(mu, xmn) * u.load(nu, xpm_mn) *
            adj(u.load(mu, site));

  // F = (Q - Q^dag)/8 minus the trace part (antihermitian traceless).
  ColorMat<double> f = clover - adj(clover);
  f *= 1.0 / 8.0;
  const Cplx<double> tr = trace(f);
  const Cplx<double> third{tr.re / 3.0, tr.im / 3.0};
  for (int i = 0; i < kNc; ++i) f(i, i) -= third;
  return f;
}

double action_density(const GaugeField<double>& u) {
  const auto& geom = u.geom();
  double sum = 0.0;
  par::parallel_reduce_n(
      0, static_cast<std::size_t>(geom.volume()), 1,
      [&](std::size_t lo, std::size_t hi, double* partial) {
        double acc = 0.0;
        for (std::size_t s = lo; s < hi; ++s)
          for (int mu = 0; mu < 4; ++mu)
            for (int nu = mu + 1; nu < 4; ++nu) {
              const auto f = clover_field_strength(
                  u, static_cast<std::int64_t>(s), mu, nu);
              acc += norm2(f);  // tr[F^dag F]
            }
        partial[0] = acc;
      },
      &sum);
  // Per site and plane: the 4-leaf clover (12 matmuls plus adds and the
  // antihermitian projection, ~13 matmuls-worth) and its norm.
  flops::add(geom.volume() * 6 * 13 * flops::kSu3MatmulFlops);
  flops::add_bytes(u.bytes());
  return sum / static_cast<double>(geom.volume());
}

}  // namespace femto
