#include "core/contractions.hpp"

#include <cmath>
#include <numbers>

#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto::core {

namespace {

/// Bytes of one propagator's data at a single site: 12 source components,
/// each a 24-real double spinor.
constexpr std::int64_t kPropSiteBytes =
    12 * kSpinorReals * static_cast<std::int64_t>(sizeof(double));

/// Coarse flop model for one Levi-Civita pair in the nucleon contraction:
/// ~5 SpinMat (4x4 complex) multiplies at 4*4*(4*3+2*2) = 384+ flops plus
/// block extraction and traces.
constexpr std::int64_t kEpsPairFlops = 2500;

/// The nonzero entries of the 3D Levi-Civita tensor.
struct Eps {
  int a, b, c;
  double sign;
};
constexpr Eps kEps[6] = {{0, 1, 2, +1.0}, {1, 2, 0, +1.0}, {2, 0, 1, +1.0},
                         {0, 2, 1, -1.0}, {2, 1, 0, -1.0}, {1, 0, 2, -1.0}};

/// Spin matrix view of a propagator's (snk_color, src_color) block.
SpinMat color_block(const Propagator::SiteMatrix& m, int snk_c, int src_c) {
  SpinMat s;
  for (int r = 0; r < kNs; ++r)
    for (int c = 0; c < kNs; ++c)
      s(r, c) = m[static_cast<std::size_t>(r)][static_cast<std::size_t>(
          snk_c)][static_cast<std::size_t>(c)][static_cast<std::size_t>(
          src_c)];
  return s;
}

/// The correlator held in the 2*nt (re, im) timeslice sums that
/// parallel_reduce_n combines in chunk order, so its bits do not depend on
/// the thread count.
Correlator to_correlator(const std::vector<double>& sums) {
  Correlator corr(sums.size() / 2);
  for (std::size_t t = 0; t < corr.size(); ++t)
    corr[t] = cdouble{sums[2 * t], sums[2 * t + 1]};
  return corr;
}

/// Nucleon contraction from the Wick theorem.  With the interpolator
/// chi = eps_abc (u_a^T G d_b) u_c, G = C g5, the projected correlator is
///
///   C = sum_{eps, eps'} s(eps) s(eps') [ T2 - T1 ],
///   T1 = tr(P U^{cc'}) tr( A (U^{aa'})^T ),
///   T2 = tr( A (U^{ca'})^T P^T (U^{ac'})^T ),
///   A  = G D^{bb'} G,
///
/// where the TRANSPOSES on the u blocks come from the diquark index
/// structure (u^T G d).  The FH correlator is the derivative of C with
/// respect to replacing each u-propagator contraction by the FH
/// propagator F, one contraction at a time:
///   C_FH = sum over the two u-contractions in each term of U -> F.
Correlator contract(const Propagator& u, const Propagator* fh,
                    const Propagator& down, const SpinMat& projector,
                    int t_src, std::array<int, 3> momentum = {0, 0, 0}) {
  const auto& geom = u.geom();
  const int nt = geom.extent(3);
  const SpinMat cg5 = cgamma5();
  const SpinMat proj_t = projector.transpose();
  const bool has_p =
      momentum[0] != 0 || momentum[1] != 0 || momentum[2] != 0;

  std::vector<double> sums(2 * static_cast<std::size_t>(nt));
  par::parallel_reduce_n(
      0, static_cast<std::size_t>(geom.volume()), sums.size(),
      [&](std::size_t lo, std::size_t hi, double* part) {
        for (std::size_t ss = lo; ss < hi; ++ss) {
          const auto site = static_cast<std::int64_t>(ss);
          const auto x = geom.coord(site);
          const int t = (x[3] - t_src + nt) % nt;

          const auto m_u = u.site_matrix(site);
          const auto md = down.site_matrix(site);
          Propagator::SiteMatrix m_f{};
          if (fh) m_f = fh->site_matrix(site);

          // T2 - T1 with the u blocks X (at aa' / ca') and Y (at cc'/ac').
          auto terms = [&](const Propagator::SiteMatrix& mx,
                           const Propagator::SiteMatrix& my) {
            cdouble sum{};
            for (const auto& e1 : kEps)
              for (const auto& e2 : kEps) {
                const double sgn = e1.sign * e2.sign;
                const SpinMat a =
                    cg5 * color_block(md, e1.b, e2.b) * cg5;
                const SpinMat x_aa =
                    color_block(mx, e1.a, e2.a).transpose();
                const SpinMat y_cc = color_block(my, e1.c, e2.c);
                const cdouble t1 =
                    (projector * y_cc).trace() * (a * x_aa).trace();
                const SpinMat x_ca =
                    color_block(mx, e1.c, e2.a).transpose();
                const SpinMat y_ac =
                    color_block(my, e1.a, e2.c).transpose();
                const cdouble t2 =
                    (a * x_ca * proj_t * y_ac).trace();
                sum += sgn * (t2 - t1);
              }
            return sum;
          };

          cdouble acc{};
          if (!fh) {
            acc = terms(m_u, m_u);
          } else {
            // Single substitution on each u contraction, summed.
            acc = terms(m_f, m_u) + terms(m_u, m_f);
          }
          if (has_p) {
            double phase = 0.0;
            for (int i = 0; i < 3; ++i)
              phase -= 2.0 * std::numbers::pi * momentum[i] * x[i] /
                       geom.extent(i);
            acc = acc * cdouble{std::cos(phase), std::sin(phase)};
          }
          part[2 * t] += acc.re;
          part[2 * t + 1] += acc.im;
        }
      },
      sums.data(), 64);

  // 36 Levi-Civita pairs per site, twice when the FH substitution doubles
  // the Wick terms; traffic is one read pass per propagator streamed.
  flops::add(geom.volume() * 36 * kEpsPairFlops * (fh != nullptr ? 2 : 1));
  flops::add_bytes(geom.volume() * kPropSiteBytes *
                   (fh != nullptr ? 3 : 2));
  return to_correlator(sums);
}

}  // namespace

Correlator nucleon_two_point(const Propagator& up, const Propagator& down,
                             const SpinMat& projector, int t_src) {
  return contract(up, nullptr, down, projector, t_src);
}

Correlator nucleon_two_point_momentum(const Propagator& up,
                                      const Propagator& down,
                                      const SpinMat& projector, int t_src,
                                      std::array<int, 3> momentum) {
  return contract(up, nullptr, down, projector, t_src, momentum);
}

Correlator pion_two_point(const Propagator& quark, int t_src,
                          std::array<int, 3> momentum) {
  const auto& geom = quark.geom();
  const int nt = geom.extent(3);
  std::vector<double> sums(2 * static_cast<std::size_t>(nt));
  par::parallel_reduce_n(
      0, static_cast<std::size_t>(geom.volume()), sums.size(),
      [&](std::size_t lo, std::size_t hi, double* part) {
        for (std::size_t ss = lo; ss < hi; ++ss) {
          const auto site = static_cast<std::int64_t>(ss);
          const auto x = geom.coord(site);
          const int t = (x[3] - t_src + nt) % nt;
          double a2 = 0.0;
          for (int sp = 0; sp < kNs; ++sp)
            for (int c = 0; c < kNc; ++c) {
              const auto col = quark.column(sp, c).load(0, site);
              for (int s2 = 0; s2 < kNs; ++s2) a2 += norm2(col[s2]);
            }
          double phase = 0.0;
          for (int i = 0; i < 3; ++i)
            phase -= 2.0 * std::numbers::pi * momentum[i] * x[i] /
                     geom.extent(i);
          part[2 * t] += a2 * std::cos(phase);
          part[2 * t + 1] += a2 * std::sin(phase);
        }
      },
      sums.data(), 64);
  // Per site: |column|^2 over 12 sources x 4 sink spins (3 flops per
  // complex norm) plus the momentum phase; one propagator read pass.
  flops::add(geom.volume() * (12 * 4 * kNc + 24));
  flops::add_bytes(geom.volume() * kPropSiteBytes);
  return to_correlator(sums);
}

Correlator nucleon_fh_three_point(const Propagator& up,
                                  const Propagator& fh_up,
                                  const Propagator& down,
                                  const SpinMat& projector, int t_src) {
  return contract(up, &fh_up, down, projector, t_src);
}

std::vector<double> fh_effective_coupling_series(const Correlator& c2,
                                                 const Correlator& cfh) {
  std::vector<double> g;
  for (std::size_t t = 0; t + 1 < c2.size(); ++t) {
    const double r0 = (cfh[t] / c2[t]).re;
    const double r1 = (cfh[t + 1] / c2[t + 1]).re;
    g.push_back(r1 - r0);
  }
  return g;
}

std::vector<double> effective_mass(const Correlator& c2) {
  std::vector<double> m;
  for (std::size_t t = 0; t + 1 < c2.size(); ++t) {
    const double r = c2[t].re / c2[t + 1].re;
    m.push_back(r > 0 ? std::log(r) : 0.0);
  }
  return m;
}

}  // namespace femto::core
