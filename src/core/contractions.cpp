#include "core/contractions.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto::core {

namespace {

template <int W>
using CplxLanes = Cplx<simd::Lanes<double, W>>;
template <int W>
using SpinLanes = Propagator::SpinLanes<W>;
template <int W>
using ColorBlocks = Propagator::ColorBlocks<W>;

/// For each colour c, the two (a, b) with eps_abc != 0; `neg` marks
/// eps_abc = -1.
struct EpsPair {
  std::size_t a, b;
  bool neg;
};
constexpr EpsPair kEpsPairs[kNc][2] = {{{1, 2, false}, {2, 1, true}},
                                       {{2, 0, false}, {0, 2, true}},
                                       {{0, 1, false}, {1, 0, true}}};

/// A = G D G for a G with one entry of +-1 in every row and column (C g5
/// is such a signed permutation): A(i, j) = +-D(row[i], col[j]), so
/// forming a diquark block is a signed gather of D.
struct SignedGather {
  std::array<std::size_t, kNs> row{}, col{};
  std::array<std::array<bool, kNs>, kNs> neg{};
};

SignedGather signed_gather(const SpinMat& g) {
  SignedGather out;
  std::array<bool, kNs> row_neg{}, col_neg{};
  unsigned rows = 0, cols = 0, entries = 0;
  bool unit = true;
  for (std::size_t i = 0; i < kNs; ++i)
    for (std::size_t j = 0; j < kNs; ++j) {
      const cdouble v = g.m[i][j];
      if (v.re == 0.0 && v.im == 0.0) continue;
      unit = unit && v.im == 0.0 && std::abs(v.re) == 1.0;
      out.row[i] = j;  // (G D)(i, .) = G(i, j) D(j, .)
      out.col[j] = i;  // (D G)(., j) = D(., i) G(i, j)
      row_neg[i] = col_neg[j] = v.re < 0.0;
      rows |= 1u << i;
      cols |= 1u << j;
      ++entries;
    }
  if (!unit || entries != kNs || rows != (1u << kNs) - 1 || cols != rows)
    throw std::logic_error("contract: C g5 is not a signed permutation");
  for (std::size_t i = 0; i < kNs; ++i)
    for (std::size_t j = 0; j < kNs; ++j)
      out.neg[i][j] = row_neg[i] != col_neg[j];
  return out;
}

/// e += a x^T, or e -= a x^T: 16 entries of 4 complex multiplies, 3 adds
/// and the accumulation, 512 flops per lane.  Row i of a is read once for
/// the four entries of row i of e; each entry still sums j = 0..3 in order.
/// The k loops unroll so that the four sums stay in registers.
template <bool Sub, int W>
void accumulate_product_transposed(SpinLanes<W>& e, const SpinLanes<W>& a,
                                   const SpinLanes<W>& x) {
  for (std::size_t i = 0; i < kNs; ++i) {
    std::array<CplxLanes<W>, kNs> s;
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kNs; ++k) s[k] = a[i][0] * x[k][0];
#pragma GCC unroll 4
    for (std::size_t j = 1; j < kNs; ++j)
#pragma GCC unroll 4
      for (std::size_t k = 0; k < kNs; ++k) s[k] += a[i][j] * x[k][j];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < kNs; ++k) {
      if constexpr (Sub)
        e[i][k] -= s[k];
      else
        e[i][k] += s[k];
    }
  }
}

/// E_X^{cc'} = sum eps_abc eps_a'b'c' A^{bb'} (X^{aa'})^T: four products per
/// colour pair, 36 in all.
template <int W>
void diquark_blocks(const ColorBlocks<W>& a, const ColorBlocks<W>& x,
                    ColorBlocks<W>& e) {
  for (std::size_t c = 0; c < kNc; ++c)
    for (std::size_t cp = 0; cp < kNc; ++cp) {
      SpinLanes<W>& out = e[c][cp];
      out = SpinLanes<W>{};
      for (const EpsPair& l : kEpsPairs[c])
        for (const EpsPair& r : kEpsPairs[cp]) {
          const SpinLanes<W>& ab = a[l.b][r.b];
          const SpinLanes<W>& xa = x[l.a][r.a];
          if (l.neg != r.neg)
            accumulate_product_transposed<true, W>(out, ab, xa);
          else
            accumulate_product_transposed<false, W>(out, ab, xa);
        }
    }
}

/// acc -= sum_{cc'} [ sum_ik (Y^{cc'} P)_ik E^{cc'}_ik + tr(Y^{cc'} P)
/// tr(E^{cc'}) ].  Per colour pair: Y P (480 flops), its entrywise product
/// with E (128), the two traces (8 + 6), their product (6) and the two
/// adds into acc (4): 632 per lane.  Y P is formed a row at a time, as in
/// accumulate_product_transposed; dot still sums (i, k) in row order.
template <int W>
void close_diquark(const ColorBlocks<W>& e, const ColorBlocks<W>& y,
                   const SpinLanes<W>& p, CplxLanes<W>& acc) {
  for (std::size_t c = 0; c < kNc; ++c)
    for (std::size_t cp = 0; cp < kNc; ++cp) {
      const SpinLanes<W>& yb = y[c][cp];
      const SpinLanes<W>& eb = e[c][cp];
      CplxLanes<W> dot{}, tr_yp{};
      for (std::size_t i = 0; i < kNs; ++i) {
        std::array<CplxLanes<W>, kNs> yp;  // row i of Y P
#pragma GCC unroll 4
        for (std::size_t k = 0; k < kNs; ++k) yp[k] = yb[i][0] * p[0][k];
#pragma GCC unroll 4
        for (std::size_t j = 1; j < kNs; ++j)
#pragma GCC unroll 4
          for (std::size_t k = 0; k < kNs; ++k) yp[k] += yb[i][j] * p[j][k];
#pragma GCC unroll 4
        for (std::size_t k = 0; k < kNs; ++k) dot += yp[k] * eb[i][k];
        tr_yp += yp[i];
      }
      const CplxLanes<W> tr_e = eb[0][0] + eb[1][1] + eb[2][2] + eb[3][3];
      acc -= dot + tr_yp * tr_e;
    }
}

/// What every site of one contraction reads.
struct Lines {
  const Propagator& u;
  const Propagator* fh;
  const Propagator& down;
  SignedGather g;
  int t_src;
  std::array<int, 3> momentum;
  bool has_p;
};

/// One reduce chunk's scratch at width W: the colour blocks of U, D and
/// F, the diquark blocks A = G D G (formed once per site, shared by both
/// FH substitutions), E_U, E_F, and the projector broadcast into the
/// lanes.
template <int W>
struct Scratch {
  ColorBlocks<W> bu, bd, bf, a, eu, ef;
  SpinLanes<W> p;
  explicit Scratch(const SpinMat& projector) {
    for (std::size_t i = 0; i < kNs; ++i)
      for (std::size_t j = 0; j < kNs; ++j)
        p[i][j] = {simd::Lanes<double, W>(projector.m[i][j].re),
                   simd::Lanes<double, W>(projector.m[i][j].im)};
  }
};

/// Contracts sites site0 .. site0 + W - 1, one per lane, and adds each
/// site's term into its timeslice sum (@p part) in site order.
template <int W>
void contract_sites(const Lines& l, std::int64_t site0, Scratch<W>& s,
                    double* part) {
  const auto& geom = l.u.geom();
  const int nt = geom.extent(3);
  const SignedGather& g = l.g;

  l.u.load_color_blocks<W>(site0, s.bu);
  l.down.load_color_blocks<W>(site0, s.bd);
  for (std::size_t b = 0; b < kNc; ++b)
    for (std::size_t bp = 0; bp < kNc; ++bp)
      for (std::size_t i = 0; i < kNs; ++i)
        for (std::size_t j = 0; j < kNs; ++j) {
          const CplxLanes<W>& d = s.bd[b][bp][g.row[i]][g.col[j]];
          s.a[b][bp][i][j] = g.neg[i][j] ? -d : d;
        }

  CplxLanes<W> acc{};
  diquark_blocks<W>(s.a, s.bu, s.eu);
  if (!l.fh) {
    close_diquark<W>(s.eu, s.bu, s.p, acc);
  } else {
    l.fh->load_color_blocks<W>(site0, s.bf);
    diquark_blocks<W>(s.a, s.bf, s.ef);
    close_diquark<W>(s.ef, s.bu, s.p, acc);
    close_diquark<W>(s.eu, s.bf, s.p, acc);
  }

  for (int j = 0; j < W; ++j) {
    const auto x = geom.coord(site0 + j);
    const int t = (x[3] - l.t_src + nt) % nt;
    cdouble site_acc{simd::lane(acc.re, j), simd::lane(acc.im, j)};
    if (l.has_p) {
      double phase = 0.0;
      for (int i = 0; i < 3; ++i)
        phase -= 2.0 * std::numbers::pi * l.momentum[i] * x[i] /
                 geom.extent(i);
      site_acc = site_acc * cdouble{std::cos(phase), std::sin(phase)};
    }
    part[2 * t] += site_acc.re;
    part[2 * t + 1] += site_acc.im;
  }
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

}  // namespace

/// Nucleon contraction from the Wick theorem.  With the interpolator
/// chi = eps_abc (u_a^T G d_b) u_c, G = C g5, the projected correlator is
///
///   C = sum_{eps, eps'} s(eps) s(eps') [ T2 - T1 ],
///   T1 = tr(P U^{cc'}) tr( A^{bb'} (U^{aa'})^T ),
///   T2 = tr( A^{bb'} (U^{ca'})^T P^T (U^{ac'})^T ),
///   A  = G D G,
///
/// where the transposes on the u blocks come from the diquark index
/// structure (u^T G d).  Both terms factor through the per-site diquark
/// blocks E_X^{cc'} = sum eps eps' A^{bb'} (X^{aa'})^T: T1 sums to
/// tr(P Y^{cc'}) tr(E^{cc'}), and relabelling a <-> c in the first epsilon
/// (which flips its sign) turns T2 into -tr(E^{cc'} (Y^{cc'} P)^T), so
///
///   C = -sum_{cc'} [ sum_ik (Y^{cc'} P)_ik E_X^{cc'}_ik
///                    + tr(Y^{cc'} P) tr(E_X^{cc'}) ]
///
/// with (X, Y) = (U, U).  The FH correlator replaces each u contraction
/// by the FH propagator F in turn: (X, Y) = (F, U) plus (U, F).
///
/// Each reduce chunk [lo, hi) runs W sites per step from lo and its last
/// (hi - lo) mod W sites at W = 1.
template <int W>
Correlator nucleon_contract(const Propagator& up, const Propagator* fh_up,
                            const Propagator& down, const SpinMat& projector,
                            int t_src, std::array<int, 3> momentum) {
  const auto& geom = up.geom();
  const int nt = geom.extent(3);
  const Lines lines{up,
                    fh_up,
                    down,
                    signed_gather(cgamma5()),
                    t_src,
                    momentum,
                    momentum[0] != 0 || momentum[1] != 0 || momentum[2] != 0};

  std::vector<double> sums(2 * static_cast<std::size_t>(nt));
  par::parallel_reduce_n(
      0, static_cast<std::size_t>(geom.volume()), sums.size(),
      [&](std::size_t lo, std::size_t hi, double* part) {
        auto ss = static_cast<std::int64_t>(lo);
        const auto end = static_cast<std::int64_t>(hi);
        Scratch<W> lanes(projector);
        for (; ss + W <= end; ss += W) contract_sites(lines, ss, lanes, part);
        if constexpr (W > 1) {
          if (ss == end) return;
          Scratch<1> tail(projector);
          for (; ss < end; ++ss) contract_sites(lines, ss, tail, part);
        }
      },
      sums.data(), 64);

  // The per-site model of contractions.hpp; one read pass per propagator.
  const bool with_fh = fh_up != nullptr;
  flops::add(geom.volume() * (with_fh ? kNucleonFhFlopsPerSite
                                      : kNucleonTwoPointFlopsPerSite));
  flops::add_bytes(geom.volume() * kPropagatorSiteBytes * (with_fh ? 3 : 2));
  return to_correlator(sums);
}

// One instantiation per entry of kContractWidths.
static_assert(kContractWidths == std::array<int, 4>{1, 2, 4, 8});
template Correlator nucleon_contract<1>(const Propagator&, const Propagator*,
                                        const Propagator&, const SpinMat&,
                                        int, std::array<int, 3>);
template Correlator nucleon_contract<2>(const Propagator&, const Propagator*,
                                        const Propagator&, const SpinMat&,
                                        int, std::array<int, 3>);
template Correlator nucleon_contract<4>(const Propagator&, const Propagator*,
                                        const Propagator&, const SpinMat&,
                                        int, std::array<int, 3>);
template Correlator nucleon_contract<8>(const Propagator&, const Propagator*,
                                        const Propagator&, const SpinMat&,
                                        int, std::array<int, 3>);

Correlator nucleon_two_point(const Propagator& up, const Propagator& down,
                             const SpinMat& projector, int t_src) {
  return nucleon_contract(up, nullptr, down, projector, t_src);
}

Correlator nucleon_two_point_momentum(const Propagator& up,
                                      const Propagator& down,
                                      const SpinMat& projector, int t_src,
                                      std::array<int, 3> momentum) {
  return nucleon_contract(up, nullptr, down, projector, t_src, momentum);
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
  flops::add_bytes(geom.volume() * kPropagatorSiteBytes);
  return to_correlator(sums);
}

Correlator nucleon_fh_three_point(const Propagator& up,
                                  const Propagator& fh_up,
                                  const Propagator& down,
                                  const SpinMat& projector, int t_src) {
  return nucleon_contract(up, &fh_up, down, projector, t_src);
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
