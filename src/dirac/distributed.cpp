#include "dirac/distributed.hpp"

#include "lattice/flops.hpp"

namespace femto {

namespace {

Spinor<double> load_spinor(const double* p) {
  Spinor<double> s;
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      s[sp][c] = {p[0], p[1]};
      p += 2;
    }
  return s;
}

void store_spinor(double* p, const Spinor<double>& s) {
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      p[0] = s[sp][c].re;
      p[1] = s[sp][c].im;
      p += 2;
    }
}

ColorMat<double> load_link(const double* p) {
  ColorMat<double> u;
  for (int i = 0; i < kNc * kNc; ++i) {
    u.m[static_cast<std::size_t>(i)] = {p[0], p[1]};
    p += 2;
  }
  return u;
}

void store_link(double* p, const ColorMat<double>& u) {
  for (int i = 0; i < kNc * kNc; ++i) {
    p[0] = u.m[static_cast<std::size_t>(i)].re;
    p[1] = u.m[static_cast<std::size_t>(i)].im;
    p += 2;
  }
}

}  // namespace

comm::HaloField scatter_spinor(const DistributedLattice& dl, int rank,
                               const SpinorField<double>& full) {
  const auto l = dl.local_extents();
  const auto o = dl.origin(rank);
  comm::HaloField f(l, kDistSpinorReals);
  const Geometry& g = full.geom();
  for (int t = 0; t < l[3]; ++t)
    for (int z = 0; z < l[2]; ++z)
      for (int y = 0; y < l[1]; ++y)
        for (int x = 0; x < l[0]; ++x) {
          const Coord gc{o[0] + x, o[1] + y, o[2] + z, o[3] + t};
          const auto s = full.load(0, g.index(gc));
          store_spinor(f.at(f.site(x, y, z, t)), s);
        }
  return f;
}

comm::HaloField scatter_gauge(const DistributedLattice& dl, int rank,
                              const GaugeField<double>& full) {
  const auto l = dl.local_extents();
  const auto o = dl.origin(rank);
  comm::HaloField f(l, kDistGaugeReals);
  const Geometry& g = full.geom();
  for (int t = 0; t < l[3]; ++t)
    for (int z = 0; z < l[2]; ++z)
      for (int y = 0; y < l[1]; ++y)
        for (int x = 0; x < l[0]; ++x) {
          const Coord gc{o[0] + x, o[1] + y, o[2] + z, o[3] + t};
          const auto site = g.index(gc);
          double* p = f.at(f.site(x, y, z, t));
          for (int mu = 0; mu < 4; ++mu) {
            const auto link = full.load(mu, site);
            for (int i = 0; i < kNc * kNc; ++i) {
              p[0] = link.m[static_cast<std::size_t>(i)].re;
              p[1] = link.m[static_cast<std::size_t>(i)].im;
              p += 2;
            }
          }
        }
  return f;
}

void gather_spinor(const DistributedLattice& dl, int rank,
                   const comm::HaloField& local, SpinorField<double>& full) {
  const auto l = dl.local_extents();
  const auto o = dl.origin(rank);
  const Geometry& g = full.geom();
  for (int t = 0; t < l[3]; ++t)
    for (int z = 0; z < l[2]; ++z)
      for (int y = 0; y < l[1]; ++y)
        for (int x = 0; x < l[0]; ++x) {
          const Coord gc{o[0] + x, o[1] + y, o[2] + z, o[3] + t};
          const auto s = load_spinor(local.at(local.site(x, y, z, t)));
          full.store(0, g.index(gc), s);
        }
}

std::int64_t gauge_wire_reals(GaugeFormat f) {
  return 4 * (f == GaugeFormat::kRecon12 ? kCompressedLinkReals : kLinkReals);
}

void exchange_gauge_halo(comm::RankHandle& h, const DistributedLattice& dl,
                         comm::HaloExchanger& ex, comm::HaloField& gauge,
                         GaugeFormat fmt, comm::HaloStats* stats) {
  if (fmt == GaugeFormat::kFull18) {
    // Bitwise-identical to the pre-tier path: no encode, no decode.
    ex.exchange(h, gauge, stats);
    return;
  }
  constexpr int wlr = kCompressedLinkReals;
  comm::HaloField wire(dl.local_extents(),
                       static_cast<int>(gauge_wire_reals(fmt)));
  for (std::int64_t s = 0; s < gauge.volume(); ++s) {
    const double* g = gauge.at(s);
    double* w = wire.at(s);
    for (int mu = 0; mu < 4; ++mu)
      encode_recon12(load_link(g + mu * kLinkReals), w + mu * wlr);
  }
  ex.exchange(h, wire, stats);
  // Decode every received face back into the 72-real ghost buffers the
  // stencil reads; interior links keep their full-precision storage.
  for (int mu = 0; mu < 4; ++mu) {
    for (std::int64_t f = 0; f < gauge.face_sites(mu); ++f) {
      for (int nu = 0; nu < 4; ++nu) {
        store_link(gauge.ghost_bwd(mu, f) + nu * kLinkReals,
                   decode_recon12(wire.ghost_bwd(mu, f) + nu * wlr));
        store_link(gauge.ghost_fwd(mu, f) + nu * kLinkReals,
                   decode_recon12(wire.ghost_fwd(mu, f) + nu * wlr));
      }
    }
  }
}

namespace {

/// Shared per-site stencil application for the distributed kernels.
struct Stencil {
  const DistributedLattice& dl;
  comm::HaloField& psi;
  const comm::HaloField& gauge;
  comm::HaloField& out;
  std::array<int, 4> l;
  std::array<int, 4> o;
  int fsign;

  Stencil(const DistributedLattice& dl_, comm::HaloField& psi_,
          const comm::HaloField& gauge_, comm::HaloField& out_, int rank,
          bool dagger)
      : dl(dl_),
        psi(psi_),
        gauge(gauge_),
        out(out_),
        l(dl_.local_extents()),
        o(dl_.origin(rank)),
        fsign(dagger ? -1 : +1) {}

  /// True when the site touches no distributed face (every neighbour is
  /// local): the INTERIOR the paper overlaps with communication.
  bool interior(const std::array<int, 4>& c) const {
    for (int mu = 0; mu < 4; ++mu) {
      if (dl.grid.dim(mu) == 1) continue;
      if (c[static_cast<std::size_t>(mu)] == 0 ||
          c[static_cast<std::size_t>(mu)] ==
              l[static_cast<std::size_t>(mu)] - 1)
        return false;
    }
    return true;
  }

  Spinor<double> psi_at(std::array<int, 4> c, int mu, int step) const {
    c[static_cast<std::size_t>(mu)] += step;
    if (c[static_cast<std::size_t>(mu)] < 0)
      return load_spinor(psi.ghost_bwd(mu, psi.face_index(mu, c)));
    if (c[static_cast<std::size_t>(mu)] >= l[static_cast<std::size_t>(mu)])
      return load_spinor(psi.ghost_fwd(mu, psi.face_index(mu, c)));
    return load_spinor(psi.at(psi.site(c[0], c[1], c[2], c[3])));
  }

  ColorMat<double> link_bwd(std::array<int, 4> c, int mu) const {
    c[static_cast<std::size_t>(mu)] -= 1;
    if (c[static_cast<std::size_t>(mu)] < 0)
      return load_link(gauge.ghost_bwd(mu, gauge.face_index(mu, c)) +
                       mu * kLinkReals);
    return load_link(gauge.at(gauge.site(c[0], c[1], c[2], c[3])) +
                     mu * kLinkReals);
  }

  void apply_site(const std::array<int, 4>& c) const {
    const int gt = o[3] + c[3];
    const int global_t = dl.global[3];
    const double* gp = gauge.at(gauge.site(c[0], c[1], c[2], c[3]));
    Spinor<double> acc;
    for (int mu = 0; mu < 4; ++mu) {
      {
        const auto nb = psi_at(c, mu, +1);
        auto hsp = project(mu, fsign, nb);
        hsp = mul(load_link(gp + mu * kLinkReals), hsp);
        if (mu == 3 && gt == global_t - 1) {
          hsp[0] *= -1.0;
          hsp[1] *= -1.0;
        }
        reconstruct_add(mu, fsign, hsp, acc);
      }
      {
        const auto nb = psi_at(c, mu, -1);
        auto hsp = project(mu, -fsign, nb);
        hsp = adj_mul(link_bwd(c, mu), hsp);
        if (mu == 3 && gt == 0) {
          hsp[0] *= -1.0;
          hsp[1] *= -1.0;
        }
        reconstruct_add(mu, -fsign, hsp, acc);
      }
    }
    store_spinor(out.at(out.site(c[0], c[1], c[2], c[3])), acc);
  }

  template <typename Pred>
  void apply_where(const Pred& pred) const {
    for (int t = 0; t < l[3]; ++t)
      for (int z = 0; z < l[2]; ++z)
        for (int y = 0; y < l[1]; ++y)
          for (int x = 0; x < l[0]; ++x) {
            const std::array<int, 4> c{x, y, z, t};
            if (pred(c)) apply_site(c);
          }
  }
};

}  // namespace

void distributed_dslash(comm::RankHandle& h, const DistributedLattice& dl,
                        comm::HaloExchanger& ex, comm::HaloField& psi,
                        const comm::HaloField& gauge,
                        comm::HaloField& out, bool dagger,
                        comm::HaloStats* stats) {
  // Steps 1-2: pack and communicate the spinor halo; steps 3-4 fused.
  ex.exchange(h, psi, stats);
  Stencil st(dl, psi, gauge, out, h.rank(), dagger);
  st.apply_where([](const std::array<int, 4>&) { return true; });
  flops::add(flops::kWilsonDslashPerSite * out.volume());
}

void distributed_dslash_overlapped(comm::RankHandle& h,
                                   const DistributedLattice& dl,
                                   comm::HaloExchanger& ex,
                                   comm::HaloField& psi,
                                   const comm::HaloField& gauge,
                                   comm::HaloField& out, bool dagger,
                                   comm::HaloStats* stats) {
  Stencil st(dl, psi, gauge, out, h.rank(), dagger);
  // Step 1: pack the halo into contiguous buffers and post it.
  ex.exchange_begin(h, psi, stats);
  // Step 3 (step 2, the communication, is in flight): interior stencil.
  st.apply_where(
      [&](const std::array<int, 4>& c) { return st.interior(c); });
  // Step 2 completes: receive and unpack the ghosts.
  ex.exchange_finish(h, psi, stats);
  // Step 4: complete the halo stencil.
  st.apply_where(
      [&](const std::array<int, 4>& c) { return !st.interior(c); });
  flops::add(flops::kWilsonDslashPerSite * out.volume());
}

}  // namespace femto
