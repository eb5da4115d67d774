#include "dirac/wilson.hpp"

#include <type_traits>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/blocked_spinor.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "simd/vec.hpp"

namespace femto {

namespace {

// One stencil, batched.  A call applies the dslash to B right-hand sides
// of l5 slices each, and the vector variants run over one flattened lane
// axis
//     l = s*B + r        (RHS index fastest, l < l5*B)
// W lanes at a time.  Every lane of a block sits at the same 4D site, so
// the site's 8 gauge links (constant across s5 and across RHSs) broadcast
// to all lanes, and lane arithmetic is elementwise: Spinor<E>, project(),
// mul()/adj_mul() and reconstruct_add() are element-type generic, so each
// (s, r) lane does exactly the scalar reference's arithmetic and per-RHS
// output is bitwise independent of the batch and of the variant.  At
// B = 1 the lanes are fifth-dim slices (QUDA's DWF vectorization); when W
// divides B every block holds W right-hand sides of one slice.  The
// single-RHS entry points are the batch of one.
//
// The time-boundary phases (+-1) are folded into the per-site link copies
// once, outside the lane loop: multiplying a link by -1 is exact and
// distributes exactly over the mat-vec, so this is bitwise identical to
// the seed kernel's per-s5 `h *= phase` branch while removing the branch
// from the inner loop entirely.

template <typename T, int W>
using V = simd::Vec<T, W>;

/// Deducible width tag: lets dslash_kernel_multi select a width without
/// explicit template brackets at the call site (which would also hide the
/// call from femtolint's name-based kernel-traffic graph).
template <int W>
using WidthTag = std::integral_constant<int, W>;

/// Broadcast a scalar link into every lane.
template <int W, typename T>
ColorMat<V<T, W>> broadcast_mat(const ColorMat<T>& u) {
  ColorMat<V<T, W>> r;
  for (int i = 0; i < kNc * kNc; ++i) {
    r.m[static_cast<std::size_t>(i)] = {
        V<T, W>(u.m[static_cast<std::size_t>(i)].re),
        V<T, W>(u.m[static_cast<std::size_t>(i)].im)};
  }
  return r;
}

/// Gather a W-lane spinor: lane j reads the spinor at bases[j] + off.
/// Lanes >= nl stay zero.
template <int W, typename T>
Spinor<V<T, W>> gather_lanes(const T* const* bases, std::int64_t off,
                             int nl) {
  Spinor<V<T, W>> p;
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      const std::int64_t k = off + (sp * kNc + c) * 2;
      V<T, W> re, im;
      for (int j = 0; j < nl; ++j) {
        re.set(j, bases[j][k]);
        im.set(j, bases[j][k + 1]);
      }
      p[sp][c] = {re, im};
    }
  return p;
}

/// Scatter lanes [0, nl) back to bases[j] + off.
template <int W, typename T>
void scatter_lanes(T* const* bases, std::int64_t off, int nl,
                   const Spinor<V<T, W>>& p) {
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      const std::int64_t k = off + (sp * kNc + c) * 2;
      for (int j = 0; j < nl; ++j) {
        bases[j][k] = p[sp][c].re[j];
        bases[j][k + 1] = p[sp][c].im[j];
      }
    }
}

/// Contiguous W-lane load from a lane-blocked site record ([real][lane]).
template <int W, typename T>
Spinor<V<T, W>> load_blocked(const T* q) {
  Spinor<V<T, W>> p;
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      const int k = (sp * kNc + c) * 2;
      p[sp][c] = {V<T, W>::load(q + k * W), V<T, W>::load(q + (k + 1) * W)};
    }
  return p;
}

template <int W, typename T>
void store_blocked(T* q, const Spinor<V<T, W>>& p) {
  for (int sp = 0; sp < kNs; ++sp)
    for (int c = 0; c < kNc; ++c) {
      const int k = (sp * kNc + c) * 2;
      p[sp][c].re.store(q + k * W);
      p[sp][c].im.store(q + (k + 1) * W);
    }
}

/// Per-site stencil context: the 8 phased links and neighbour indices,
/// gathered once and reused across every slice and right-hand side.
template <typename T, typename GaugeT>
struct SiteLinks {
  ColorMat<T> ufwd[4], ubwd[4];
  std::int64_t nf[4], nb[4];

  SiteLinks(const Geometry& geom, const GaugeT& u, int out_parity,
            std::int64_t cb) {
    const std::int64_t volh = geom.half_volume();
    const int in_parity = 1 - out_parity;
    const std::int64_t gsite = std::int64_t(out_parity) * volh + cb;
    for (int mu = 0; mu < 4; ++mu) {
      nf[mu] = geom.neighbor_fwd(out_parity, cb, mu);
      nb[mu] = geom.neighbor_bwd(out_parity, cb, mu);
      ufwd[mu] = u.load(mu, gsite);
      ubwd[mu] = u.load(mu, std::int64_t(in_parity) * volh + nb[mu]);
      const T pf = static_cast<T>(geom.phase_fwd(out_parity, cb, mu));
      const T pb = static_cast<T>(geom.phase_bwd(out_parity, cb, mu));
      if (pf != T(1)) ufwd[mu] *= pf;
      if (pb != T(1)) ubwd[mu] *= pb;
    }
  }
};

/// The bitwise reference: one 5D site of one right-hand side at a time,
/// the links kept in registers across the batch (otherwise the seed
/// kernel).
template <typename T, typename GaugeT>
void dslash_multi_body_scalar(std::span<const SpinorView<T>> out,
                              const GaugeT& u,
                              std::span<const SpinorView<const T>> in,
                              int out_parity, bool dagger,
                              std::size_t grain) {
  const Geometry& geom = u.geom();
  const int l5 = out[0].l5;
  const int fsign = dagger ? -1 : +1;
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(geom.half_volume()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t cbs = lo; cbs < hi; ++cbs) {
          const auto cb = static_cast<std::int64_t>(cbs);
          const SiteLinks<T, GaugeT> lk(geom, u, out_parity, cb);
          for (std::size_t r = 0; r < out.size(); ++r) {
            const SpinorView<const T>& vin = in[r];
            for (int s = 0; s < l5; ++s) {
              Spinor<T> acc;  // zero
              for (int mu = 0; mu < 4; ++mu) {
                // Forward: U_mu(x) (1 -+ g_mu) psi(x+mu)
                reconstruct_add(
                    mu, fsign,
                    mul(lk.ufwd[mu],
                        project(mu, fsign, vin.load(s, lk.nf[mu]))),
                    acc);
                // Backward: U_mu(x-mu)^dag (1 +- g_mu) psi(x-mu)
                reconstruct_add(
                    mu, -fsign,
                    adj_mul(lk.ubwd[mu],
                            project(mu, -fsign, vin.load(s, lk.nb[mu]))),
                    acc);
              }
              out[r].store(s, cb, acc);
            }
          }
        }
      },
      grain);
}

/// Lane-vectorized over the standard layouts: each W-lane load is a
/// gather through the per-lane slice bases (lane_bases, computed once per
/// call), links broadcast once per site.
template <int W, typename T, typename GaugeT>
void dslash_multi_body_vector(WidthTag<W>, std::span<const SpinorView<T>> out,
                              const GaugeT& u,
                              std::span<const SpinorView<const T>> in,
                              int out_parity, bool dagger,
                              std::size_t grain) {
  const Geometry& geom = u.geom();
  const int fsign = dagger ? -1 : +1;
  const std::vector<const T*> ib = lane_bases(in);
  const std::vector<T*> ob = lane_bases(out);
  const int lanes = static_cast<int>(ib.size());
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(geom.half_volume()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t cbs = lo; cbs < hi; ++cbs) {
          const auto cb = static_cast<std::int64_t>(cbs);
          const SiteLinks<T, GaugeT> lk(geom, u, out_parity, cb);
          ColorMat<V<T, W>> vfwd[4], vbwd[4];
          for (int mu = 0; mu < 4; ++mu) {
            vfwd[mu] = broadcast_mat<W>(lk.ufwd[mu]);
            vbwd[mu] = broadcast_mat<W>(lk.ubwd[mu]);
          }
          for (int l0 = 0; l0 < lanes; l0 += W) {
            const int nl = l0 + W <= lanes ? W : lanes - l0;
            const T* const* b = ib.data() + l0;
            Spinor<V<T, W>> acc;  // zero
            for (int mu = 0; mu < 4; ++mu) {
              reconstruct_add(
                  mu, fsign,
                  mul(vfwd[mu],
                      project(mu, fsign,
                              gather_lanes<W>(b, lk.nf[mu] * kSpinorReals,
                                              nl))),
                  acc);
              reconstruct_add(
                  mu, -fsign,
                  adj_mul(vbwd[mu],
                          project(mu, -fsign,
                                  gather_lanes<W>(
                                      b, lk.nb[mu] * kSpinorReals, nl))),
                  acc);
            }
            scatter_lanes<W>(ob.data() + l0, cb * kSpinorReals, nl, acc);
          }
        }
      },
      grain);
}

/// Lane-vectorized over the lane-blocked transpose: pack the B inputs
/// into [lane_block][site][real][lane] scratch, run the stencil with
/// contiguous vector loads/stores, unpack the B outputs.  Charges the
/// pack/unpack traffic on top of the compulsory stencil traffic (see
/// dslash_kernel_multi).
template <int W, typename T, typename GaugeT>
void dslash_multi_body_blocked(WidthTag<W>, std::span<const SpinorView<T>> out,
                               const GaugeT& u,
                               std::span<const SpinorView<const T>> in,
                               int out_parity, bool dagger,
                               std::size_t grain) {
  const Geometry& geom = u.geom();
  const int l5 = out[0].l5;
  const int fsign = dagger ? -1 : +1;
  const int nb = static_cast<int>(out.size());

  // Thread-local scratch reused across calls (one pair per calling thread,
  // shared by every batch size); see BlockedMultiSpinor::reshape for why
  // allocating fresh buffers here would eat most of the blocked variant's
  // win.  The body below must see the CALLER's pair: a thread_local named
  // inside the parallel lambda is not captured, it resolves to each pool
  // worker's own (unsized) instance.  Hence the references.
  thread_local BlockedMultiSpinor<T, W> tl_in(0, 0, 0), tl_out(0, 0, 0);
  BlockedMultiSpinor<T, W>& bin = tl_in;
  BlockedMultiSpinor<T, W>& bout = tl_out;
  bin.reshape(in[0].sites, l5, nb);
  bout.reshape(out[0].sites, l5, nb);
  bin.pack(in, grain);

  par::parallel_for_chunked(
      0, static_cast<std::size_t>(geom.half_volume()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t cbs = lo; cbs < hi; ++cbs) {
          const auto cb = static_cast<std::int64_t>(cbs);
          const SiteLinks<T, GaugeT> lk(geom, u, out_parity, cb);
          ColorMat<V<T, W>> vfwd[4], vbwd[4];
          for (int mu = 0; mu < 4; ++mu) {
            vfwd[mu] = broadcast_mat<W>(lk.ufwd[mu]);
            vbwd[mu] = broadcast_mat<W>(lk.ubwd[mu]);
          }
          for (int b = 0; b < bin.blocks(); ++b) {
            Spinor<V<T, W>> acc;  // zero
            for (int mu = 0; mu < 4; ++mu) {
              reconstruct_add(
                  mu, fsign,
                  mul(vfwd[mu],
                      project(mu, fsign,
                              load_blocked<W>(bin.block(b, lk.nf[mu])))),
                  acc);
              reconstruct_add(
                  mu, -fsign,
                  adj_mul(vbwd[mu],
                          project(mu, -fsign,
                                  load_blocked<W>(bin.block(b, lk.nb[mu])))),
                  acc);
            }
            store_blocked<W>(bout.block(b, cb), acc);
          }
        }
      },
      grain);

  bout.unpack(out, grain);
  // Pack reads the B input parities and writes the blocked copy; unpack
  // does the reverse for the outputs.  Extra traffic the autotuner must
  // see.
  const std::int64_t plain_bytes =
      static_cast<std::int64_t>(nb) * in[0].sites * l5 * kSpinorReals *
      static_cast<std::int64_t>(sizeof(T));
  flops::add_bytes(2 * plain_bytes + bin.bytes() + bout.bytes());
}

/// The stencil, generic over the gauge container (full 18-real storage or
/// reconstruct-12 compressed -- the container's load() is the only thing
/// that differs).  Dispatches on the tuned variant; the vector paths run
/// at the build's native width (Vec<T, 1> when FEMTO_SIMD=OFF).  The flop
/// charge scales with B; the compulsory byte charge streams each per-RHS
/// spinor pair but the gauge field ONCE per call -- the amortization the
/// femtoscope AI derivation sees (bytes/site(B) in DESIGN.md §12).
template <typename T, typename GaugeT>
void dslash_kernel_multi(std::span<const SpinorView<T>> out, const GaugeT& u,
                         std::span<const SpinorView<const T>> in,
                         int out_parity, bool dagger,
                         const DslashTuning& tune) {
  FEMTO_TRACE_SCOPE("dirac", "dslash");
  const std::size_t nb = out.size();
  if (nb == 0) return;
  FEMTO_ASSERT(in.size() == nb);
  for (std::size_t r = 0; r < nb; ++r) {
    FEMTO_ASSERT(out[r].l5 == out[0].l5 && in[r].l5 == out[0].l5);
    FEMTO_ASSERT(out[r].sites == out[0].sites && in[r].sites == in[0].sites);
    FEMTO_ASSERT(out[r].stride == out[0].stride &&
                 in[r].stride == in[0].stride);
  }
  const int l5 = out[0].l5;
  const std::size_t grain = tune.grain ? tune.grain : site_grain(l5, nb);
  constexpr int W = simd::kWidth<T>;
  switch (tune.variant) {
    case DslashVariant::kVector:
      dslash_multi_body_vector(WidthTag<W>{}, out, u, in, out_parity, dagger,
                               grain);
      break;
    case DslashVariant::kVectorBlocked:
      dslash_multi_body_blocked(WidthTag<W>{}, out, u, in, out_parity,
                                dagger, grain);
      break;
    default:
      dslash_multi_body_scalar(out, u, in, out_parity, dagger, grain);
      break;
  }

  const std::int64_t volh = u.geom().half_volume();
  flops::add(static_cast<std::int64_t>(nb) * flops::kWilsonDslashPerSite *
             volh * l5);
  // Compulsory traffic: each RHS streams its input parity in and output
  // parity out, but the gauge field is gathered once per SITE for the
  // whole batch (SiteLinks hoisted above the lane loop; s5 and RHS
  // re-reads are register hits) -- links cost u.bytes() per call.
  const std::int64_t spinor_bytes =
      volh * l5 * kSpinorReals * static_cast<std::int64_t>(sizeof(T));
  flops::add_bytes(static_cast<std::int64_t>(nb) * 2 * spinor_bytes +
                   u.bytes());
}

template <typename T, typename GaugeT>
void wilson_op_kernel(SpinorField<T>& out, const GaugeT& u,
                      const SpinorField<T>& in, double mass, bool dagger,
                      const DslashTuning& tune) {
  assert(out.subset() == Subset::Full && in.subset() == Subset::Full);
  assert(out.l5() == in.l5());
  // Hopping term parity by parity, each a batch of one.
  for (int par = 0; par < 2; ++par) {
    const SpinorView<T> o = parity_view(out, par);
    const SpinorView<const T> i = parity_view(in, 1 - par);
    dslash_kernel_multi<T>({&o, 1}, u, {&i, 1}, par, dagger, tune);
  }
  // out = (4+mass) in - 1/2 out, honoring the dslash grain (given in 4D
  // sites; the BLAS kernel chunks over reals).
  const std::size_t grain_reals =
      (tune.grain ? tune.grain : site_grain(out.l5(), 1)) *
      static_cast<std::size_t>(kSpinorReals) *
      static_cast<std::size_t>(out.l5());
  blas::axpby<T>(4.0 + mass, in, -0.5, out, grain_reals);
}

}  // namespace

template <typename T>
void dslash(const SpinorView<T>& out, const GaugeField<T>& u,
            const SpinorView<const T>& in, int out_parity, bool dagger,
            const DslashTuning& tune) {
  dslash_kernel_multi<T>({&out, 1}, u, {&in, 1}, out_parity, dagger, tune);
}

template <typename T>
void dslash_multi(std::span<const SpinorView<T>> out, const GaugeField<T>& u,
                  std::span<const SpinorView<const T>> in, int out_parity,
                  bool dagger, const DslashTuning& tune) {
  dslash_kernel_multi<T>(out, u, in, out_parity, dagger, tune);
}

template <typename T>
void dslash(const SpinorView<T>& out, const CompressedGaugeField<T>& u,
            const SpinorView<const T>& in, int out_parity, bool dagger,
            const DslashTuning& tune) {
  dslash_kernel_multi<T>({&out, 1}, u, {&in, 1}, out_parity, dagger, tune);
}

template <typename T>
void dslash_multi(std::span<const SpinorView<T>> out,
                  const CompressedGaugeField<T>& u,
                  std::span<const SpinorView<const T>> in, int out_parity,
                  bool dagger, const DslashTuning& tune) {
  dslash_kernel_multi<T>(out, u, in, out_parity, dagger, tune);
}

template <typename T>
void wilson_op(SpinorField<T>& out, const GaugeField<T>& u,
               const SpinorField<T>& in, double mass, bool dagger,
               const DslashTuning& tune) {
  wilson_op_kernel<T>(out, u, in, mass, dagger, tune);
}

template <typename T>
void wilson_op(SpinorField<T>& out, const CompressedGaugeField<T>& u,
               const SpinorField<T>& in, double mass, bool dagger,
               const DslashTuning& tune) {
  wilson_op_kernel<T>(out, u, in, mass, dagger, tune);
}

template void dslash<double>(const SpinorView<double>&,
                             const GaugeField<double>&,
                             const SpinorView<const double>&, int, bool,
                             const DslashTuning&);
template void dslash<float>(const SpinorView<float>&, const GaugeField<float>&,
                            const SpinorView<const float>&, int, bool,
                            const DslashTuning&);
template void dslash_multi<double>(std::span<const SpinorView<double>>,
                                   const GaugeField<double>&,
                                   std::span<const SpinorView<const double>>,
                                   int, bool, const DslashTuning&);
template void dslash_multi<float>(std::span<const SpinorView<float>>,
                                  const GaugeField<float>&,
                                  std::span<const SpinorView<const float>>,
                                  int, bool, const DslashTuning&);
template void wilson_op<double>(SpinorField<double>&, const GaugeField<double>&,
                                const SpinorField<double>&, double, bool,
                                const DslashTuning&);
template void wilson_op<float>(SpinorField<float>&, const GaugeField<float>&,
                               const SpinorField<float>&, double, bool,
                               const DslashTuning&);

#define FEMTO_INSTANTIATE_DSLASH_R12(T)                                      \
  template void dslash<T>(const SpinorView<T>&,                              \
                          const CompressedGaugeField<T>&,                    \
                          const SpinorView<const T>&, int, bool,             \
                          const DslashTuning&);                              \
  template void dslash_multi<T>(std::span<const SpinorView<T>>,              \
                                const CompressedGaugeField<T>&,              \
                                std::span<const SpinorView<const T>>, int,   \
                                bool, const DslashTuning&);                  \
  template void wilson_op<T>(SpinorField<T>&, const CompressedGaugeField<T>&, \
                             const SpinorField<T>&, double, bool,            \
                             const DslashTuning&);
FEMTO_INSTANTIATE_DSLASH_R12(double)
FEMTO_INSTANTIATE_DSLASH_R12(float)
#undef FEMTO_INSTANTIATE_DSLASH_R12

}  // namespace femto
