#pragma once
// BLAS-1 kernels over spinor fields: the "auxiliary operations required in
// the CG linear solver" whose flops the paper counts alongside the stencil
// (50-100 flop per lattice site; extremely bandwidth bound).
//
// All reductions accumulate in double regardless of the field precision and
// sum per-chunk partials in a fixed order, matching the paper's note that
// "all reductions are done in double precision" (and keeping results
// deterministic).
//
// Because these kernels are bandwidth bound, the library follows QUDA in
// FUSING vector updates with the reductions that consume them: axpy_norm2,
// triple_cg_update, axpy_zpbx and friends touch each field once per
// iteration instead of once per operation.  Every kernel charges the global
// byte counter (flops::add_bytes) with its compulsory memory traffic — one
// field-pass per input read, two per in-place update (read + write-back) —
// so flops::bytes() tracks the solver's BLAS-phase traffic the same way
// flops::get() tracks its arithmetic.
//
// Every kernel takes a trailing chunk-grain argument (minimum elements per
// worker); the autotuner sweeps it via tune::BlasTunable exactly as it
// sweeps the dslash launch grain.
//
// SIMD (DESIGN.md §11): every kernel is width-templated on a lane count W
// defaulting to the build's native width (1 when FEMTO_SIMD=OFF).  The
// vector bodies process W reals per step with a peeled scalar tail, and
// reductions accumulate a W-lane double vector per chunk whose lanes are
// summed in lane order before the tail — a fixed, index-determined order,
// so the determinism guarantee (bitwise-stable per thread count and grain)
// is unchanged.  Fused and unfused kernels share the same per-element
// expressions and the same chunk-relative lane pattern, so at equal grain
// and width the fusion stays bitwise identical to the separate operations.
// Results DO differ across widths (lane-striped summation) within normal
// rounding: cross-width agreement is a tolerance, not bitwise, property.

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "lattice/complex.hpp"
#include "lattice/field.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/vec.hpp"

namespace femto::blas {

inline constexpr std::size_t kGrain = 4096;

namespace detail {

// Chunk bodies shared by the fused and unfused kernels.  Keeping each
// expression in exactly one place is what makes the bitwise
// fused-== -unfused contract robust: both sides inline the same code.

/// sum v^2 over [lo, hi) with double accumulation, W-lane striped over TWO
/// independent accumulator chains.  One chain is latency-bound: every
/// iteration's vector add waits on the previous one, which caps the
/// reduction at one W-block per add latency.  Two chains overlap, roughly
/// doubling throughput (measured in bench/micro_simd.cpp).  The
/// combination order -- even-stripe chain (plus any trailing W-block),
/// then odd-stripe chain, then scalar tail -- is fixed, so the result is
/// still deterministic per width.
template <int W, typename T>
inline double norm2_chunk(const T* xd, std::size_t lo, std::size_t hi) {
  double s = 0.0;
  std::size_t k = lo;
  if constexpr (W > 1) {
    simd::Vec<double, W> acc0, acc1;
    for (; k + 2 * W <= hi; k += 2 * W) {
      const auto v0 = simd::convert<double>(simd::Vec<T, W>::load(xd + k));
      const auto v1 = simd::convert<double>(simd::Vec<T, W>::load(xd + k + W));
      acc0 += v0 * v0;
      acc1 += v1 * v1;
    }
    for (; k + W <= hi; k += W) {
      const auto v = simd::convert<double>(simd::Vec<T, W>::load(xd + k));
      acc0 += v * v;
    }
    s = simd::sum_ordered(acc0) + simd::sum_ordered(acc1);
  }
  for (; k < hi; ++k) {
    const double v = static_cast<double>(xd[k]);
    s += v * v;
  }
  return s;
}

/// sum x*y over [lo, hi) with double accumulation, two-chain striped like
/// norm2_chunk.
template <int W, typename T>
inline double redot_chunk(const T* xd, const T* yd, std::size_t lo,
                          std::size_t hi) {
  double s = 0.0;
  std::size_t k = lo;
  if constexpr (W > 1) {
    simd::Vec<double, W> acc0, acc1;
    for (; k + 2 * W <= hi; k += 2 * W) {
      acc0 += simd::convert<double>(simd::Vec<T, W>::load(xd + k)) *
              simd::convert<double>(simd::Vec<T, W>::load(yd + k));
      acc1 += simd::convert<double>(simd::Vec<T, W>::load(xd + k + W)) *
              simd::convert<double>(simd::Vec<T, W>::load(yd + k + W));
    }
    for (; k + W <= hi; k += W)
      acc0 += simd::convert<double>(simd::Vec<T, W>::load(xd + k)) *
              simd::convert<double>(simd::Vec<T, W>::load(yd + k));
    s = simd::sum_ordered(acc0) + simd::sum_ordered(acc1);
  }
  for (; k < hi; ++k)
    s += static_cast<double>(xd[k]) * static_cast<double>(yd[k]);
  return s;
}

/// y += a*x over [lo, hi).
template <int W, typename T>
inline void axpy_chunk(T aa, const T* xd, T* yd, std::size_t lo,
                       std::size_t hi) {
  std::size_t k = lo;
  if constexpr (W > 1) {
    const simd::Vec<T, W> av(aa);
    for (; k + W <= hi; k += W) {
      auto y = simd::Vec<T, W>::load(yd + k);
      y += av * simd::Vec<T, W>::load(xd + k);
      y.store(yd + k);
    }
  }
  for (; k < hi; ++k) yd[k] += aa * xd[k];
}

/// y = x + a*y over [lo, hi).
template <int W, typename T>
inline void xpay_chunk(const T* xd, T aa, T* yd, std::size_t lo,
                       std::size_t hi) {
  std::size_t k = lo;
  if constexpr (W > 1) {
    const simd::Vec<T, W> av(aa);
    for (; k + W <= hi; k += W) {
      const auto y = simd::Vec<T, W>::load(xd + k) +
                     av * simd::Vec<T, W>::load(yd + k);
      y.store(yd + k);
    }
  }
  for (; k < hi; ++k) yd[k] = xd[k] + aa * yd[k];
}

/// y = a*x + b*y over [lo, hi).
template <int W, typename T>
inline void axpby_chunk(T aa, const T* xd, T bb, T* yd, std::size_t lo,
                        std::size_t hi) {
  std::size_t k = lo;
  if constexpr (W > 1) {
    const simd::Vec<T, W> av(aa), bv(bb);
    for (; k + W <= hi; k += W) {
      const auto y = av * simd::Vec<T, W>::load(xd + k) +
                     bv * simd::Vec<T, W>::load(yd + k);
      y.store(yd + k);
    }
  }
  for (; k < hi; ++k) yd[k] = aa * xd[k] + bb * yd[k];
}

}  // namespace detail

/// y = x
template <typename T, typename U>
void copy(SpinorField<T>& y, const SpinorField<U>& x,
          std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "copy");
  assert(y.compatible(x));
  T* yd = y.data();
  const U* xd = x.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(y.reals()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) yd[k] = static_cast<T>(xd[k]);
      },
      grain);
  flops::add_bytes(y.reals() * static_cast<std::int64_t>(sizeof(T) +
                                                         sizeof(U)));
}

/// y += a*x
template <typename T, int W = simd::kWidth<T>>
void axpy(double a, const SpinorField<T>& x, SpinorField<T>& y,
          std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "axpy");
  assert(y.compatible(x));
  const T aa = static_cast<T>(a);
  T* yd = y.data();
  const T* xd = x.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(y.reals()),
      [&](std::size_t lo, std::size_t hi) {
        detail::axpy_chunk<W>(aa, xd, yd, lo, hi);
      },
      grain);
  flops::add(2 * y.reals());
  flops::add_bytes(3 * y.reals() * static_cast<std::int64_t>(sizeof(T)));
}

/// y = x + a*y
template <typename T, int W = simd::kWidth<T>>
void xpay(const SpinorField<T>& x, double a, SpinorField<T>& y,
          std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "xpay");
  assert(y.compatible(x));
  const T aa = static_cast<T>(a);
  T* yd = y.data();
  const T* xd = x.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(y.reals()),
      [&](std::size_t lo, std::size_t hi) {
        detail::xpay_chunk<W>(xd, aa, yd, lo, hi);
      },
      grain);
  flops::add(2 * y.reals());
  flops::add_bytes(3 * y.reals() * static_cast<std::int64_t>(sizeof(T)));
}

/// y = a*x + b*y
template <typename T, int W = simd::kWidth<T>>
void axpby(double a, const SpinorField<T>& x, double b, SpinorField<T>& y,
           std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "axpby");
  assert(y.compatible(x));
  const T aa = static_cast<T>(a), bb = static_cast<T>(b);
  T* yd = y.data();
  const T* xd = x.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(y.reals()),
      [&](std::size_t lo, std::size_t hi) {
        detail::axpby_chunk<W>(aa, xd, bb, yd, lo, hi);
      },
      grain);
  flops::add(3 * y.reals());
  flops::add_bytes(3 * y.reals() * static_cast<std::int64_t>(sizeof(T)));
}

/// scale: x *= a
template <typename T, int W = simd::kWidth<T>>
void scal(double a, SpinorField<T>& x, std::size_t grain = kGrain) {
  const T aa = static_cast<T>(a);
  T* xd = x.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(x.reals()),
      [&](std::size_t lo, std::size_t hi) {
        std::size_t k = lo;
        if constexpr (W > 1) {
          const simd::Vec<T, W> av(aa);
          for (; k + W <= hi; k += W) {
            (av * simd::Vec<T, W>::load(xd + k)).store(xd + k);
          }
        }
        for (; k < hi; ++k) xd[k] *= aa;
      },
      grain);
  flops::add(x.reals());
  flops::add_bytes(2 * x.reals() * static_cast<std::int64_t>(sizeof(T)));
}

/// ||x||^2 with double accumulation.
template <typename T, int W = simd::kWidth<T>>
double norm2(const SpinorField<T>& x, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "norm2");
  const T* xd = x.data();
  const double r = par::ThreadPool::global().parallel_reduce(
      0, static_cast<std::size_t>(x.reals()),
      [&](std::size_t lo, std::size_t hi) {
        return detail::norm2_chunk<W>(xd, lo, hi);
      },
      grain);
  flops::add(2 * x.reals());
  flops::add_bytes(x.reals() * static_cast<std::int64_t>(sizeof(T)));
  return r;
}

/// <x, y> = sum conj(x) y with double accumulation.  On the interleaved
/// pair stream the real part is a plain elementwise product sum (xr*yr and
/// xi*yi both land there) and the imaginary part pairs each lane with its
/// partner via swap_pairs and an alternating sign.
template <typename T, int W = simd::kWidth<T>>
Cplx<double> cdot(const SpinorField<T>& x, const SpinorField<T>& y,
                  std::size_t grain = kGrain) {
  assert(y.compatible(x));
  const T* xd = x.data();
  const T* yd = y.data();
  auto [re, im] = par::ThreadPool::global().parallel_reduce2(
      0, static_cast<std::size_t>(x.reals() / 2),
      [&](std::size_t lo, std::size_t hi) {
        double sr = 0.0, si = 0.0;
        std::size_t k = lo;
        if constexpr (W > 1) {
          simd::Vec<double, W> racc, iacc;
          const auto sign = simd::interleave<double, W>(1.0, -1.0);
          for (; k + W / 2 <= hi; k += W / 2) {
            const auto xv =
                simd::convert<double>(simd::Vec<T, W>::load(xd + 2 * k));
            const auto yv =
                simd::convert<double>(simd::Vec<T, W>::load(yd + 2 * k));
            racc += xv * yv;
            iacc += sign * (xv * simd::swap_pairs(yv));
          }
          sr = simd::sum_ordered(racc);
          si = simd::sum_ordered(iacc);
        }
        for (; k < hi; ++k) {
          const double xr = xd[2 * k], xi = xd[2 * k + 1];
          const double yr = yd[2 * k], yi = yd[2 * k + 1];
          sr += xr * yr + xi * yi;
          si += xr * yi - xi * yr;
        }
        return std::make_pair(sr, si);
      },
      grain);
  flops::add(4 * x.reals());
  flops::add_bytes(2 * x.reals() * static_cast<std::int64_t>(sizeof(T)));
  return {re, im};
}

/// Real part of <x, y> (the CG beta/alpha kernel for Hermitian operators).
template <typename T, int W = simd::kWidth<T>>
double redot(const SpinorField<T>& x, const SpinorField<T>& y,
             std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "redot");
  assert(y.compatible(x));
  const T* xd = x.data();
  const T* yd = y.data();
  const double r = par::ThreadPool::global().parallel_reduce(
      0, static_cast<std::size_t>(x.reals()),
      [&](std::size_t lo, std::size_t hi) {
        return detail::redot_chunk<W>(xd, yd, lo, hi);
      },
      grain);
  flops::add(2 * x.reals());
  flops::add_bytes(2 * x.reals() * static_cast<std::int64_t>(sizeof(T)));
  return r;
}

// ---------------------------------------------------------------------------
// Fused update+reduce kernels (QUDA's blas_quda fusions).  Each touches its
// fields exactly once; the reduction rides the update pass for free.  The
// per-element arithmetic and the chunk partition match the unfused kernels,
// so with the same grain (and width) the results are bitwise identical to
// running the separate operations.
// ---------------------------------------------------------------------------

/// y += a*x, returning ||y||^2 of the updated y (QUDA axpyNorm).
template <typename T, int W = simd::kWidth<T>>
double axpy_norm2(double a, const SpinorField<T>& x, SpinorField<T>& y,
                  std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "axpy_norm2");
  assert(y.compatible(x));
  const T aa = static_cast<T>(a);
  T* yd = y.data();
  const T* xd = x.data();
  double n2 = 0.0;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(y.reals()), 1,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        detail::axpy_chunk<W>(aa, xd, yd, lo, hi);
        acc[0] = detail::norm2_chunk<W>(yd, lo, hi);
      },
      &n2, grain);
  flops::add(4 * y.reals());
  flops::add_bytes(3 * y.reals() * static_cast<std::int64_t>(sizeof(T)));
  return n2;
}

/// The QUDA tripleCGUpdate: x += alpha*p; r -= alpha*ap; return ||r||^2 —
/// the whole CG vector update in one pass over the four fields.
template <typename T, int W = simd::kWidth<T>>
double triple_cg_update(double alpha, const SpinorField<T>& p,
                        const SpinorField<T>& ap, SpinorField<T>& x,
                        SpinorField<T>& r, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "triple_cg_update");
  assert(x.compatible(p) && r.compatible(ap) && x.compatible(r));
  const T al = static_cast<T>(alpha);
  const T mal = static_cast<T>(-alpha);
  T* xd = x.data();
  T* rd = r.data();
  const T* pd = p.data();
  const T* apd = ap.data();
  double n2 = 0.0;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(r.reals()), 1,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        detail::axpy_chunk<W>(al, pd, xd, lo, hi);
        detail::axpy_chunk<W>(mal, apd, rd, lo, hi);
        acc[0] = detail::norm2_chunk<W>(rd, lo, hi);
      },
      &n2, grain);
  flops::add(6 * r.reals());
  flops::add_bytes(6 * r.reals() * static_cast<std::int64_t>(sizeof(T)));
  return n2;
}

/// The QUDA axpyZpbx: x += a*p; p = z + b*p.  Fuses CG's solution update
/// with its search-direction update so p is read once for both.
template <typename T, int W = simd::kWidth<T>>
void axpy_zpbx(double a, SpinorField<T>& p, SpinorField<T>& x,
               const SpinorField<T>& z, double b, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "axpy_zpbx");
  assert(x.compatible(p) && z.compatible(p));
  const T aa = static_cast<T>(a), bb = static_cast<T>(b);
  T* pd = p.data();
  T* xd = x.data();
  const T* zd = z.data();
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(p.reals()),
      [&](std::size_t lo, std::size_t hi) {
        detail::axpy_chunk<W>(aa, pd, xd, lo, hi);
        detail::xpay_chunk<W>(zd, bb, pd, lo, hi);
      },
      grain);
  flops::add(4 * p.reals());
  flops::add_bytes(5 * p.reals() * static_cast<std::int64_t>(sizeof(T)));
}

// ---------------------------------------------------------------------------
// Multi-RHS kernels (DESIGN.md §12).  Each batched kernel makes ONE
// parallel launch whose chunk body loops over the B right-hand sides,
// reusing the detail:: chunk bodies above.  Because the chunk partition
// depends only on (range, grain, thread count) — never on the component
// count — and partials combine in the same fixed chunk order per
// component, every RHS's result is bitwise identical to the single-RHS
// kernel at the same grain, independent of which other RHSs share the
// batch.  That is the per-RHS bitwise contract block_mixed_cg and the
// solve service rely on: batch composition can never change an answer.
//
// Traffic scales with B (every field pass happens per RHS); the batching
// win here is launch amortization, not byte amortization — the byte win
// lives in dslash_multi, where the gauge field is charged once per block.
// ---------------------------------------------------------------------------

/// ||x_r||^2 for each RHS.
template <typename T, int W = simd::kWidth<T>>
void norm2_multi(std::span<const SpinorField<T>* const> x,
                 std::span<double> n2, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "norm2_multi");
  const std::size_t nb = x.size();
  FEMTO_ASSERT(n2.size() == nb);
  if (nb == 0) return;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(x[0]->reals()), nb,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        for (std::size_t r = 0; r < nb; ++r)
          acc[r] = detail::norm2_chunk<W>(x[r]->data(), lo, hi);
      },
      n2.data(), grain);
  const std::int64_t reals = static_cast<std::int64_t>(nb) * x[0]->reals();
  flops::add(2 * reals);
  flops::add_bytes(reals * static_cast<std::int64_t>(sizeof(T)));
}

/// Re<x_r, y_r> for each RHS (the CG pAp kernel, batched).
template <typename T, int W = simd::kWidth<T>>
void redot_multi(std::span<const SpinorField<T>* const> x,
                 std::span<const SpinorField<T>* const> y,
                 std::span<double> dot, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "redot_multi");
  const std::size_t nb = x.size();
  FEMTO_ASSERT(y.size() == nb && dot.size() == nb);
  if (nb == 0) return;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(x[0]->reals()), nb,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        for (std::size_t r = 0; r < nb; ++r)
          acc[r] = detail::redot_chunk<W>(x[r]->data(), y[r]->data(), lo, hi);
      },
      dot.data(), grain);
  const std::int64_t reals = static_cast<std::int64_t>(nb) * x[0]->reals();
  flops::add(2 * reals);
  flops::add_bytes(2 * reals * static_cast<std::int64_t>(sizeof(T)));
}

/// y_r = x_r + a_r*y_r for each RHS.
template <typename T, int W = simd::kWidth<T>>
void xpay_multi(std::span<const SpinorField<T>* const> x,
                std::span<const double> a,
                std::span<SpinorField<T>* const> y,
                std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "xpay_multi");
  const std::size_t nb = y.size();
  FEMTO_ASSERT(x.size() == nb && a.size() == nb);
  if (nb == 0) return;
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(y[0]->reals()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = 0; r < nb; ++r)
          detail::xpay_chunk<W>(x[r]->data(), static_cast<T>(a[r]),
                                y[r]->data(), lo, hi);
      },
      grain);
  const std::int64_t reals = static_cast<std::int64_t>(nb) * y[0]->reals();
  flops::add(2 * reals);
  flops::add_bytes(3 * reals * static_cast<std::int64_t>(sizeof(T)));
}

/// y_r += a_r*x_r, returning ||y_r||^2 of each updated y_r.
template <typename T, int W = simd::kWidth<T>>
void axpy_norm2_multi(std::span<const double> a,
                      std::span<const SpinorField<T>* const> x,
                      std::span<SpinorField<T>* const> y,
                      std::span<double> n2, std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "axpy_norm2_multi");
  const std::size_t nb = y.size();
  FEMTO_ASSERT(x.size() == nb && a.size() == nb && n2.size() == nb);
  if (nb == 0) return;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(y[0]->reals()), nb,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        for (std::size_t r = 0; r < nb; ++r) {
          detail::axpy_chunk<W>(static_cast<T>(a[r]), x[r]->data(),
                                y[r]->data(), lo, hi);
          acc[r] = detail::norm2_chunk<W>(y[r]->data(), lo, hi);
        }
      },
      n2.data(), grain);
  const std::int64_t reals = static_cast<std::int64_t>(nb) * y[0]->reals();
  flops::add(4 * reals);
  flops::add_bytes(3 * reals * static_cast<std::int64_t>(sizeof(T)));
}

/// The tripleCGUpdate, batched: x_r += alpha_r*p_r; r_r -= alpha_r*ap_r;
/// returning each ||r_r||^2.
template <typename T, int W = simd::kWidth<T>>
void triple_cg_update_multi(std::span<const double> alpha,
                            std::span<const SpinorField<T>* const> p,
                            std::span<const SpinorField<T>* const> ap,
                            std::span<SpinorField<T>* const> x,
                            std::span<SpinorField<T>* const> r,
                            std::span<double> n2,
                            std::size_t grain = kGrain) {
  FEMTO_TRACE_SCOPE("blas", "triple_cg_update_multi");
  const std::size_t nb = r.size();
  FEMTO_ASSERT(p.size() == nb && ap.size() == nb && x.size() == nb &&
               alpha.size() == nb && n2.size() == nb);
  if (nb == 0) return;
  par::ThreadPool::global().parallel_reduce_n(
      0, static_cast<std::size_t>(r[0]->reals()), nb,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        for (std::size_t rr = 0; rr < nb; ++rr) {
          detail::axpy_chunk<W>(static_cast<T>(alpha[rr]), p[rr]->data(),
                                x[rr]->data(), lo, hi);
          detail::axpy_chunk<W>(static_cast<T>(-alpha[rr]), ap[rr]->data(),
                                r[rr]->data(), lo, hi);
          acc[rr] = detail::norm2_chunk<W>(r[rr]->data(), lo, hi);
        }
      },
      n2.data(), grain);
  const std::int64_t reals = static_cast<std::int64_t>(nb) * r[0]->reals();
  flops::add(6 * reals);
  flops::add_bytes(6 * reals * static_cast<std::int64_t>(sizeof(T)));
}

}  // namespace femto::blas
