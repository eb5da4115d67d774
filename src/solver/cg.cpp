#include "solver/cg.hpp"

#include <cmath>
#include <sstream>

#include "core/check.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"
#include "solver/grain.hpp"
#include "solver/half.hpp"
#include "solver/solver_obs.hpp"

namespace femto {

const char* to_string(Precision p) {
  switch (p) {
    case Precision::Double: return "double";
    case Precision::Single: return "single";
    default: return "half";
  }
}

std::string SolveResult::summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "NOT converged") << " in " << iterations
     << " iterations (" << reliable_updates << " reliable updates), |r|/|b|="
     << final_rel_residual << ", " << gflops() << " GFLOP/s";
  return os.str();
}

template <typename T>
SolveResult cg(const ApplyFn<T>& a, SpinorField<T>& x,
               const SpinorField<T>& b, double tol, int max_iter,
               std::size_t blas_grain) {
  FEMTO_TRACE_SCOPE("solver", "cg");
  SolveResult res;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  const std::size_t g = detail::resolve_grain(blas_grain);

  SpinorField<T> r = b;
  SpinorField<T> ap(b.geom_ptr(), b.l5(), b.subset());
  const double b2 = blas::norm2(b, g);
  // r = b - A x (skip the matvec if x is zero — caller convention is a
  // zero initial guess, but handle a warm start correctly anyway; when
  // r = b its norm is b2 already).
  double rsq = b2;
  const double xnorm = blas::norm2(x, g);
  if (xnorm > 0.0) {
    a(ap, x);
    rsq = blas::axpy_norm2<T>(-1.0, ap, r, g);
  }
  SpinorField<T> p = r;

  const double target = tol * tol * b2;

  while (res.iterations < max_iter && rsq > target) {
    a(ap, p);
    ++res.iterations;
    const double pap = blas::redot(p, ap, g);
    const double alpha = rsq / pap;
    // QUDA-style fused update: r and ||r||^2 in one pass, then the x and p
    // updates share a single pass over p (axpyZpbx).
    const double rsq_new = blas::axpy_norm2<T>(-alpha, ap, r, g);
    FEMTO_CHECK(std::isfinite(rsq_new),
                "cg: residual norm went NaN/Inf (diverging operator or "
                "corrupt field data)");
    const double beta = rsq_new / rsq;
    rsq = rsq_new;
    blas::axpy_zpbx<T>(alpha, p, x, r, beta, g);
    res.history.push_back({res.iterations,
                           b2 > 0.0 ? std::sqrt(rsq / b2) : 0.0,
                           precision_of<T>(), false});
  }

  res.converged = rsq <= target;
  res.final_rel_residual = b2 > 0.0 ? std::sqrt(rsq / b2) : 0.0;
  res.seconds = sw.seconds();
  res.flop_count = flops::get() - flops0;
  res.byte_count = flops::bytes() - bytes0;
  solver_obs::record("cg", res);
  return res;
}

SolveResult mixed_cg(const ApplyFn<double>& a_double,
                     const ApplyFn<float>& a_single,
                     SpinorField<double>& x, const SpinorField<double>& b,
                     const SolverParams& params) {
  FEMTO_TRACE_SCOPE("solver", "mixed_cg");
  SolveResult res;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  const std::size_t g = detail::resolve_grain(params.blas_grain);
  const std::size_t hg = detail::half_grain(params.blas_grain);

  const auto geom = b.geom_ptr();
  const int l5 = b.l5();
  const Subset sub = b.subset();
  const bool half = params.sloppy == Precision::Half;
  const Precision inner_prec =
      half ? Precision::Half : Precision::Single;

  // Outer (double) state.
  SpinorField<double> r_d = b;
  SpinorField<double> tmp_d(geom, l5, sub);
  const double b2 = blas::norm2(b, g);
  double r2_d = b2;
  const double xnorm = blas::norm2(x, g);
  if (xnorm > 0.0) {
    a_double(tmp_d, x);
    r2_d = blas::axpy_norm2<double>(-1.0, tmp_d, r_d, g);
  }
  const double target = params.tol * params.tol * b2;

  // Sloppy state.
  SpinorField<float> r_s(geom, l5, sub), p_s(geom, l5, sub),
      ap_s(geom, l5, sub), xs(geom, l5, sub);
  HalfSpinorField hstore(geom, l5, sub);

  while (r2_d > target && res.iterations < params.max_iter) {
    // (Re)start the inner solve from the true residual.  In half mode the
    // demoted residual is round-tripped through 16-bit storage and its
    // norm taken in the same pass.
    blas::copy(r_s, r_d, g);
    double rsq = half ? hstore.roundtrip_norm2(r_s, hg)
                      : blas::norm2(r_s, g);
    blas::copy(p_s, r_s, g);
    xs.zero();
    const double update_target = rsq * params.delta * params.delta;
    int inner = 0;

    while (res.iterations < params.max_iter &&
           (rsq > update_target || inner < params.min_inner_iter) &&
           rsq > 0.25 * target) {
      a_single(ap_s, p_s);
      ++res.iterations;
      ++inner;
      const double pap = blas::redot(p_s, ap_s, g);
      if (!(pap > 0.0)) break;  // sloppy breakdown: force reliable update
      const double alpha = rsq / pap;
      double rsq_new;
      if (half) {
        // Each vector update fuses with its 16-bit quantisation (and, for
        // r, with the norm): one pass per field instead of the naive
        // update + 4-sweep quantize().
        hstore.axpy_roundtrip(alpha, p_s, xs, hg);
        rsq_new = hstore.axpy_roundtrip_norm2(-alpha, ap_s, r_s, hg);
      } else {
        // QUDA tripleCGUpdate: x += alpha p; r -= alpha ap; ||r||^2.
        rsq_new = blas::triple_cg_update<float>(alpha, p_s, ap_s, xs, r_s, g);
      }
      FEMTO_CHECK(std::isfinite(rsq_new),
                  "mixed_cg: sloppy residual norm went NaN/Inf");
      const double beta = rsq_new / rsq;
      rsq = rsq_new;
      if (half) {
        hstore.xpay_roundtrip(r_s, beta, p_s, hg);
      } else {
        blas::xpay<float>(r_s, beta, p_s, g);
      }
      res.history.push_back({res.iterations,
                             b2 > 0.0 ? std::sqrt(rsq / b2) : 0.0,
                             inner_prec, false});
    }

    // Reliable update: fold the sloppy solution into x, recompute the true
    // residual in double with its norm fused into the subtraction.
    blas::copy(tmp_d, xs, g);  // promote
    blas::axpy<double>(1.0, tmp_d, x, g);
    a_double(tmp_d, x);
    blas::copy(r_d, b, g);
    r2_d = blas::axpy_norm2<double>(-1.0, tmp_d, r_d, g);
    FEMTO_CHECK(std::isfinite(r2_d),
                "mixed_cg: true residual norm went NaN/Inf at a reliable "
                "update");
    ++res.reliable_updates;
    res.history.push_back({res.iterations,
                           b2 > 0.0 ? std::sqrt(r2_d / b2) : 0.0,
                           Precision::Double, true});

    // If the sloppy solver could not take a single step the target is
    // below the sloppy precision floor; stop rather than spin.
    if (inner == 0) break;
  }

  res.converged = r2_d <= target;
  res.final_rel_residual = b2 > 0.0 ? std::sqrt(r2_d / b2) : 0.0;
  res.seconds = sw.seconds();
  res.flop_count = flops::get() - flops0;
  res.byte_count = flops::bytes() - bytes0;
  solver_obs::record("mixed_cg", res);
  return res;
}

template SolveResult cg<double>(const ApplyFn<double>&, SpinorField<double>&,
                                const SpinorField<double>&, double, int,
                                std::size_t);

}  // namespace femto
