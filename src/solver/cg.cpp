#include "solver/cg.hpp"

#include <cmath>
#include <sstream>

#include "core/check.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"
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
               const SpinorField<T>& b, double tol, int max_iter) {
  FEMTO_TRACE_SCOPE("solver", "cg");
  SolveResult res;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();

  SpinorField<T> r = b;
  SpinorField<T> ap(b.geom_ptr(), b.l5(), b.subset());
  const double b2 = blas::norm2(b);
  // r = b - A x (skip the matvec if x is zero — caller convention is a
  // zero initial guess, but handle a warm start correctly anyway; when
  // r = b its norm is b2 already).
  double rsq = b2;
  const double xnorm = blas::norm2(x);
  if (xnorm > 0.0) {
    a(ap, x);
    rsq = blas::axpy_norm2<T>(-1.0, ap, r);
  }
  SpinorField<T> p = r;

  const double target = tol * tol * b2;

  while (res.iterations < max_iter && rsq > target) {
    a(ap, p);
    ++res.iterations;
    const double pap = blas::redot(p, ap);
    const double alpha = rsq / pap;
    // QUDA-style fused update: r and ||r||^2 in one pass, then the x and p
    // updates share a single pass over p (axpyZpbx).
    const double rsq_new = blas::axpy_norm2<T>(-alpha, ap, r);
    FEMTO_CHECK(std::isfinite(rsq_new),
                "cg: residual norm went NaN/Inf (diverging operator or "
                "corrupt field data)");
    const double beta = rsq_new / rsq;
    rsq = rsq_new;
    blas::axpy_zpbx<T>(alpha, p, x, r, beta);
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

template SolveResult cg<double>(const ApplyFn<double>&, SpinorField<double>&,
                                const SpinorField<double>&, double, int);

}  // namespace femto
