#include "solver/block_cg.hpp"

#include <cmath>

#include "core/check.hpp"
#include "lattice/flops.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"
#include "solver/half.hpp"
#include "solver/solver_obs.hpp"

namespace femto {

namespace {

/// Sloppy iterations an inner solve runs before a reliable update may end
/// it, so updates do not thrash.
constexpr int kMinInnerIter = 5;

/// Per-RHS state of the mixed-precision solve: the outer double residual,
/// the sloppy vectors, the 16-bit store, and the scalar recurrence.
struct MixedRhs {
  SpinorField<double> r_d, tmp_d;
  SpinorField<float> r_s, p_s, ap_s, xs;
  HalfSpinorField hstore;
  double b2 = 0.0, r2_d = 0.0, target = 0.0;
  double rsq = 0.0, update_target = 0.0;
  int inner = 0;
  bool breakdown = false;  ///< sloppy pAp <= 0: force a reliable update
  bool done = false;

  explicit MixedRhs(const SpinorField<double>& b)
      : r_d(b),
        tmp_d(b.geom_ptr(), b.l5(), b.subset()),
        r_s(b.geom_ptr(), b.l5(), b.subset()),
        p_s(b.geom_ptr(), b.l5(), b.subset()),
        ap_s(b.geom_ptr(), b.l5(), b.subset()),
        xs(b.geom_ptr(), b.l5(), b.subset()),
        hstore(b.geom_ptr(), b.l5(), b.subset()) {}
};

/// A single-RHS apply as a batched one (mixed_cg's spans hold one field).
template <typename T>
MultiApplyFn<T> one_at_a_time(const ApplyFn<T>& a) {
  return [&a](std::span<SpinorField<T>* const> out,
              std::span<const SpinorField<T>* const> in) {
    for (std::size_t r = 0; r < out.size(); ++r) a(*out[r], *in[r]);
  };
}

}  // namespace

std::vector<SolveResult> block_mixed_cg(
    const MultiApplyFn<double>& a_double, const MultiApplyFn<float>& a_single,
    std::span<SpinorField<double>* const> x,
    std::span<const SpinorField<double>* const> b,
    const SolverParams& params) {
  FEMTO_TRACE_SCOPE("solver", "mixed_cg");
  const std::size_t nb = x.size();
  FEMTO_ASSERT(b.size() == nb);
  std::vector<SolveResult> results(nb);
  if (nb == 0) return results;
  const obs::Stopwatch sw;
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  const bool half = params.sloppy == Precision::Half;
  const Precision inner_prec = half ? Precision::Half : Precision::Single;

  std::vector<MixedRhs> st;
  st.reserve(nb);
  for (std::size_t i = 0; i < nb; ++i) st.emplace_back(*b[i]);

  {
    std::vector<double> b2(nb), xn(nb);
    std::vector<const SpinorField<double>*> bp(b.begin(), b.end());
    blas::norm2_multi<double>(bp, b2);
    std::vector<const SpinorField<double>*> xp(x.begin(), x.end());
    blas::norm2_multi<double>(xp, xn);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < nb; ++i) {
      st[i].b2 = b2[i];
      st[i].r2_d = b2[i];
      st[i].target = params.tol * params.tol * b2[i];
      if (xn[i] > 0.0) warm.push_back(i);
    }
    if (!warm.empty()) {
      std::vector<SpinorField<double>*> wtmp;
      std::vector<const SpinorField<double>*> cwx, cwtmp;
      std::vector<SpinorField<double>*> wr;
      for (std::size_t i : warm) {
        wtmp.push_back(&st[i].tmp_d);
        cwtmp.push_back(&st[i].tmp_d);
        cwx.push_back(x[i]);
        wr.push_back(&st[i].r_d);
      }
      a_double(wtmp, cwx);
      std::vector<double> mone(warm.size(), -1.0), wr2(warm.size());
      blas::axpy_norm2_multi<double>(mone, cwtmp, wr, wr2);
      for (std::size_t k = 0; k < warm.size(); ++k)
        st[warm[k]].r2_d = wr2[k];
    }
  }

  // (Re)start one RHS's inner solve from its true residual.  In half mode
  // the demoted residual is round-tripped through 16-bit storage and its
  // norm taken in the same pass.
  auto start_inner = [&](MixedRhs& s) {
    blas::copy(s.r_s, s.r_d);
    s.rsq = half ? s.hstore.roundtrip_norm2(s.r_s) : blas::norm2(s.r_s);
    blas::copy(s.p_s, s.r_s);
    s.xs.zero();
    s.update_target = s.rsq * params.delta * params.delta;
    s.inner = 0;
  };

  // Reliable update for one RHS: fold the sloppy solution into x,
  // recompute the true residual in double (a batch-of-one double matvec)
  // with its norm fused into the subtraction.
  auto reliable_update = [&](std::size_t i) {
    MixedRhs& s = st[i];
    SolveResult& res = results[i];
    blas::copy(s.tmp_d, s.xs);  // promote
    blas::axpy<double>(1.0, s.tmp_d, *x[i]);
    SpinorField<double>* outp[1] = {&s.tmp_d};
    const SpinorField<double>* inp[1] = {x[i]};
    a_double(outp, inp);
    blas::copy(s.r_d, *b[i]);
    s.r2_d = blas::axpy_norm2<double>(-1.0, s.tmp_d, s.r_d);
    FEMTO_CHECK(std::isfinite(s.r2_d),
                "mixed_cg: true residual norm went NaN/Inf at a reliable "
                "update");
    ++res.reliable_updates;
    res.history.push_back({res.iterations,
                           s.b2 > 0.0 ? std::sqrt(s.r2_d / s.b2) : 0.0,
                           Precision::Double, true});
  };

  // Advance one RHS's control flow until it either joins the next sloppy
  // batch (returns true) or finishes: inner-continue test, reliable update
  // on inner exit, outer convergence test, restart.  It depends on nothing
  // but the RHS's own state, so batch mates cannot change its trajectory.
  auto ready = [&](std::size_t i) -> bool {
    MixedRhs& s = st[i];
    SolveResult& res = results[i];
    while (!s.done) {
      if (!s.breakdown) {
        const bool cont =
            res.iterations < params.max_iter &&
            (s.rsq > s.update_target || s.inner < kMinInnerIter) &&
            s.rsq > 0.25 * s.target;
        if (cont) return true;
      }
      s.breakdown = false;
      reliable_update(i);
      // A zero-length inner solve means the target sits below the sloppy
      // precision floor; stop rather than spin.
      if (s.inner == 0 || s.r2_d <= s.target ||
          res.iterations >= params.max_iter) {
        s.done = true;
        break;
      }
      start_inner(s);
    }
    return false;
  };

  for (std::size_t i = 0; i < nb; ++i) {
    if (st[i].r2_d <= st[i].target || results[i].iterations >= params.max_iter)
      st[i].done = true;
    else
      start_inner(st[i]);
  }

  while (true) {
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < nb; ++i)
      if (ready(i)) batch.push_back(i);
    if (batch.empty()) break;

    // One batched sloppy matvec for every RHS mid-inner-solve.
    const auto na = batch.size();
    std::vector<SpinorField<float>*> bap;
    std::vector<const SpinorField<float>*> cbp, cbap;
    for (std::size_t i : batch) {
      bap.push_back(&st[i].ap_s);
      cbap.push_back(&st[i].ap_s);
      cbp.push_back(&st[i].p_s);
    }
    a_single(bap, cbp);
    std::vector<double> pap(na);
    blas::redot_multi<float>(cbp, cbap, pap);

    // A sloppy breakdown (pAp <= 0) leaves the stepping subset and forces
    // a reliable update; everyone else takes the fused vector updates.
    std::vector<std::size_t> step;
    for (std::size_t k = 0; k < na; ++k) {
      const std::size_t i = batch[k];
      ++results[i].iterations;
      ++st[i].inner;
      if (pap[k] > 0.0)
        step.push_back(k);
      else
        st[i].breakdown = true;
    }
    if (step.empty()) continue;

    std::vector<double> alpha(step.size()), rsq_new(step.size());
    for (std::size_t m = 0; m < step.size(); ++m)
      alpha[m] = st[batch[step[m]]].rsq / pap[step[m]];
    if (half) {
      // Each vector update fuses with its 16-bit quantisation (and, for r,
      // with the norm): one pass per field instead of the naive update +
      // 4-sweep quantize().  They stay per-RHS (their traffic is per-RHS
      // regardless — no cross-RHS reuse to fuse).
      for (std::size_t m = 0; m < step.size(); ++m) {
        MixedRhs& s = st[batch[step[m]]];
        s.hstore.axpy_roundtrip(alpha[m], s.p_s, s.xs);
        rsq_new[m] = s.hstore.axpy_roundtrip_norm2(-alpha[m], s.ap_s, s.r_s);
      }
    } else {
      std::vector<SpinorField<float>*> sx, sr;
      std::vector<const SpinorField<float>*> sp, sap;
      for (std::size_t m : step) {
        MixedRhs& s = st[batch[m]];
        sp.push_back(&s.p_s);
        sap.push_back(&s.ap_s);
        sx.push_back(&s.xs);
        sr.push_back(&s.r_s);
      }
      blas::triple_cg_update_multi<float>(alpha, sp, sap, sx, sr, rsq_new);
    }
    std::vector<double> beta(step.size());
    for (std::size_t m = 0; m < step.size(); ++m) {
      MixedRhs& s = st[batch[step[m]]];
      FEMTO_CHECK(std::isfinite(rsq_new[m]),
                  "mixed_cg: sloppy residual norm went NaN/Inf");
      beta[m] = rsq_new[m] / s.rsq;
      s.rsq = rsq_new[m];
    }
    if (half) {
      for (std::size_t m = 0; m < step.size(); ++m) {
        MixedRhs& s = st[batch[step[m]]];
        s.hstore.xpay_roundtrip(s.r_s, beta[m], s.p_s);
      }
    } else {
      std::vector<SpinorField<float>*> sps;
      std::vector<const SpinorField<float>*> srs;
      for (std::size_t m : step) {
        sps.push_back(&st[batch[m]].p_s);
        srs.push_back(&st[batch[m]].r_s);
      }
      blas::xpay_multi<float>(srs, beta, sps);
    }
    for (std::size_t m = 0; m < step.size(); ++m) {
      const std::size_t i = batch[step[m]];
      results[i].history.push_back(
          {results[i].iterations,
           st[i].b2 > 0.0 ? std::sqrt(st[i].rsq / st[i].b2) : 0.0, inner_prec,
           false});
    }
  }

  // Block work is joint and the counters are process-global, so each RHS
  // is charged an equal share of the block's flops, bytes and wall time.
  const auto n = static_cast<std::int64_t>(nb);
  const double seconds = sw.seconds() / static_cast<double>(nb);
  const std::int64_t flops_share = (flops::get() - flops0) / n;
  const std::int64_t bytes_share = (flops::bytes() - bytes0) / n;
  for (std::size_t i = 0; i < nb; ++i) {
    SolveResult& res = results[i];
    res.converged = st[i].r2_d <= st[i].target;
    res.final_rel_residual =
        st[i].b2 > 0.0 ? std::sqrt(st[i].r2_d / st[i].b2) : 0.0;
    res.seconds = seconds;
    res.flop_count = flops_share;
    res.byte_count = bytes_share;
    solver_obs::record("mixed_cg", res);
  }
  return results;
}

SolveResult mixed_cg(const ApplyFn<double>& a_double,
                     const ApplyFn<float>& a_single,
                     SpinorField<double>& x, const SpinorField<double>& b,
                     const SolverParams& params) {
  SpinorField<double>* xs[] = {&x};
  const SpinorField<double>* bs[] = {&b};
  return block_mixed_cg(one_at_a_time(a_double), one_at_a_time(a_single),
                        xs, bs, params)[0];
}

}  // namespace femto
