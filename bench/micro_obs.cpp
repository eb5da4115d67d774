// Femtoscope tracer overhead on the real solver workload.  The per-scope
// cost of a FEMTO_TRACE_SCOPE, tracing off and on, is measured on a
// xorshift hot loop against the same loop bare; the overhead is that cost
// times the spans one iteration of cg<double>'s per-iteration BLAS
// (redot, axpy_norm2, axpy_zpbx) records, over the iteration's untraced
// time.  Timing the whole workload traced and untraced instead compares
// two ~35 ms timings whose difference is a few microseconds: noise, not
// data.
//
// Budgets: enabled overhead <= kEnabledBudgetPct (the paper-facing claim
// is <= 2 % on a quiet machine), disabled <= kDisabledBudgetPct, and no
// span dropped to ring wrap.  Results land in BENCH_obs.json, gated by
// benchdiff.

#include <cstdint>
#include <cstdio>
#include <memory>

#include "harness.hpp"
#include "lattice/blas.hpp"
#include "lattice/spinor.hpp"
#include "obs/trace.hpp"

namespace {

using femto::SpinorField;
using femto::Subset;

constexpr int kIters = 40;  // CG iterations per timed rep
constexpr int kReps = 5;    // min over reps (autotuner convention)
constexpr std::size_t kDisabledScopes = 4'000'000;  // per timed loop
// Per timed loop with tracing on: kReps loops fit the default 1 << 16
// spans of one thread's ring, so no span is dropped.
constexpr std::size_t kEnabledScopes = 10'000;
constexpr double kEnabledBudgetPct = 5.0;
constexpr double kDisabledBudgetPct = 1.0;

// One cg<double> iteration's BLAS beyond the matvec, in cg's order.
double cg_iteration_blas(SpinorField<double>& x, SpinorField<double>& r,
                         SpinorField<double>& p,
                         const SpinorField<double>& ap) {
  const double pap = femto::blas::redot(p, ap);
  const double rsq = femto::blas::axpy_norm2(-1e-7, ap, r);
  femto::blas::axpy_zpbx(1e-7, p, x, r, 0.5);
  return pap + rsq;
}

inline std::uint64_t step(std::uint64_t s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Nanoseconds one scope adds to a xorshift step at the current tracing
// state: the scoped and the bare loop of @p n steps run round-robin.
double ns_per_scope(std::size_t n, std::uint64_t* sink) {
  const auto seconds = femto::bench::min_seconds(
      {[&] {
         std::uint64_t s = *sink | 1;
         for (std::size_t i = 0; i < n; ++i) s = step(s);
         *sink += s;
       },
       [&] {
         std::uint64_t s = *sink | 1;
         for (std::size_t i = 0; i < n; ++i) {
           FEMTO_TRACE_SCOPE("bench", "hot_loop");
           s = step(s);
         }
         *sink += s;
       }},
      1, kReps, 0);
  return (seconds[1] - seconds[0]) / static_cast<double>(n) * 1e9;
}

}  // namespace

int main() {
  const auto geom = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  const int l5 = 8;
  SpinorField<double> x(geom, l5, Subset::Odd), r(geom, l5, Subset::Odd),
      p(geom, l5, Subset::Odd), ap(geom, l5, Subset::Odd);
  x.gaussian(1);
  r.gaussian(2);
  p.gaussian(3);
  ap.gaussian(4);
  double sink = 0.0;
  std::uint64_t usink = 0x9E3779B97F4A7C15ull;

  femto::obs::set_trace_enabled(false);
  const double iter_s = femto::bench::min_seconds(
      {[&] { sink += cg_iteration_blas(x, r, p, ap); }}, kIters, kReps, 1)[0];
  const double off_ns = ns_per_scope(kDisabledScopes, &usink);

  femto::obs::set_trace_enabled(true);
  femto::obs::trace_clear();
  sink += cg_iteration_blas(x, r, p, ap);
  const auto iteration = femto::obs::trace_snapshot();
  const auto spans = static_cast<double>(iteration.events.size());
  femto::obs::trace_clear();
  const double on_ns = ns_per_scope(kEnabledScopes, &usink);
  const std::uint64_t dropped =
      iteration.dropped + femto::obs::trace_snapshot().dropped;
  femto::obs::set_trace_enabled(false);

  const double on_pct = on_ns * 1e-9 * spans / iter_s * 100.0;
  const double off_pct = off_ns * 1e-9 * spans / iter_s * 100.0;

  std::printf("femtoscope tracer overhead (cg<double> iteration BLAS, "
              "8x8x8x16 l5=%d, min of %d)\n",
              l5, kReps);
  std::printf("  untraced iteration: %.3e s, %.0f spans\n", iter_s, spans);
  std::printf("  enabled scope : %7.2f ns (%+.4f%% of the iteration)\n",
              on_ns, on_pct);
  std::printf("  disabled scope: %7.3f ns (%+.5f%% of the iteration)\n",
              off_ns, off_pct);
  std::printf("  spans dropped : %llu\n",
              static_cast<unsigned long long>(dropped));
  if (sink == 0.0 && usink == 0) std::printf("(unreachable)\n");

  femto::bench::Report rep;
  rep.set("iters", kIters);
  rep.set("reps", kReps);
  rep.set("iter_seconds", iter_s);
  rep.set("spans_per_iter", spans);
  rep.set("enabled_ns_per_scope", on_ns);
  rep.set("disabled_ns_per_scope", off_ns);
  rep.set("overhead_enabled_pct", on_pct);
  rep.set("overhead_disabled_pct", off_pct);
  rep.set("dropped", static_cast<double>(dropped));
  rep.set("enabled_overhead_gate_ok", on_pct <= kEnabledBudgetPct);
  rep.set("disabled_overhead_gate_ok", off_pct <= kDisabledBudgetPct);
  rep.set("no_drop_gate_ok", dropped == 0);
  return rep.write("BENCH_obs.json") ? 0 : 1;
}
