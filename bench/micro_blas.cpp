// Microbenchmark: the BLAS-1 kernels of the CG solver ("50-100 flops per
// lattice site, i.e., they are extremely bandwidth bound").
//
// A fused vs unfused traffic study over the solver's per-iteration kernel
// sequences (plain CG, single-precision triple-update CG, and the
// half-precision quantised iteration), reporting the charged bytes per
// iteration, GB/s and the reductions fusion buys.  Results land in
// BENCH_blas.json as info rows: tracked by benchdiff, never gated.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "lattice/blas.hpp"
#include "solver/half.hpp"

namespace {

constexpr int kInner = 20;  // sequence calls per timed sample
constexpr int kReps = 1;    // one sample: the mean over kInner calls
constexpr int kWarm = 2;

// Charges and times one sequence in both forms and reports the row.
void sequence_row(femto::bench::Report& rep, const std::string& name,
                  const std::function<void()>& unfused,
                  const std::function<void()>& fused) {
  const std::int64_t unfused_bytes = femto::bench::charge(unfused).bytes;
  const std::int64_t fused_bytes = femto::bench::charge(fused).bytes;
  const std::vector<double> seconds =
      femto::bench::min_seconds({unfused, fused}, kInner, kReps, kWarm);
  const double unfused_gbps =
      femto::bench::giga_per_s(unfused_bytes, seconds[0]);
  const double fused_gbps = femto::bench::giga_per_s(fused_bytes, seconds[1]);
  const double traffic_pct =
      100.0 * (1.0 - static_cast<double>(fused_bytes) /
                         static_cast<double>(unfused_bytes));
  const double wallclock_pct = 100.0 * (1.0 - seconds[1] / seconds[0]);

  rep.set(name + ".unfused.bytes_per_iter",
          static_cast<double>(unfused_bytes));
  rep.set(name + ".unfused.seconds_per_iter", seconds[0]);
  rep.set(name + ".unfused.gbps", unfused_gbps);
  rep.set(name + ".fused.bytes_per_iter", static_cast<double>(fused_bytes));
  rep.set(name + ".fused.seconds_per_iter", seconds[1]);
  rep.set(name + ".fused.gbps", fused_gbps);
  rep.set(name + ".traffic_reduction_pct", traffic_pct);
  rep.set(name + ".wallclock_reduction_pct", wallclock_pct);
  std::printf(
      "  %-22s traffic %6.2f%% less (%lld -> %lld bytes), "
      "wall-clock %6.2f%% less (%.3e -> %.3e s), %.2f -> %.2f GB/s\n",
      name.c_str(), traffic_pct, static_cast<long long>(unfused_bytes),
      static_cast<long long>(fused_bytes), wallclock_pct, seconds[0],
      seconds[1], unfused_gbps, fused_gbps);
}

}  // namespace

int main() {
  const auto g = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  const int l5 = 8;
  const auto sub = femto::Subset::Odd;
  femto::bench::Report rep;
  std::printf("fused vs unfused solver iteration sequences (%s):\n",
              "8x8x8x16, l5=8, odd subset");

  {
    // Plain CG iteration body beyond the matvec (double precision).
    femto::SpinorField<double> p(g, l5, sub), ap(g, l5, sub), x(g, l5, sub),
        r(g, l5, sub);
    p.gaussian(21);
    ap.gaussian(22);
    x.gaussian(23);
    r.gaussian(24);
    sequence_row(
        rep, "cg_iteration_double",
        [&] {
          femto::blas::redot(p, ap);
          femto::blas::axpy(1e-6, p, x);
          femto::blas::axpy(-1e-6, ap, r);
          femto::blas::norm2(r);
          femto::blas::xpay(r, 1e-6, p);
        },
        [&] {
          femto::blas::redot(p, ap);
          femto::blas::axpy_norm2(-1e-6, ap, r);
          femto::blas::axpy_zpbx(1e-6, p, x, r, 1e-6);
        });
  }

  {
    // mixed_cg single-precision inner iteration (tripleCGUpdate path).
    femto::SpinorField<float> p(g, l5, sub), ap(g, l5, sub), x(g, l5, sub),
        r(g, l5, sub);
    p.gaussian(31);
    ap.gaussian(32);
    x.gaussian(33);
    r.gaussian(34);
    sequence_row(
        rep, "cg_iteration_single",
        [&] {
          femto::blas::redot(p, ap);
          femto::blas::axpy(1e-6f, p, x);
          femto::blas::axpy(-1e-6f, ap, r);
          femto::blas::norm2(r);
          femto::blas::xpay(r, 1e-6f, p);
        },
        [&] {
          femto::blas::redot(p, ap);
          femto::blas::triple_cg_update(1e-6, p, ap, x, r);
          femto::blas::xpay(r, 1e-6, p);
        });
  }

  {
    // mixed_cg half-precision inner iteration: updates + 16-bit quantise.
    femto::SpinorField<float> p(g, l5, sub), ap(g, l5, sub), x(g, l5, sub),
        r(g, l5, sub);
    p.gaussian(41);
    ap.gaussian(42);
    x.gaussian(43);
    r.gaussian(44);
    femto::HalfSpinorField store(g, l5, sub);
    sequence_row(
        rep, "cg_iteration_half",
        [&] {
          femto::blas::redot(p, ap);
          femto::blas::axpy(1e-6f, p, x);
          femto::blas::axpy(-1e-6f, ap, r);
          store.encode(x);
          store.decode(x);
          store.encode(r);
          store.decode(r);
          femto::blas::norm2(r);
          femto::blas::xpay(r, 1e-6f, p);
          store.encode(p);
          store.decode(p);
        },
        [&] {
          femto::blas::redot(p, ap);
          store.axpy_roundtrip(1e-6, p, x);
          store.axpy_roundtrip_norm2(-1e-6, ap, r);
          store.xpay_roundtrip(r, 1e-6, p);
        });
  }

  return rep.write("BENCH_blas.json") ? 0 : 1;
}
