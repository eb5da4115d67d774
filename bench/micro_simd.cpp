// Microbenchmark: the femtosimd hot paths (DESIGN.md §11) -- scalar vs
// vectorized dslash kernel variants, W=1 vs native-width fused BLAS, and
// the half-precision quantise round-trips -- reporting GFLOP/s, GB/s and
// the speedup per width.
//
// The vectorization claim: on a SIMD build the float dslash (best
// variant) and the better float fused BLAS kernel (axpy_norm2 or
// triple_cg_update) are >= kSimdGate x the scalar path.  A scalar build
// has no width to compare and passes both.  Results land in
// BENCH_simd.json, gated by benchdiff.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dirac/wilson.hpp"
#include "harness.hpp"
#include "lattice/blas.hpp"
#include "lattice/gauge.hpp"
#include "simd/vec.hpp"
#include "solver/half.hpp"

namespace {

using femto::bench::Report;

constexpr int kInner = 4;   // kernel calls per timed sample
constexpr int kReps = 12;   // timed samples; min is reported
constexpr int kWarm = 2;    // untimed calls: fault the pages, spin up the pool
constexpr double kSimdGate = 1.5;

// ---------------------------------------------------------------------------
// Dslash: one row per kernel variant, per precision.
// ---------------------------------------------------------------------------

// Returns the best variant's speedup over the scalar one.
template <typename T>
double dslash_study(const std::shared_ptr<const femto::Geometry>& geom,
                    int l5, Report& rep) {
  femto::GaugeField<double> ud(geom);
  femto::weak_gauge(ud, 1, 0.2);
  const auto u = ud.convert<T>();
  femto::SpinorField<T> in(geom, l5, femto::Subset::Odd),
      out(geom, l5, femto::Subset::Even);
  in.gaussian(2);

  std::vector<femto::DslashVariant> variants = {femto::DslashVariant::kScalar};
  if constexpr (femto::simd::kWidth<T> > 1) {
    variants.push_back(femto::DslashVariant::kVector);
    variants.push_back(femto::DslashVariant::kVectorBlocked);
  }

  const std::string prec = sizeof(T) == 4 ? "float" : "double";
  std::vector<std::function<void()>> calls;
  for (const auto v : variants) {
    femto::DslashTuning tune;
    tune.variant = v;
    calls.emplace_back([&, tune] {
      femto::dslash<T>(femto::view(out), u, femto::cview(in), 0, false, tune);
    });
  }
  const std::vector<double> seconds =
      femto::bench::min_seconds(calls, kInner, kReps, kWarm);
  double best = 1.0;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const auto c = femto::bench::charge(calls[k]);
    const double gflops = femto::bench::giga_per_s(c.flops, seconds[k]);
    const double gbps = femto::bench::giga_per_s(c.bytes, seconds[k]);
    const double speedup = seconds[0] / seconds[k];  // variants[0] is scalar
    best = std::max(best, speedup);
    const std::string key =
        "dslash." + prec + "." + femto::to_string(variants[k]);
    rep.set(key + ".seconds", seconds[k]);
    rep.set(key + ".gflops", gflops);
    rep.set(key + ".gbps", gbps);
    rep.set(key + ".speedup", speedup);
    std::printf("  %-6s %-15s %8.3e s  %7.2f GFLOP/s  %7.2f GB/s  (x%.2f)\n",
                prec.c_str(), femto::to_string(variants[k]), seconds[k],
                gflops, gbps, speedup);
  }
  rep.set("dslash." + prec + ".best_speedup", best);
  return best;
}

// ---------------------------------------------------------------------------
// Fused BLAS and half-precision round-trips: W=1 vs the native width.
// ---------------------------------------------------------------------------

// One W=1 vs native-width row; both widths charge the same traffic.
// Returns the speedup.
double width_row(Report& rep, const std::string& key,
                 const std::function<void()>& scalar,
                 const std::function<void()>& vec) {
  const std::int64_t bytes = femto::bench::charge(scalar).bytes;
  const std::vector<double> seconds =
      femto::bench::min_seconds({scalar, vec}, kInner, kReps, kWarm);
  const double scalar_gbps = femto::bench::giga_per_s(bytes, seconds[0]);
  const double vector_gbps = femto::bench::giga_per_s(bytes, seconds[1]);
  const double speedup = seconds[0] / seconds[1];
  rep.set(key + ".scalar_gbps", scalar_gbps);
  rep.set(key + ".vector_gbps", vector_gbps);
  rep.set(key + ".speedup", speedup);
  std::printf("  %-32s %8.2f -> %8.2f GB/s  (x%.2f)\n", key.c_str(),
              scalar_gbps, vector_gbps, speedup);
  return speedup;
}

// Returns the better fused kernel's (axpy_norm2, triple_cg_update) speedup.
template <typename T>
double blas_study(const std::shared_ptr<const femto::Geometry>& geom, int l5,
                  Report& rep) {
  constexpr int W = femto::simd::kWidth<T>;
  const std::string key = std::string("blas.") +
                          (sizeof(T) == 4 ? "float" : "double") + ".";
  const auto sub = femto::Subset::Odd;
  femto::SpinorField<T> p(geom, l5, sub), ap(geom, l5, sub), x(geom, l5, sub),
      r(geom, l5, sub);
  p.gaussian(21);
  ap.gaussian(22);
  x.gaussian(23);
  r.gaussian(24);

  width_row(
      rep, key + "axpy", [&] { femto::blas::axpy<T, 1>(1.00001, p, x); },
      [&] { femto::blas::axpy<T, W>(1.00001, p, x); });
  width_row(
      rep, key + "norm2", [&] { femto::blas::norm2<T, 1>(r); },
      [&] { femto::blas::norm2<T, W>(r); });
  const double axpy_norm2 = width_row(
      rep, key + "axpy_norm2",
      [&] { femto::blas::axpy_norm2<T, 1>(-1e-6, ap, r); },
      [&] { femto::blas::axpy_norm2<T, W>(-1e-6, ap, r); });
  const double triple = width_row(
      rep, key + "triple_cg_update",
      [&] { femto::blas::triple_cg_update<T, 1>(1e-6, p, ap, x, r); },
      [&] { femto::blas::triple_cg_update<T, W>(1e-6, p, ap, x, r); });
  return std::max(axpy_norm2, triple);
}

void half_study(const std::shared_ptr<const femto::Geometry>& geom, int l5,
                Report& rep) {
  constexpr int W = femto::simd::kWidth<float>;
  const auto sub = femto::Subset::Odd;
  femto::SpinorField<float> x(geom, l5, sub), y(geom, l5, sub);
  x.gaussian(41);
  y.gaussian(42);
  femto::HalfSpinorField h(geom, l5, sub);

  width_row(
      rep, "half.float.roundtrip_norm2", [&] { h.roundtrip_norm2<1>(y); },
      [&] { h.roundtrip_norm2<W>(y); });
  width_row(
      rep, "half.float.axpy_roundtrip",
      [&] { h.axpy_roundtrip<1>(1e-6, x, y); },
      [&] { h.axpy_roundtrip<W>(1e-6, x, y); });
}

}  // namespace

int main() {
  // Cache-resident working set: the SIMD claim is about the ALU/decode
  // path, so keep the fields out of main memory (the bandwidth wall is
  // micro_blas's story).  4^3 x 8, l5=16 -> ~390 KB per float field.
  auto geom = std::make_shared<femto::Geometry>(4, 4, 4, 8);
  const int l5 = 16;
  constexpr bool kScalarBuild = femto::simd::kWidth<float> == 1;

  std::printf("femtosimd microbenchmark: isa=%s, float W=%d, double W=%d\n",
              femto::simd::kIsaName, femto::simd::kWidth<float>,
              femto::simd::kWidth<double>);
  std::printf("volume 4x4x4x8, l5=%d, odd subset\n\n", l5);

  Report rep;
  rep.set("width_float", femto::simd::kWidth<float>);
  rep.set("width_double", femto::simd::kWidth<double>);
  rep.set("l5", l5);

  std::printf("dslash kernel variants:\n");
  const double dslash_float = dslash_study<float>(geom, l5, rep);
  dslash_study<double>(geom, l5, rep);

  std::printf("\nfused BLAS (W=1 vs native):\n");
  const double fused_float = blas_study<float>(geom, l5, rep);
  blas_study<double>(geom, l5, rep);

  std::printf("\nhalf-precision quantise (W=1 vs native):\n");
  half_study(geom, l5, rep);

  const bool dslash_ok = kScalarBuild || dslash_float >= kSimdGate;
  const bool fused_ok = kScalarBuild || fused_float >= kSimdGate;
  rep.set("dslash_gate_ok", dslash_ok);
  rep.set("fused_blas_gate_ok", fused_ok);
  std::printf("\nfloat dslash best x%.2f, float fused BLAS best x%.2f "
              "(gate x%.2f) -> %s, %s\n",
              dslash_float, fused_float, kSimdGate, dslash_ok ? "OK" : "FAIL",
              fused_ok ? "OK" : "FAIL");
  return rep.write("BENCH_simd.json") ? 0 : 1;
}
