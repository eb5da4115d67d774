// Microbenchmark: the femtosimd hot paths (DESIGN.md §11) -- scalar vs
// vectorized dslash kernel variants, W=1 vs native-width fused BLAS, and
// the half-precision quantise round-trips -- reporting GFLOP/s, effective
// GB/s (from the byte counter) and the speedup per width.
//
// Timing is min-of-reps wall clock over a short inner loop, the same
// convention as the autotuner: the minimum is the least-noisy estimator
// of the achievable rate on a shared machine.  The kernels compared in
// one row run round-robin inside every rep, so a machine-state change
// (frequency step, noisy neighbour) hits all of them alike instead of
// whichever one was being timed at the moment.  Results land in
// BENCH_simd.json (repo root, like BENCH_blas.json / BENCH_obs.json) so
// scripts/bench_simd.sh can gate the vectorization claim and successive
// PRs can track the trajectory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dirac/wilson.hpp"
#include "lattice/blas.hpp"
#include "lattice/flops.hpp"
#include "lattice/gauge.hpp"
#include "simd/vec.hpp"
#include "solver/half.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

constexpr int kInner = 4;   // kernel calls per timed sample
constexpr int kReps = 12;   // timed samples; min is reported

// Seconds per single call of each of @p fns, min over kReps samples of
// kInner calls each; every rep times all of them, one after another.
std::vector<double> time_best(const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) {
    fn();
    fn();  // warm: faults the pages, spins up the pool
  }
  std::vector<double> best(fns.size(), 1e300);
  for (int r = 0; r < kReps; ++r)
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const auto t0 = clock_type::now();
      for (int i = 0; i < kInner; ++i) fns[k]();
      const double s =
          std::chrono::duration<double>(clock_type::now() - t0).count() /
          kInner;
      best[k] = std::min(best[k], s);
    }
  return best;
}

// Bytes the traffic model charges for one call of fn.
std::int64_t charged_bytes(const std::function<void()>& fn) {
  femto::flops::reset();
  fn();
  return femto::flops::bytes();
}

// ---------------------------------------------------------------------------
// Dslash: one row per kernel variant, per precision.
// ---------------------------------------------------------------------------

struct VariantRow {
  std::string name;
  double seconds = 0.0, gflops = 0.0, gbps = 0.0, speedup = 1.0;
};

struct DslashStudy {
  std::string precision;
  std::vector<VariantRow> rows;
  double best_speedup = 1.0;
};

template <typename T>
DslashStudy dslash_study(const std::shared_ptr<const femto::Geometry>& geom,
                         int l5) {
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

  DslashStudy study;
  study.precision = sizeof(T) == 4 ? "float" : "double";
  const double site_flops =
      1320.0 * static_cast<double>(geom->half_volume()) * l5;
  std::vector<std::function<void()>> calls;
  for (const auto v : variants) {
    femto::DslashTuning tune;
    tune.variant = v;
    calls.emplace_back([&, tune] {
      femto::dslash<T>(femto::view(out), u, femto::cview(in), 0, false, tune);
    });
  }
  const std::vector<double> seconds = time_best(calls);
  for (std::size_t k = 0; k < variants.size(); ++k) {
    VariantRow row;
    row.name = femto::to_string(variants[k]);
    row.seconds = seconds[k];
    row.gflops = site_flops / row.seconds / 1e9;
    row.gbps =
        static_cast<double>(charged_bytes(calls[k])) / row.seconds / 1e9;
    row.speedup = seconds[0] / row.seconds;  // variants[0] is scalar
    study.best_speedup = std::max(study.best_speedup, row.speedup);
    study.rows.push_back(row);
  }
  return study;
}

// ---------------------------------------------------------------------------
// Fused BLAS and half-precision round-trips: W=1 vs the native width.
// ---------------------------------------------------------------------------

struct WidthRow {
  std::string kernel, precision;
  int width = 1;
  double scalar_seconds = 0.0, vector_seconds = 0.0;
  double scalar_gbps = 0.0, vector_gbps = 0.0, speedup = 1.0;
};

WidthRow width_row(const std::string& kernel, const std::string& precision,
                   int width, const std::function<void()>& scalar,
                   const std::function<void()>& vec) {
  WidthRow row;
  row.kernel = kernel;
  row.precision = precision;
  row.width = width;
  const double bytes = static_cast<double>(charged_bytes(scalar));
  const std::vector<double> seconds = time_best({scalar, vec});
  row.scalar_seconds = seconds[0];
  row.vector_seconds = seconds[1];
  row.scalar_gbps = bytes / row.scalar_seconds / 1e9;
  row.vector_gbps = bytes / row.vector_seconds / 1e9;
  row.speedup = row.scalar_seconds / row.vector_seconds;
  return row;
}

template <typename T>
std::vector<WidthRow> blas_study(
    const std::shared_ptr<const femto::Geometry>& geom, int l5) {
  constexpr int W = femto::simd::kWidth<T>;
  const std::string prec = sizeof(T) == 4 ? "float" : "double";
  const auto sub = femto::Subset::Odd;
  femto::SpinorField<T> p(geom, l5, sub), ap(geom, l5, sub), x(geom, l5, sub),
      r(geom, l5, sub);
  p.gaussian(21);
  ap.gaussian(22);
  x.gaussian(23);
  r.gaussian(24);

  std::vector<WidthRow> rows;
  rows.push_back(width_row(
      "axpy", prec, W,
      [&] { femto::blas::axpy<T, 1>(1.00001, p, x); },
      [&] { femto::blas::axpy<T, W>(1.00001, p, x); }));
  rows.push_back(width_row(
      "norm2", prec, W, [&] { femto::blas::norm2<T, 1>(r); },
      [&] { femto::blas::norm2<T, W>(r); }));
  rows.push_back(width_row(
      "axpy_norm2", prec, W,
      [&] { femto::blas::axpy_norm2<T, 1>(-1e-6, ap, r); },
      [&] { femto::blas::axpy_norm2<T, W>(-1e-6, ap, r); }));
  rows.push_back(width_row(
      "triple_cg_update", prec, W,
      [&] { femto::blas::triple_cg_update<T, 1>(1e-6, p, ap, x, r); },
      [&] { femto::blas::triple_cg_update<T, W>(1e-6, p, ap, x, r); }));
  return rows;
}

std::vector<WidthRow> half_study(
    const std::shared_ptr<const femto::Geometry>& geom, int l5) {
  constexpr int W = femto::simd::kWidth<float>;
  const auto sub = femto::Subset::Odd;
  femto::SpinorField<float> x(geom, l5, sub), y(geom, l5, sub);
  x.gaussian(41);
  y.gaussian(42);
  femto::HalfSpinorField h(geom, l5, sub);

  std::vector<WidthRow> rows;
  rows.push_back(width_row(
      "half_roundtrip_norm2", "float", W,
      [&] { h.roundtrip_norm2<1>(y); }, [&] { h.roundtrip_norm2<W>(y); }));
  rows.push_back(width_row(
      "half_axpy_roundtrip", "float", W,
      [&] { h.axpy_roundtrip<1>(1e-6, x, y); },
      [&] { h.axpy_roundtrip<W>(1e-6, x, y); }));
  return rows;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void print_width_rows(const char* title, const std::vector<WidthRow>& rows) {
  std::printf("%s (W=1 vs native):\n", title);
  for (const auto& r : rows)
    std::printf(
        "  %-22s %-6s W=%d  %8.2f -> %8.2f GB/s  (x%.2f)\n",
        r.kernel.c_str(), r.precision.c_str(), r.width, r.scalar_gbps,
        r.vector_gbps, r.speedup);
}

void write_json(const femto::Geometry& d, int l5,
                const std::vector<DslashStudy>& dslash,
                const std::vector<WidthRow>& blas,
                const std::vector<WidthRow>& half) {
  std::FILE* f = std::fopen("BENCH_simd.json", "w");
  if (!f) return;
  std::fprintf(f,
               "{\n  \"isa\": \"%s\",\n  \"width_float\": %d,\n"
               "  \"width_double\": %d,\n"
               "  \"volume\": [%d, %d, %d, %d],\n  \"l5\": %d,\n",
               femto::simd::kIsaName, femto::simd::kWidth<float>,
               femto::simd::kWidth<double>, d.extent(0), d.extent(1),
               d.extent(2), d.extent(3), l5);
  std::fprintf(f, "  \"dslash\": [\n");
  for (std::size_t i = 0; i < dslash.size(); ++i) {
    const auto& s = dslash[i];
    std::fprintf(f,
                 "    {\"precision\": \"%s\", \"best_speedup\": %.3f,\n"
                 "     \"variants\": [\n",
                 s.precision.c_str(), s.best_speedup);
    for (std::size_t j = 0; j < s.rows.size(); ++j) {
      const auto& r = s.rows[j];
      std::fprintf(f,
                   "       {\"name\": \"%s\", \"seconds\": %.3e, "
                   "\"gflops\": %.3f, \"gbps\": %.3f, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.seconds, r.gflops, r.gbps, r.speedup,
                   j + 1 < s.rows.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < dslash.size() ? "," : "");
  }
  const auto dump_rows = [f](const char* key,
                             const std::vector<WidthRow>& rows, bool last) {
    std::fprintf(f, "  ],\n  \"%s\": [\n", key);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"precision\": \"%s\", "
                   "\"width\": %d, \"scalar_gbps\": %.3f, "
                   "\"vector_gbps\": %.3f, \"speedup\": %.3f}%s\n",
                   r.kernel.c_str(), r.precision.c_str(), r.width,
                   r.scalar_gbps, r.vector_gbps, r.speedup,
                   i + 1 < rows.size() ? "," : "");
    }
    if (last) std::fprintf(f, "  ]\n}\n");
  };
  dump_rows("blas", blas, false);
  dump_rows("half", half, true);
  std::fclose(f);
}

}  // namespace

int main() {
  // Cache-resident working set: the SIMD claim is about the ALU/decode
  // path, so keep the fields out of main memory (the bandwidth wall is
  // micro_blas's story).  4^3 x 8, l5=8 -> ~200 KB per float field.
  auto geom = std::make_shared<femto::Geometry>(4, 4, 4, 8);
  const int l5 = 16;

  std::printf("femtosimd microbenchmark: isa=%s, float W=%d, double W=%d\n",
              femto::simd::kIsaName, femto::simd::kWidth<float>,
              femto::simd::kWidth<double>);
  std::printf("volume 4x4x4x8, l5=%d, odd subset\n\n", l5);

  std::vector<DslashStudy> dslash;
  dslash.push_back(dslash_study<float>(geom, l5));
  dslash.push_back(dslash_study<double>(geom, l5));
  std::printf("dslash kernel variants:\n");
  for (const auto& s : dslash)
    for (const auto& r : s.rows)
      std::printf("  %-6s %-15s %8.3e s  %7.2f GFLOP/s  %7.2f GB/s  (x%.2f)\n",
                  s.precision.c_str(), r.name.c_str(), r.seconds, r.gflops,
                  r.gbps, r.speedup);
  std::printf("\n");

  std::vector<WidthRow> blas;
  for (auto& r : blas_study<float>(geom, l5)) blas.push_back(r);
  for (auto& r : blas_study<double>(geom, l5)) blas.push_back(r);
  print_width_rows("fused BLAS", blas);
  std::printf("\n");

  const auto half = half_study(geom, l5);
  print_width_rows("half-precision quantise", half);

  write_json(*geom, l5, dslash, blas, half);
  std::printf("\nwrote BENCH_simd.json\n");
  return 0;
}
