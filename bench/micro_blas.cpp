// Microbenchmark: the BLAS-1 kernels of the CG solver ("50-100 flops per
// lattice site, i.e., they are extremely bandwidth bound").
//
// Besides the usual google-benchmark timings this binary runs a fused vs
// unfused traffic study over the solver's per-iteration kernel sequences
// (plain CG, single-precision triple-update CG, and the half-precision
// quantised iteration), reporting effective GB/s from the byte counter and
// emitting the results as machine-readable BENCH_blas.json so future PRs
// can track the trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/flops.hpp"
#include "solver/half.hpp"

namespace {

std::shared_ptr<const femto::Geometry> geom() {
  static auto g = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  return g;
}

void bm_axpy(benchmark::State& state) {
  femto::SpinorField<double> x(geom(), 8, femto::Subset::Odd),
      y(geom(), 8, femto::Subset::Odd);
  x.gaussian(1);
  y.gaussian(2);
  for (auto _ : state) {
    femto::blas::axpy(1.00001, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * 3 * x.bytes());
}

void bm_norm2(benchmark::State& state) {
  femto::SpinorField<double> x(geom(), 8, femto::Subset::Odd);
  x.gaussian(5);
  double sink = 0;
  for (auto _ : state) {
    sink += femto::blas::norm2(x);
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * x.bytes());
}

void bm_cdot(benchmark::State& state) {
  femto::SpinorField<double> x(geom(), 8, femto::Subset::Odd),
      y(geom(), 8, femto::Subset::Odd);
  x.gaussian(6);
  y.gaussian(7);
  double sink = 0;
  for (auto _ : state) {
    sink += femto::blas::cdot(x, y).re;
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * 2 * x.bytes());
}

void bm_axpy_norm2(benchmark::State& state) {
  femto::SpinorField<double> x(geom(), 8, femto::Subset::Odd),
      y(geom(), 8, femto::Subset::Odd);
  x.gaussian(8);
  y.gaussian(9);
  double sink = 0;
  for (auto _ : state) {
    sink += femto::blas::axpy_norm2(1e-6, x, y);
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * 3 * x.bytes());
}

void bm_triple_cg_update(benchmark::State& state) {
  femto::SpinorField<float> p(geom(), 8, femto::Subset::Odd),
      ap(geom(), 8, femto::Subset::Odd), x(geom(), 8, femto::Subset::Odd),
      r(geom(), 8, femto::Subset::Odd);
  p.gaussian(10);
  ap.gaussian(11);
  x.gaussian(12);
  r.gaussian(13);
  double sink = 0;
  for (auto _ : state) {
    sink += femto::blas::triple_cg_update(1e-6, p, ap, x, r);
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(state.iterations() * 6 * p.bytes());
}

void bm_axpy_zpbx(benchmark::State& state) {
  femto::SpinorField<double> p(geom(), 8, femto::Subset::Odd),
      x(geom(), 8, femto::Subset::Odd), z(geom(), 8, femto::Subset::Odd);
  p.gaussian(14);
  x.gaussian(15);
  z.gaussian(16);
  for (auto _ : state) {
    femto::blas::axpy_zpbx(1e-6, p, x, z, 1e-6);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetBytesProcessed(state.iterations() * 5 * p.bytes());
}

void bm_half_axpy_roundtrip(benchmark::State& state) {
  femto::SpinorField<float> x(geom(), 8, femto::Subset::Odd),
      y(geom(), 8, femto::Subset::Odd);
  x.gaussian(17);
  y.gaussian(18);
  femto::HalfSpinorField h(geom(), 8, femto::Subset::Odd);
  for (auto _ : state) {
    h.axpy_roundtrip(1e-6, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          (3 * x.bytes() + h.bytes()));
}

// ---------------------------------------------------------------------------
// Fused vs unfused traffic study -> BENCH_blas.json
// ---------------------------------------------------------------------------

struct SequenceResult {
  std::string name;
  std::int64_t unfused_bytes = 0, fused_bytes = 0;
  double unfused_seconds = 0.0, fused_seconds = 0.0;

  double traffic_reduction_pct() const {
    return 100.0 * (1.0 - static_cast<double>(fused_bytes) /
                              static_cast<double>(unfused_bytes));
  }
  double wallclock_reduction_pct() const {
    return 100.0 * (1.0 - fused_seconds / unfused_seconds);
  }
  static double gbps(std::int64_t bytes, double seconds) {
    return seconds > 0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
  }
};

// Times one kernel sequence and reads its byte-counter charge.
SequenceResult run_sequence(const std::string& name,
                            const std::function<void()>& unfused,
                            const std::function<void()>& fused, int reps) {
  SequenceResult res;
  res.name = name;
  femto::flops::reset();
  unfused();
  res.unfused_bytes = femto::flops::bytes();
  femto::flops::reset();
  fused();
  res.fused_bytes = femto::flops::bytes();

  using clock = std::chrono::steady_clock;
  for (int warm = 0; warm < 2; ++warm) {
    unfused();
    fused();
  }
  auto t0 = clock::now();
  for (int i = 0; i < reps; ++i) unfused();
  res.unfused_seconds =
      std::chrono::duration<double>(clock::now() - t0).count() / reps;
  t0 = clock::now();
  for (int i = 0; i < reps; ++i) fused();
  res.fused_seconds =
      std::chrono::duration<double>(clock::now() - t0).count() / reps;
  return res;
}

std::vector<SequenceResult> traffic_study() {
  const auto g = geom();
  const int l5 = 8;
  const auto sub = femto::Subset::Odd;
  const int reps = 20;
  std::vector<SequenceResult> results;

  {
    // Plain CG iteration body beyond the matvec (double precision).
    femto::SpinorField<double> p(g, l5, sub), ap(g, l5, sub), x(g, l5, sub),
        r(g, l5, sub);
    p.gaussian(21);
    ap.gaussian(22);
    x.gaussian(23);
    r.gaussian(24);
    results.push_back(run_sequence(
        "cg_iteration_double",
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
        },
        reps));
  }

  {
    // mixed_cg single-precision inner iteration (tripleCGUpdate path).
    femto::SpinorField<float> p(g, l5, sub), ap(g, l5, sub), x(g, l5, sub),
        r(g, l5, sub);
    p.gaussian(31);
    ap.gaussian(32);
    x.gaussian(33);
    r.gaussian(34);
    results.push_back(run_sequence(
        "cg_iteration_single",
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
        },
        reps));
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
    results.push_back(run_sequence(
        "cg_iteration_half",
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
        },
        reps));
  }

  return results;
}

void write_json(const std::vector<SequenceResult>& results,
                const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return;
  const auto& d = *geom();
  std::fprintf(f, "{\n  \"volume\": [%d, %d, %d, %d],\n  \"l5\": 8,\n",
               d.extent(0), d.extent(1), d.extent(2), d.extent(3));
  std::fprintf(f, "  \"sequences\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\",\n"
                 "     \"unfused\": {\"bytes_per_iter\": %lld, "
                 "\"seconds_per_iter\": %.3e, \"gbps\": %.3f},\n"
                 "     \"fused\": {\"bytes_per_iter\": %lld, "
                 "\"seconds_per_iter\": %.3e, \"gbps\": %.3f},\n"
                 "     \"traffic_reduction_pct\": %.2f,\n"
                 "     \"wallclock_reduction_pct\": %.2f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.unfused_bytes),
                 r.unfused_seconds,
                 SequenceResult::gbps(r.unfused_bytes, r.unfused_seconds),
                 static_cast<long long>(r.fused_bytes), r.fused_seconds,
                 SequenceResult::gbps(r.fused_bytes, r.fused_seconds),
                 r.traffic_reduction_pct(), r.wallclock_reduction_pct(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

BENCHMARK(bm_axpy)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_norm2)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_cdot)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_axpy_norm2)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_triple_cg_update)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_axpy_zpbx)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_half_axpy_roundtrip)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto results = traffic_study();
  std::printf("\nfused vs unfused solver iteration sequences (%s):\n",
              "8x8x8x16, l5=8, odd subset");
  for (const auto& r : results) {
    std::printf(
        "  %-22s traffic %6.2f%% less (%lld -> %lld bytes), "
        "wall-clock %6.2f%% less (%.3e -> %.3e s), %.2f -> %.2f GB/s\n",
        r.name.c_str(), r.traffic_reduction_pct(),
        static_cast<long long>(r.unfused_bytes),
        static_cast<long long>(r.fused_bytes), r.wallclock_reduction_pct(),
        r.unfused_seconds, r.fused_seconds,
        SequenceResult::gbps(r.unfused_bytes, r.unfused_seconds),
        SequenceResult::gbps(r.fused_bytes, r.fused_seconds));
  }
  write_json(results, "BENCH_blas.json");
  std::printf("wrote BENCH_blas.json\n");
  return 0;
}
