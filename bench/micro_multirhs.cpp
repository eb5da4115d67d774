// Microbenchmark: batched multi-RHS dslash (DESIGN.md §12) — for each
// batch size B, the best dslash_multi configuration (kernel variant x
// grain) against B independent dslash() calls (the B = 1 row: dslash() is
// the batch of one), reporting seconds per RHS, GFLOP/s, GB/s, the
// charged bytes/site amortisation curve, and the speedup vs the best B=1
// path.
//
// The headline study is float at l5 = 1 (4D Wilson shape): there a single
// RHS fills one lane of the l = s*B + r lane axis, so the B = 1 kernel is
// scalar arithmetic (plus gather overhead on the vector variants) while
// the batched kernel fills all W lanes with right-hand sides, links
// broadcast once per site — the clean win batching buys on top of link
// amortisation.  l5 = 8 rows for both precisions complete the curve in
// the regime where B = 1 already fills the lanes with fifth-dim slices.
//
// The batching claim: the headline study reaches >= kBatchingGate x the
// B = 1 path at some B >= 4.  A scalar build passes it: without lanes,
// batching only amortises link loads, which a compute-bound machine does
// not reward with 1.3x.  Results land in BENCH_multirhs.json, gated by
// benchdiff.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dirac/wilson.hpp"
#include "harness.hpp"
#include "lattice/gauge.hpp"
#include "simd/vec.hpp"

namespace {

constexpr int kReps = 8;  // timed samples; min is reported
constexpr int kWarm = 2;  // untimed calls: fault pages, spin up the pool
constexpr double kBatchingGate = 1.3;

// Runs one study, reports its rows, and returns its best speedup at B >= 4.
template <typename T>
double run_study(const std::shared_ptr<const femto::Geometry>& geom, int l5,
                 const std::vector<std::size_t>& batches,
                 femto::bench::Report& rep) {
  femto::GaugeField<double> ud(geom);
  femto::weak_gauge(ud, 1, 0.2);
  const auto u = ud.convert<T>();

  const std::size_t bmax =
      *std::max_element(batches.begin(), batches.end());
  std::vector<femto::SpinorField<T>> in, out;
  for (std::size_t r = 0; r < bmax; ++r) {
    in.emplace_back(geom, l5, femto::Subset::Odd);
    out.emplace_back(geom, l5, femto::Subset::Even);
    in.back().gaussian(2 + static_cast<std::uint64_t>(r));
  }

  std::vector<femto::DslashVariant> variants = {
      femto::DslashVariant::kScalar};
  if constexpr (femto::simd::kWidth<T> > 1) {
    variants.push_back(femto::DslashVariant::kVector);
    variants.push_back(femto::DslashVariant::kVectorBlocked);
  }
  const std::int64_t volh = geom->half_volume();
  const std::vector<std::size_t> grains = {
      256, static_cast<std::size_t>(volh)};

  const std::string prec = sizeof(T) == 4 ? "float" : "double";
  std::printf("dslash_multi %s l5=%d (best variant/grain per B):\n",
              prec.c_str(), l5);
  double best_b1_per_rhs = 0.0;
  double best_speedup_b4 = 0.0;
  for (const std::size_t b : batches) {
    double best_per_rhs = 1e300;
    femto::DslashTuning best_tune;
    femto::bench::Charge best_charge;
    for (const auto v : variants) {
      for (const std::size_t grain : grains) {
        femto::DslashTuning tune;
        tune.variant = v;
        tune.grain = grain;
        const auto call = [&] {
          std::vector<femto::SpinorView<T>> outs;
          std::vector<femto::SpinorView<const T>> ins;
          for (std::size_t r = 0; r < b; ++r) {
            outs.push_back(femto::view(out[r]));
            ins.push_back(femto::cview(in[r]));
          }
          femto::dslash_multi<T>(outs, u, ins, 0, false, tune);
        };
        const double sec =
            femto::bench::min_seconds({call}, 1, kReps, kWarm)[0] /
            static_cast<double>(b);
        if (sec < best_per_rhs) {
          best_per_rhs = sec;
          best_tune = tune;
          best_charge = femto::bench::charge(call);
        }
      }
    }
    if (b == 1) best_b1_per_rhs = best_per_rhs;
    const double batch_seconds = best_per_rhs * static_cast<double>(b);
    const double gflops =
        femto::bench::giga_per_s(best_charge.flops, batch_seconds);
    const double gbps =
        femto::bench::giga_per_s(best_charge.bytes, batch_seconds);
    const double bytes_per_site =
        static_cast<double>(best_charge.bytes) /
        static_cast<double>(volh * l5 * static_cast<std::int64_t>(b));
    const double speedup = best_b1_per_rhs / best_per_rhs;
    if (b >= 4) best_speedup_b4 = std::max(best_speedup_b4, speedup);

    const std::string key =
        prec + ".l5_" + std::to_string(l5) + ".b" + std::to_string(b);
    rep.set(key + ".seconds_per_rhs", best_per_rhs);
    rep.set(key + ".gflops", gflops);
    rep.set(key + ".gbps", gbps);
    rep.set(key + ".bytes_per_site", bytes_per_site);
    rep.set(key + ".grain", static_cast<double>(best_tune.grain));
    rep.set(key + ".speedup", speedup);
    std::printf(
        "  B=%-3zu %-15s grain=%-6zu %9.3e s/RHS  %7.2f GFLOP/s  "
        "%7.2f GB/s  %7.1f B/site  x%.2f\n",
        b, femto::to_string(best_tune.variant), best_tune.grain,
        best_per_rhs, gflops, gbps, bytes_per_site, speedup);
  }
  return best_speedup_b4;
}

}  // namespace

int main() {
  const auto geom = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  const std::vector<std::size_t> batches = {1, 2, 4, 8, 16};

  std::printf("micro_multirhs: %dx%dx%dx%d, isa %s (float x%d)\n\n",
              geom->extent(0), geom->extent(1), geom->extent(2),
              geom->extent(3), femto::simd::kIsaName,
              femto::simd::kWidth<float>);

  femto::bench::Report rep;
  rep.set("width_float", femto::simd::kWidth<float>);
  // Headline: 4D shape where batching fills the lanes.
  const double headline = run_study<float>(geom, 1, batches, rep);
  // Amortisation curve where B = 1 already fills the lanes.
  run_study<float>(geom, 8, batches, rep);
  run_study<double>(geom, 8, batches, rep);

  const bool ok =
      femto::simd::kWidth<float> == 1 || headline >= kBatchingGate;
  rep.set("batching_gate_ok", ok);
  std::printf("\nfloat l5=1 best speedup at B >= 4: x%.2f (gate x%.2f) -> "
              "%s\n",
              headline, kBatchingGate, ok ? "OK" : "FAIL");
  return rep.write("BENCH_multirhs.json") ? 0 : 1;
}
