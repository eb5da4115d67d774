// Microbenchmark: batched multi-RHS dslash (DESIGN.md §12) — for each
// batch size B, the best dslash_multi configuration (kernel variant x
// grain) against B independent dslash() calls (the B = 1 row: dslash() is
// the batch of one), reporting seconds per RHS, GFLOP/s, effective GB/s
// from the charged traffic model, the charged bytes/site amortisation
// curve, and the speedup vs the best B=1 path.
//
// The headline study is float at l5 = 1 (4D Wilson shape): there a single
// RHS fills one lane of the l = s*B + r lane axis, so the B = 1 kernel is
// scalar arithmetic (plus gather overhead on the vector variants) while
// the batched kernel fills all W lanes with right-hand sides, links
// broadcast once per site — the clean win batching buys on top of link
// amortisation.  l5 = 8 rows for both precisions complete the curve in
// the regime where B = 1 already fills the lanes with fifth-dim slices.
//
// Results land in BENCH_multirhs.json (repo root) so
// scripts/bench_multirhs.sh can gate the >= 1.3x at B >= 4 claim and
// successive PRs can track the trajectory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dirac/wilson.hpp"
#include "lattice/flops.hpp"
#include "lattice/gauge.hpp"
#include "simd/vec.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

constexpr int kReps = 8;  // timed samples; min is reported

double time_best(const std::function<void()>& fn) {
  fn();
  fn();  // warm: faults pages, spins up the pool
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = clock_type::now();
    fn();
    const double s =
        std::chrono::duration<double>(clock_type::now() - t0).count();
    best = std::min(best, s);
  }
  return best;
}

std::int64_t charged_bytes(const std::function<void()>& fn) {
  femto::flops::reset();
  fn();
  return femto::flops::bytes();
}

struct BatchRow {
  std::size_t b = 1;
  std::string variant;
  std::size_t grain = 0;
  double seconds_per_rhs = 0.0;
  double gflops = 0.0;
  double gbps = 0.0;
  double bytes_per_site = 0.0;  ///< charged traffic / (volh * l5 * B)
  double speedup = 1.0;         ///< vs the best B = 1 configuration
};

struct Study {
  std::string precision;
  int l5 = 1;
  std::vector<BatchRow> rows;
};

template <typename T>
Study run_study(const std::shared_ptr<const femto::Geometry>& geom, int l5,
                const std::vector<std::size_t>& batches) {
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

  Study study;
  study.precision = sizeof(T) == 4 ? "float" : "double";
  study.l5 = l5;

  double best_b1_per_rhs = 0.0;
  for (const std::size_t b : batches) {
    BatchRow best;
    best.seconds_per_rhs = 1e300;
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
        const double sec = time_best(call) / static_cast<double>(b);
        if (sec < best.seconds_per_rhs) {
          best.seconds_per_rhs = sec;
          best.variant = femto::to_string(v);
          best.grain = grain;
          const double bytes = static_cast<double>(charged_bytes(call));
          best.gbps = bytes / (sec * static_cast<double>(b)) / 1e9;
          best.bytes_per_site =
              bytes / static_cast<double>(volh * l5 *
                                          static_cast<std::int64_t>(b));
        }
      }
    }
    best.b = b;
    best.gflops =
        1320.0 * static_cast<double>(volh) * l5 / best.seconds_per_rhs / 1e9;
    if (b == 1) best_b1_per_rhs = best.seconds_per_rhs;
    best.speedup = best_b1_per_rhs > 0.0
                       ? best_b1_per_rhs / best.seconds_per_rhs
                       : 1.0;
    study.rows.push_back(best);
  }
  return study;
}

void print_study(const Study& s) {
  std::printf("dslash_multi %s l5=%d (best variant/grain per B):\n",
              s.precision.c_str(), s.l5);
  for (const auto& r : s.rows)
    std::printf(
        "  B=%-3zu %-15s grain=%-6zu %9.3e s/RHS  %7.2f GFLOP/s  "
        "%7.2f GB/s  %7.1f B/site  x%.2f\n",
        r.b, r.variant.c_str(), r.grain, r.seconds_per_rhs, r.gflops,
        r.gbps, r.bytes_per_site, r.speedup);
}

void write_json(const femto::Geometry& d,
                const std::vector<Study>& studies) {
  std::FILE* f = std::fopen("BENCH_multirhs.json", "w");
  if (!f) return;
  std::fprintf(f,
               "{\n  \"isa\": \"%s\",\n  \"width_float\": %d,\n"
               "  \"width_double\": %d,\n"
               "  \"volume\": [%d, %d, %d, %d],\n",
               femto::simd::kIsaName, femto::simd::kWidth<float>,
               femto::simd::kWidth<double>, d.extent(0), d.extent(1),
               d.extent(2), d.extent(3));
  std::fprintf(f, "  \"studies\": [\n");
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const auto& s = studies[i];
    std::fprintf(f,
                 "    {\"precision\": \"%s\", \"l5\": %d, \"rows\": [\n",
                 s.precision.c_str(), s.l5);
    for (std::size_t j = 0; j < s.rows.size(); ++j) {
      const auto& r = s.rows[j];
      std::fprintf(
          f,
          "      {\"b\": %zu, \"variant\": \"%s\", \"grain\": %zu, "
          "\"seconds_per_rhs\": %.3e, \"gflops\": %.3f, \"gbps\": %.3f, "
          "\"bytes_per_site\": %.1f, \"speedup\": %.3f}%s\n",
          r.b, r.variant.c_str(), r.grain, r.seconds_per_rhs, r.gflops,
          r.gbps, r.bytes_per_site, r.speedup,
          j + 1 < s.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < studies.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  const auto geom = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  const std::vector<std::size_t> batches = {1, 2, 4, 8, 16};

  std::printf("micro_multirhs: %dx%dx%dx%d, isa %s (float x%d)\n\n",
              geom->extent(0), geom->extent(1), geom->extent(2),
              geom->extent(3), femto::simd::kIsaName,
              femto::simd::kWidth<float>);

  std::vector<Study> studies;
  // Headline: 4D shape where batching fills the lanes.
  studies.push_back(run_study<float>(geom, 1, batches));
  // Amortisation curve where B = 1 already fills the lanes.
  studies.push_back(run_study<float>(geom, 8, batches));
  studies.push_back(run_study<double>(geom, 8, batches));
  for (const auto& s : studies) print_study(s);

  write_json(*geom, studies);
  std::printf("\nwrote BENCH_multirhs.json\n");
  return 0;
}
