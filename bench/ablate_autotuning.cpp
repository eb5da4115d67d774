// Ablation: kernel autotuning (S IV).  Runs the real dslash with the
// tuned launch grain versus fixed untuned grains and reports the spread —
// the gap the run-time autotuner closes automatically on every new
// volume/precision/machine.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "autotune/dslash_tunable.hpp"
#include "harness.hpp"
#include "lattice/gauge.hpp"

int main() {
  using namespace femto;
  auto geom = std::make_shared<Geometry>(8, 8, 8, 16);
  auto u = std::make_shared<GaugeField<double>>(geom);
  weak_gauge(*u, 1001, 0.2);
  const int l5 = 8;
  SpinorField<double> in(geom, l5, Subset::Odd), out(geom, l5, Subset::Even);
  in.gaussian(1002);

  std::printf("== Ablation: dslash launch-grain autotuning, 8^3x16 L5=8 "
              "==\n\n");

  auto& tuner = tune::Autotuner::global();
  tuner.clear();
  DslashTuning tuned;
  const double tune_cost = bench::min_seconds(
      {[&] { tuned = tune::tuned_dslash_grain<double>(u, l5, 0); }}, 1, 1,
      0)[0];
  const std::int64_t hits = tuner.cache_hits();
  tune::tuned_dslash_grain<double>(u, l5, 0);
  const bool cache_hit = tuner.cache_hits() == hits + 1;

  // calls[0] is the tuned grain, the rest are fixed.
  const std::vector<std::size_t> grains = {
      tuned.grain, 16, 256, 4096,
      static_cast<std::size_t>(geom->half_volume())};
  std::vector<std::function<void()>> calls;
  for (const std::size_t grain : grains) {
    DslashTuning t;
    t.grain = grain;
    calls.emplace_back([&, t] {
      dslash<double>(view(out), *u, cview(in), 0, false, t);
    });
  }
  const std::vector<double> seconds = bench::min_seconds(calls, 1, 5, 1);
  const std::int64_t flops = bench::charge(calls[0]).flops;

  std::printf("%12s %14s %12s\n", "grain", "time (ms)", "GFLOP/s");
  double worst = 0;
  for (std::size_t k = 1; k < grains.size(); ++k) {
    worst = std::max(worst, seconds[k]);
    std::printf("%12zu %14.4f %12.2f\n", grains[k], seconds[k] * 1e3,
                bench::giga_per_s(flops, seconds[k]));
  }
  std::printf("%12s %14.4f %12.2f   <- autotuned (grain %zu)\n", "tuned",
              seconds[0] * 1e3, bench::giga_per_s(flops, seconds[0]),
              tuned.grain);

  std::printf("\none-time tuning cost: %.1f ms; worst fixed grain is "
              "%.2fx slower than the tuned kernel\n",
              tune_cost * 1e3, worst / seconds[0]);
  std::printf("second lookup is a cache hit: %s\n", cache_hit ? "yes" : "NO");
  // The tuned grain searched the same space, so it must be no slower than
  // the worst fixed grain, allowing 5% for timing noise.
  return cache_hit && seconds[0] <= worst * 1.05 ? 0 : 1;
}
