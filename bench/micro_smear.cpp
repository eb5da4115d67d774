// Microbenchmark: APE link smearing and Wuppertal source smearing — the
// gauge/source conditioning steps of production nucleon measurements —
// plus the Wilson-loop and action-density observables.  Stdout only.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "lattice/gauge.hpp"
#include "lattice/observables.hpp"
#include "lattice/smear.hpp"

namespace {

constexpr int kReps = 5;  // timed samples of one call; min is reported
constexpr int kWarm = 1;

}  // namespace

int main() {
  const auto geom = std::make_shared<femto::Geometry>(8, 8, 8, 8);
  femto::GaugeField<double> ape(geom), wup(geom), loop(geom), act(geom);
  femto::weak_gauge(ape, 1, 0.25);
  femto::weak_gauge(wup, 2, 0.25);
  femto::weak_gauge(loop, 4, 0.25);
  femto::weak_gauge(act, 5, 0.25);
  femto::SpinorField<double> psi(geom, 1, femto::Subset::Full);
  psi.gaussian(3);
  double sink = 0.0;

  const char* const names[] = {"ape_step", "wuppertal", "wilson_loop_2x2",
                               "action_density"};
  const std::vector<std::function<void()>> calls = {
      [&] { femto::ape_smear_step(ape, 0.5); },
      [&] { femto::wuppertal_smear(psi, wup, {0.25, 1}); },
      [&] { sink += femto::wilson_loop(loop, 2, 2); },
      [&] { sink += femto::action_density(act); }};
  const std::vector<double> seconds =
      femto::bench::min_seconds(calls, 1, kReps, kWarm);

  std::printf("smearing and gauge observables, 8^4\n");
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const auto c = femto::bench::charge(calls[k]);
    std::printf("  %-16s %9.3f ms  %7.2f GFLOP/s  %7.2f GB/s\n", names[k],
                seconds[k] * 1e3, femto::bench::giga_per_s(c.flops, seconds[k]),
                femto::bench::giga_per_s(c.bytes, seconds[k]));
  }
  if (sink == 0.123456789) std::printf("sink %f\n", sink);
  return 0;
}
