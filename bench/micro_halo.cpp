// Microbenchmark: halo exchange over the ranks-as-threads communicator,
// across policies and granularities (the functional layer underneath the
// communication-policy autotuner).  One sample is a whole 4-rank run: rank
// start-up, field set-up and one exchange.  Bytes and messages are the
// exchanger's own HaloStats, summed over ranks.  Stdout only.

#include <cstdio>
#include <functional>
#include <mutex>
#include <vector>

#include "comm/halo.hpp"
#include "harness.hpp"

namespace {

using femto::comm::CommPolicy;
using femto::comm::Granularity;

constexpr int kInner = 4;  // exchanges per timed sample
constexpr int kReps = 10;  // timed samples; min is reported
constexpr int kWarm = 1;

struct Config {
  CommPolicy policy;
  Granularity gran;
};

femto::comm::HaloStats exchange(const femto::comm::ProcessGrid& grid,
                                const Config& c) {
  std::mutex mu;
  femto::comm::HaloStats total;
  femto::comm::run_ranks(grid.size(), [&](femto::comm::RankHandle& h) {
    femto::comm::HaloField f({8, 8, 8, 8}, 24);
    femto::comm::HaloExchanger ex(grid, c.policy, c.gran);
    femto::comm::HaloStats stats;
    ex.exchange(h, f, &stats);
    const std::lock_guard<std::mutex> lock(mu);
    total += stats;
  });
  return total;
}

}  // namespace

int main() {
  const femto::comm::ProcessGrid grid({2, 1, 1, 2});
  const std::vector<Config> configs = {
      {CommPolicy::HostStaged, Granularity::Fused},
      {CommPolicy::ZeroCopy, Granularity::Fused},
      {CommPolicy::ZeroCopy, Granularity::PerDimension},
      {CommPolicy::DirectRdma, Granularity::Fused}};

  std::vector<std::function<void()>> calls;
  for (const Config& c : configs)
    calls.emplace_back([&grid, c] { exchange(grid, c); });
  const std::vector<double> seconds =
      femto::bench::min_seconds(calls, kInner, kReps, kWarm);

  std::printf("halo exchange, 4 ranks (2x1x1x2), 8^4 local sites, "
              "24 reals/site\n");
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const femto::comm::HaloStats stats = exchange(grid, configs[k]);
    std::printf("  %-12s %-14s %9.1f us  %7.3f GB/s  %4lld messages\n",
                femto::comm::to_string(configs[k].policy),
                femto::comm::to_string(configs[k].gran), seconds[k] * 1e6,
                femto::bench::giga_per_s(stats.bytes_sent, seconds[k]),
                static_cast<long long>(stats.messages));
  }
  return 0;
}
