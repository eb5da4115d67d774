// femtolint-expect: nondet-in-kernel
//
// std::rand / srand are global-state RNG: results depend on call order
// across threads, so a kernel using them loses per-site reproducibility.
// The repo's Xoshiro256 is counter-seeded per (seed, site, stream)
// instead.  Like any other nondeterminism source, a libc RNG call is a
// finding once it shares a call chain with a kernel launch.

#include <cstddef>
#include <cstdlib>
#include <vector>

namespace femto {

void jitter(std::vector<double>& y) {
  srand(12345);
  const double eps = static_cast<double>(std::rand()) / RAND_MAX;
  par::parallel_for(0, y.size(), [&](std::size_t i) { y[i] += eps; });
  flops::add_bytes(16 * static_cast<long long>(y.size()));
}

}  // namespace femto
