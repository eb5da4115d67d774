// femtolint-expect: race-shared-accum
//
// Accumulation into a scalar captured by reference inside a parallel_for
// body.  This is a data race; even made atomic it would combine in thread
// arrival order and break bitwise reproducibility.  Reductions must go
// through parallel_reduce_n, which combines chunk results in a fixed
// order.

#include <cstddef>
#include <vector>

namespace femto {

double dot_racy(const std::vector<double>& x, const std::vector<double>& y) {
  double sum = 0.0;
  par::parallel_for(0, x.size(), [&](std::size_t i) {
    sum += x[i] * y[i];
  });
  flops::add(2 * static_cast<long long>(x.size()));
  flops::add_bytes(16 * static_cast<long long>(x.size()));
  return sum;
}

}  // namespace femto
