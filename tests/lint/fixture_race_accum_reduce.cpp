// femtolint-expect: race-shared-accum
//
// Compound FP accumulation into a CAPTURED scalar inside a
// parallel_reduce_n chunk body.  The reduction exists precisely so
// partials combine in a fixed chunk order; a captured accumulator updated
// from every worker bypasses that order (and races), so the sum's bits
// depend on scheduling.  Partials must flow through the per-chunk
// accumulator slot, or a body-local.

#include <cstddef>
#include <vector>

namespace femto {

double norm_plus_trace(const std::vector<double>& x) {
  double trace = 0.0;  // captured by the chunk body below
  double sum = 0.0;
  par::parallel_reduce_n(
      0, x.size(), 1,
      [&](std::size_t lo, std::size_t hi, double* partial) {
        double acc = 0.0;  // body-local: fine
        for (std::size_t i = lo; i < hi; ++i) {
          acc += x[i] * x[i];
          trace += x[i];  // scheduling-ordered: the finding
        }
        partial[0] = acc;
      },
      &sum);
  flops::add_bytes(8 * static_cast<long long>(x.size()));
  return sum + trace;
}

}  // namespace femto
