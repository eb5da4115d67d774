// femtolint-expect: clean
//
// Well-behaved kernels: they charge flops and bytes, reduce through
// parallel_reduce, and accumulate only into body-local storage or into
// captured storage that the chunk's own loop indexes.

#include <cstddef>
#include <vector>

namespace femto {

double norm2_clean(const std::vector<double>& x) {
  const double sum = par::parallel_reduce(
      0, x.size(), [&](std::size_t lo, std::size_t hi) {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += x[i] * x[i];
        return acc;
      });
  flops::add(2 * static_cast<long long>(x.size()));
  flops::add_bytes(8 * static_cast<long long>(x.size()));
  return sum;
}

void axpy_clean(std::vector<double>& y, const std::vector<double>& x,
                double a) {
  par::parallel_for(0, y.size(), [&](std::size_t i) {
    y[i] += a * x[i];
  });
  flops::add(2 * static_cast<long long>(y.size()));
  flops::add_bytes(24 * static_cast<long long>(y.size()));
}

// The shape of blas::scal: the induction variable starts at the chunk's
// lower bound, so each chunk scales its own elements.
void scal_clean(std::vector<double>& x, double a) {
  double* xd = x.data();
  par::parallel_for_chunked(
      0, x.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::size_t k = lo;
        for (; k < hi; ++k) xd[k] *= a;
      },
      64);
  flops::add_bytes(16 * static_cast<long long>(x.size()));
}

}  // namespace femto
