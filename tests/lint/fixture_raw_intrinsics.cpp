// femtolint-expect: raw-intrinsics
//
// A kernel reaching for vendor intrinsics directly.  The whole point of
// femtosimd is that one portable Vec<T, W> source compiles to SSE / AVX /
// NEON; the moment _mm256_* appears in a lattice kernel, the scalar
// fallback build stops compiling and every new target means auditing the
// whole tree instead of adding one backend under src/simd/.  The rule
// flags both the header include and the intrinsic identifiers.

#include <immintrin.h>

namespace femto::blas {

inline double norm2_avx(const double* x, long n) {
  __m256d acc = _mm256_setzero_pd();
  for (long i = 0; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

}  // namespace femto::blas
