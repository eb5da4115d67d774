#include "dirac/fifth_dim.hpp"

#include "obs/trace.hpp"

namespace femto {

SMat lambda_plus(int l5, double mf) {
  SMat m(l5);
  for (int s = 1; s < l5; ++s) m(s, s - 1) = 1.0;
  m(0, l5 - 1) = -mf;
  return m;
}

SMat lambda_minus(int l5, double mf) {
  SMat m(l5);
  for (int s = 0; s < l5 - 1; ++s) m(s, s + 1) = 1.0;
  m(l5 - 1, 0) = -mf;
  return m;
}

template <typename T>
void FifthDimOp::apply(const SpinorView<T>& out,
                       const SpinorView<const T>& in) const {
  apply_multi<T>({&out, 1}, {&in, 1});
}

template <typename T>
void FifthDimOp::apply_multi(std::span<const SpinorView<T>> out,
                             std::span<const SpinorView<const T>> in) const {
  FEMTO_TRACE_SCOPE("dirac", "fifth_dim_op");
  const std::size_t nb = out.size();
  if (nb == 0) return;
  const int n = l5();
  assert(n <= kMaxL5);
  FEMTO_ASSERT(in.size() == nb);
  for (std::size_t r = 0; r < nb; ++r) {
    FEMTO_ASSERT(out[r].l5 == n && in[r].l5 == n);
    FEMTO_ASSERT(out[r].sites == out[0].sites && in[r].sites == out[0].sites);
  }
  const std::int64_t sites = out[0].sites;

  par::parallel_for_chunked(
      0, static_cast<std::size_t>(sites),
      [&](std::size_t lo, std::size_t hi) {
        Spinor<T> buf[kMaxL5];
        for (std::size_t r = 0; r < nb; ++r) {
          const SpinorView<T>& o = out[r];
          const SpinorView<const T>& v = in[r];
          for (std::size_t i = lo; i < hi; ++i) {
            const auto site = static_cast<std::int64_t>(i);
            for (int s = 0; s < n; ++s) buf[s] = v.load(s, site);
            for (int s = 0; s < n; ++s) {
              Spinor<T> acc;
              const double* rp = plus.row(s);
              const double* rm = minus.row(s);
              for (int sp = 0; sp < n; ++sp) {
                const T cp = static_cast<T>(rp[sp]);
                const T cm = static_cast<T>(rm[sp]);
                if (cp != T(0)) {
                  for (int c = 0; c < kNc; ++c) {
                    acc[0][c] += cp * buf[sp][0][c];
                    acc[1][c] += cp * buf[sp][1][c];
                  }
                }
                if (cm != T(0)) {
                  for (int c = 0; c < kNc; ++c) {
                    acc[2][c] += cm * buf[sp][2][c];
                    acc[3][c] += cm * buf[sp][3][c];
                  }
                }
              }
              o.store(s, site, acc);
            }
          }
        }
      },
      site_grain(n, nb));

  const auto nrhs = static_cast<std::int64_t>(nb);
  flops::add(nrhs * flops::fifth_dim_per_site(n) * sites);
  // Compulsory traffic: the hopping matrices are L5 x L5 constants held in
  // cache; the field traffic is one read of in and one write of out per
  // RHS.
  flops::add_bytes(nrhs * 2 * sites * n * kSpinorReals *
                   static_cast<std::int64_t>(sizeof(T)));
}

#define FEMTO_INSTANTIATE_FIFTH_DIM(T)                                     \
  template void FifthDimOp::apply<T>(const SpinorView<T>&,                 \
                                     const SpinorView<const T>&) const;    \
  template void FifthDimOp::apply_multi<T>(                                \
      std::span<const SpinorView<T>>,                                      \
      std::span<const SpinorView<const T>>) const;
FEMTO_INSTANTIATE_FIFTH_DIM(double)
FEMTO_INSTANTIATE_FIFTH_DIM(float)
#undef FEMTO_INSTANTIATE_FIFTH_DIM

}  // namespace femto
