// femtolint-expect: race-shared-accum
//
// The combine of contract() (src/core/contractions.cpp) before it moved to
// parallel_reduce_n: each chunk sums its sites into a body-local `local`,
// then adds it into the captured `corr` under a mutex.  The lock removes
// the data race but not the nondeterminism: chunks combine in lock-acquire
// order, and one 4^3x8 nucleon C2 gave four different digests at 1, 2, 3
// and 7 threads.  The combine loop's `t` runs over time slices, not over
// the chunk's sites, so every chunk writes every element of `corr`; the
// site loop's `t`, arithmetic on the chunk's sites, is out of force there.
//
// Fixtures are lint inputs, not build inputs -- they only have to parse as
// text, so the femto types are sketched minimally.

#include <cstddef>
#include <mutex>
#include <vector>

namespace femto {

std::vector<cdouble> contract(const Propagator& u, const Geometry& geom,
                              int t_src) {
  const int nt = geom.extent(3);
  const std::size_t vol3 = geom.volume() / nt;  // sites are t-slowest
  std::vector<cdouble> corr(static_cast<std::size_t>(nt), cdouble{});
  std::mutex mu;

  par::parallel_for_chunked(
      0, static_cast<std::size_t>(geom.volume()),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<cdouble> local(static_cast<std::size_t>(nt), cdouble{});
        for (std::size_t ss = lo; ss < hi; ++ss) {
          const auto site = static_cast<std::int64_t>(ss);
          const int t = (static_cast<int>(ss / vol3) - t_src + nt) % nt;
          local[static_cast<std::size_t>(t)] += u.site_term(site);  // fine
        }
        std::lock_guard<std::mutex> lk(mu);
        for (int t = 0; t < nt; ++t)
          corr[static_cast<std::size_t>(t)] +=  // the finding
              local[static_cast<std::size_t>(t)];
      },
      64);

  flops::add_bytes(geom.volume() * kPropSiteBytes);
  return corr;
}

}  // namespace femto
