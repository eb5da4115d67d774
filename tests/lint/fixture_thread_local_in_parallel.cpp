// femtolint-expect: thread-local-in-parallel
//
// Function-scope thread_local scratch named inside a parallel body, in the
// shape of the lane-blocked dslash: the caller sizes and packs its scratch
// pair, then the chunk body reads one and writes the other.  A lambda
// never captures a thread_local, so inside the body the names resolve to
// the instances of whichever thread runs the chunk: every pool worker but
// the caller reads unsized (or stale) scratch.  The result is right at
// FEMTO_THREADS=1 and wrong at 2.  The fix binds references to the
// caller's pair before the launch and names those in the body.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace femto {

template <typename T>
struct BlockedScratch {
  explicit BlockedScratch(std::size_t n) : v(n) {}
  void reshape(std::size_t n) { v.assign(n, T(0)); }
  std::vector<T> v;
};

template <typename T>
void stencil_blocked(std::vector<T>& out, const std::vector<T>& in,
                     std::size_t grain) {
  thread_local BlockedScratch<T> bin(0), bout(0);
  bin.reshape(in.size());
  bout.reshape(out.size());
  for (std::size_t i = 0; i < in.size(); ++i) bin.v[i] = in[i];

  par::parallel_for_chunked(
      0, out.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) bout.v[i] = 2 * bin.v[i];
      },
      grain);

  for (std::size_t i = 0; i < out.size(); ++i) out[i] = bout.v[i];
  flops::add_bytes(static_cast<std::int64_t>(4 * sizeof(T) * out.size()));
}

}  // namespace femto
