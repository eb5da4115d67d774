// femtolint-expect: race-shared-accum
//
// Accumulating straight into a timeslice sum from the site loop.  The
// index `t` is looked up (the site's time coordinate), and many sites, so
// many chunks, share a timeslice: chunks race on `corr[t]`.  An index is
// the chunk's own only when the body computes it arithmetically from the
// chunk's bounds.  Fixtures are lint inputs, not build inputs.

#include <cstddef>
#include <vector>

namespace femto {

std::vector<double> timeslice_sums(const Geometry& geom,
                                   const std::vector<double>& field) {
  std::vector<double> corr(static_cast<std::size_t>(geom.extent(3)), 0.0);
  par::parallel_for(0, field.size(), [&](std::size_t s) {
    const auto t = static_cast<std::size_t>(geom.coord(s)[3]);
    corr[t] += field[s];  // the finding
  });
  flops::add_bytes(8 * static_cast<long long>(field.size()));
  return corr;
}

}  // namespace femto
