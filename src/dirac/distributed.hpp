#pragma once
// A distributed Wilson dslash over the femtocomm halo machinery: the
// paper's four-step stencil prescription executed for real across ranks —
//
//   1) pack the halo into contiguous buffers
//   2) communicate halos to neighbours
//   3) compute the interior stencil
//   4) complete the halo stencil once faces arrive
//
// Each rank owns a lexicographic local block of the global lattice (its
// spinor and gauge fields) with one ghost layer per face.  The spinor
// halo is exchanged per application; the gauge halo (backward hops read
// U_mu(x - mu), which lives on the -mu neighbour for boundary sites) is
// exchanged once at setup.  Any process grid and any communication
// policy must reproduce the single-rank kernel bit-for-bit up to
// summation order — the decomposition-independence test of the whole
// comm stack.

#include <array>

#include "comm/halo.hpp"
#include "lattice/compressed_gauge.hpp"
#include "lattice/field.hpp"
#include "lattice/spinor.hpp"

namespace femto {

/// Geometry of one rank's share of a distributed lattice.
struct DistributedLattice {
  std::array<int, 4> global{8, 8, 8, 8};
  comm::ProcessGrid grid{{1, 1, 1, 1}};

  std::array<int, 4> local_extents() const {
    std::array<int, 4> l{};
    for (int mu = 0; mu < 4; ++mu)
      l[static_cast<std::size_t>(mu)] = comm::ProcessGrid::local_extent(
          global[static_cast<std::size_t>(mu)], grid.dim(mu));
    return l;
  }

  /// Global coordinate of this rank's origin.
  std::array<int, 4> origin(int rank) const {
    const auto pc = grid.coords_of(rank);
    const auto l = local_extents();
    return {pc[0] * l[0], pc[1] * l[1], pc[2] * l[2], pc[3] * l[3]};
  }
};

/// Reals per site in the distributed containers.
inline constexpr int kDistSpinorReals = kSpinorReals;        // 24
inline constexpr int kDistGaugeReals = 4 * kLinkReals;       // 72

/// Extract this rank's local spinor block (with ghost buffers allocated)
/// from a full-lattice field.
comm::HaloField scatter_spinor(const DistributedLattice& dl, int rank,
                               const SpinorField<double>& full);

/// Extract this rank's local gauge block (all four directions per site).
comm::HaloField scatter_gauge(const DistributedLattice& dl, int rank,
                              const GaugeField<double>& full);

/// Write a rank's local block of @p local back into the full field.
void gather_spinor(const DistributedLattice& dl, int rank,
                   const comm::HaloField& local, SpinorField<double>& full);

/// Doubles per site on the wire for the gauge-halo exchange in format
/// @p f: full18 72, recon12 48.
std::int64_t gauge_wire_reals(GaugeFormat f);

/// Exchange the one-time gauge halo in storage tier @p fmt.  full18
/// delegates to the plain exchange (bitwise-identical to the pre-tier
/// path); recon12 encodes each site's four links with the per-link codec
/// from lattice/compressed_gauge.hpp into a reduced-width wire field,
/// exchanges THAT (so @p stats accounts the compressed payload — wire
/// bytes drop 33%), and decodes the received faces back into @p gauge's
/// full-precision ghost buffers.  Interior links are untouched.
/// Collective, like the exchange it wraps.
void exchange_gauge_halo(comm::RankHandle& h, const DistributedLattice& dl,
                         comm::HaloExchanger& ex, comm::HaloField& gauge,
                         GaugeFormat fmt = GaugeFormat::kFull18,
                         comm::HaloStats* stats = nullptr);

/// Apply the Wilson dslash on this rank's block.  Collective: every rank
/// must call it with the same exchanger; the spinor halo exchange happens
/// inside, the gauge halo must have been exchanged beforehand (once).
///
/// Uses the same conventions as the single-rank kernel (antiperiodic time
/// boundary applied at the GLOBAL boundary, dagger flag flips the
/// projectors).
void distributed_dslash(comm::RankHandle& h, const DistributedLattice& dl,
                        comm::HaloExchanger& ex, comm::HaloField& psi,
                        const comm::HaloField& gauge,
                        comm::HaloField& out, bool dagger = false,
                        comm::HaloStats* stats = nullptr);

/// The same operator with the paper's 4-step overlap structure executed
/// literally: (1) pack + post halos, (2) [communication in flight],
/// (3) compute the INTERIOR stencil, (4) receive ghosts and complete the
/// halo sites.  Bit-identical to distributed_dslash (tests enforce it);
/// the split is what lets the communication hide behind the interior
/// kernel on a real machine.
void distributed_dslash_overlapped(comm::RankHandle& h,
                                   const DistributedLattice& dl,
                                   comm::HaloExchanger& ex,
                                   comm::HaloField& psi,
                                   const comm::HaloField& gauge,
                                   comm::HaloField& out,
                                   bool dagger = false,
                                   comm::HaloStats* stats = nullptr);

}  // namespace femto
