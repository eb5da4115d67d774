#pragma once
// Baryon tensor contractions — the CPU-only workflow stage (~3% of
// application time) that mpi_jm co-schedules onto nodes whose GPUs are
// busy with solves.
//
// Nucleon interpolator N = eps_abc (u_a^T C g5 d_b) u_c.  The two-point
// function with sink projector P is the standard two-term epsilon
// contraction
//
//   C2(t) = sum_x eps_abc eps_a'b'c' [  Tr(P U^{cc'}) Tr(D~^{bb'} U^{aa'})
//                                     + Tr(P U^{aa'} D~^{bb'} U^{cc'}) ]
//
// with D~ = (C g5) D (C g5) and spin traces; U, D the up/down quark
// propagators.  For the Feynman-Hellmann three-point data one U is
// replaced by the FH propagator (axial current summed over all insertion
// times).  The kernel evaluates it per site through nine diquark blocks
// E^{cc'} = sum eps eps' D~^{bb'} (U^{aa'})^T (DESIGN.md §17).
//
// SIMD: the kernel runs W sites per step, one per lane of
// Cplx<simd::Lanes<double, W>> blocks, and the last (hi - lo) mod W sites
// of each reduce chunk at W = 1.  Every lane does the one-site arithmetic
// (per-lane IEEE operations, no FMA contraction) and the lanes add into
// the timeslice sums in site order, so the correlators are bitwise the
// same at every width and thread count.

#include <array>
#include <cstdint>
#include <vector>

#include "core/propagator.hpp"
#include "core/spin_matrix.hpp"
#include "simd/vec.hpp"

namespace femto::core {

/// Per-timeslice complex correlator.
using Correlator = std::vector<cdouble>;

/// Bytes one propagator streams per site: 12 columns of 24-real double
/// spinors.  The nucleon contractions charge one read pass per propagator
/// they take (2, or 3 with the FH line), pion_two_point one.
inline constexpr std::int64_t kPropagatorSiteBytes =
    12 * kSpinorReals * static_cast<std::int64_t>(sizeof(double));

/// Flops the nucleon contractions charge per site: the arithmetic their
/// body runs, at 6 per complex multiply and 2 per complex add.
///  - The diquark blocks D~^{bb'} = (C g5) D^{bb'} (C g5) are a signed
///    gather of D, since C g5 is a signed permutation: 0 flops.
///  - E_X^{cc'} = sum eps eps' D~^{bb'} (X^{aa'})^T for one line X: 36
///    products of 4x4 blocks accumulated into E, each 16 entries of
///    (4 multiplies, 3 adds, 1 accumulate) = 512 flops.
///  - The closing -sum_{cc'} [ sum_ik (Y P)_ik E_ik + tr(Y P) tr(E) ] over
///    nine colour pairs, each Y P (480), its entrywise product with E
///    (128), tr(Y P) (8) and tr(E) (6), their product (6) and two adds (4):
///    632 flops.
///  - The add into the timeslice sum: 2.
/// The two-point function forms one E and one closing, the FH 3pt two of
/// each.  The momentum phase (an angle, a cos/sin pair and one complex
/// multiply per site) is not charged.
inline constexpr std::int64_t kNucleonTwoPointFlopsPerSite =
    36 * 512 + 9 * 632 + 2;  // 24,122
inline constexpr std::int64_t kNucleonFhFlopsPerSite =
    2 * (36 * 512 + 9 * 632) + 2;  // 48,242

/// The lane counts nucleon_contract is built for: every native double
/// width (1 scalar, 2 SSE2/NEON, 4 AVX, 8 AVX-512).
inline constexpr std::array<int, 4> kContractWidths = {1, 2, 4, 8};

/// The one nucleon contraction body, W sites per step: the two-point
/// function of @p up and @p down (@p fh_up null), or with @p fh_up the FH
/// 3pt, at sink momentum @p momentum.  The functions below call it at the
/// native width; the results are bitwise the same at every W in
/// kContractWidths.
template <int W = simd::kWidth<double>>
Correlator nucleon_contract(const Propagator& up, const Propagator* fh_up,
                            const Propagator& down, const SpinMat& projector,
                            int t_src, std::array<int, 3> momentum = {0, 0, 0});

/// Nucleon two-point function, zero sink momentum, projector P.
/// @p up and @p down are the quark propagators from a common source at
/// time t_src; the result is indexed by (t - t_src + T) % T.
Correlator nucleon_two_point(const Propagator& up, const Propagator& down,
                             const SpinMat& projector, int t_src);

/// Same contraction with one up-quark line replaced by the FH propagator:
/// yields sum_tau <N(t) A(tau) N(0)> — the FH "three-point" tower.
Correlator nucleon_fh_three_point(const Propagator& up,
                                  const Propagator& fh_up,
                                  const Propagator& down,
                                  const SpinMat& projector, int t_src);

/// Pion two-point function at spatial momentum p (units of 2*pi/L):
///   C_pi(t) = sum_x e^{-i p.x} tr |S(x)|^2
/// (gamma_5 hermiticity collapses the pseudoscalar contraction to the
/// propagator's absolute square, so C_pi(t=0 momentum) is STRICTLY
/// positive on every configuration — the sharpest property test in the
/// suite).
Correlator pion_two_point(const Propagator& quark, int t_src,
                          std::array<int, 3> momentum = {0, 0, 0});

/// Nucleon two-point function at spatial momentum p.
Correlator nucleon_two_point_momentum(const Propagator& up,
                                      const Propagator& down,
                                      const SpinMat& projector, int t_src,
                                      std::array<int, 3> momentum);

/// The FH effective coupling: finite difference of the ratio,
///   g_eff(t) = R(t+1) - R(t),  R(t) = C_FH(t) / C_2pt(t).
std::vector<double> fh_effective_coupling_series(const Correlator& c2,
                                                 const Correlator& cfh);

/// Effective mass  m_eff(t) = log(C(t) / C(t+1)).
std::vector<double> effective_mass(const Correlator& c2);

}  // namespace femto::core
