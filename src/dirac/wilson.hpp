#pragma once
// The Wilson dslash: the radius-one stencil at the heart of the paper's
// workload.  Couples opposite 4D parities, which enables the red-black
// (even-odd) Schur preconditioning of the Mobius solve.
//
// Convention:
//   Dslash psi(x) = sum_mu [ U_mu(x) (1 - g_mu) psi(x+mu)
//                          + U_mu(x-mu)^dag (1 + g_mu) psi(x-mu) ]
// with antiperiodic fermion boundary conditions in time (sign carried by
// the Geometry's phase tables).  The dagger variant flips the projector
// signs (g5 Dslash g5 = Dslash^dag).
//
// The Wilson operator itself is  M = (4 + m) - (1/2) Dslash ; for domain-
// wall fermions m is the (negative) domain-wall height M5.

#include <cstddef>
#include <span>

#include "lattice/compressed_gauge.hpp"
#include "lattice/field.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/vec.hpp"

namespace femto {

/// Which stencil implementation to run (swept by the autotuner alongside
/// the grain; see DESIGN.md §11).  Each variant is one batched body; a
/// single-RHS call is the batch of one.  The vector variants run W lanes
/// over the flattened lane axis l = s*B + r (RHS index fastest), so at
/// B = 1 the lanes are fifth-dim slices and when W divides B each block
/// holds W right-hand sides of one slice.
///   kScalar        one 5D site of one RHS at a time (the W=1 bitwise
///                  reference)
///   kVector        lane-vectorized, gathering each lane from the standard
///                  [s5][site][real] layouts through per-lane slice bases
///   kVectorBlocked lane-vectorized over a lane-blocked transpose
///                  (BlockedMultiSpinor): contiguous vector loads at the
///                  cost of a pack/unpack pass per call
enum class DslashVariant : int { kScalar = 0, kVector = 1, kVectorBlocked = 2 };

inline const char* to_string(DslashVariant v) {
  switch (v) {
    case DslashVariant::kScalar: return "scalar";
    case DslashVariant::kVector: return "vector";
    default: return "vector_blocked";
  }
}

/// Tuning knobs for the stencil kernel (swept by the autotuner the same way
/// QUDA sweeps CUDA launch geometry).
struct DslashTuning {
  /// Minimum 4D sites per thread chunk; 0 (the untuned default) derives
  /// it from the work per chunk, site_grain(l5, B): about 169 kflop of
  /// stencil whatever l5 and the batch are.  A launch that finds its
  /// workers spinning costs about a microsecond, far below a chunk, so
  /// the Schur stages of a 4^4, l5 = 4 solve (128-site parities) split
  /// into four 32-site chunks instead of running on the calling thread.
  /// The lane-blocked body packs and unpacks on the same grain.
  std::size_t grain = 0;
  /// Untuned default: the lane-blocked body wherever the build has SIMD
  /// lanes (every variant gives the same bits, and this one ran the float
  /// 4^3x8, l5 = 4 normal operator ~1.5x faster than scalar), the scalar
  /// reference otherwise.
  DslashVariant variant = simd::compiled_with_simd()
                              ? DslashVariant::kVectorBlocked
                              : DslashVariant::kScalar;
  /// Gauge storage tier the operator should read (DESIGN.md §16).  The
  /// dslash entry points below take the container explicitly; this knob is
  /// how the tuned selection travels through MobiusOperator, which owns
  /// the compressed copies and dispatches on it.
  GaugeFormat format = GaugeFormat::kFull18;
};

/// Apply the dslash from parity (1 - out_parity) sites of @p in to parity
/// @p out_parity sites written to @p out, for every 5th-dim slice: the
/// batch of one of dslash_multi.
///
/// @p out and @p in are views with the SAME l5; the gauge field is 4D and
/// shared across slices.  If @p dagger, applies Dslash^dag.
template <typename T>
void dslash(const SpinorView<T>& out, const GaugeField<T>& u,
            const SpinorView<const T>& in, int out_parity, bool dagger,
            const DslashTuning& tune = {});

/// Multi-RHS dslash (DESIGN.md §12): apply the same stencil to B spinors
/// in one pass, gathering each site's 8 phased links ONCE and reusing them
/// for every slice and RHS — the gauge stream is charged once per call
/// instead of once per RHS, which is the solver's biggest remaining
/// bandwidth win.
///
/// All views must share (sites, stride, l5); per-RHS output is bitwise
/// identical to B independent dslash() calls for EVERY variant, because
/// every lane of the l = s*B + r axis runs the identical stencil and lane
/// arithmetic is elementwise.
template <typename T>
void dslash_multi(std::span<const SpinorView<T>> out, const GaugeField<T>& u,
                  std::span<const SpinorView<const T>> in, int out_parity,
                  bool dagger, const DslashTuning& tune = {});

/// The stencil reading recon12 links (DESIGN.md §16): every variant —
/// scalar, vector, vector_blocked — reads either storage tier, because the
/// kernel bodies are generic over the container and only its load()
/// differs.  recon12 matches full storage on SU(3) links up to
/// reconstruction rounding.
template <typename T>
void dslash(const SpinorView<T>& out, const CompressedGaugeField<T>& u,
            const SpinorView<const T>& in, int out_parity, bool dagger,
            const DslashTuning& tune = {});

/// Multi-RHS over recon12 links: reconstruction cost amortizes across the
/// batch exactly like the gauge stream does (links are gathered once per
/// site for the whole block), so compression and multi-RHS multiply.
template <typename T>
void dslash_multi(std::span<const SpinorView<T>> out,
                  const CompressedGaugeField<T>& u,
                  std::span<const SpinorView<const T>> in, int out_parity,
                  bool dagger, const DslashTuning& tune = {});

/// Full-lattice Wilson operator: out = (4 + mass) in - 1/2 Dslash in.
/// Fields must be Subset::Full with matching l5.
template <typename T>
void wilson_op(SpinorField<T>& out, const GaugeField<T>& u,
               const SpinorField<T>& in, double mass, bool dagger = false,
               const DslashTuning& tune = {});
template <typename T>
void wilson_op(SpinorField<T>& out, const CompressedGaugeField<T>& u,
               const SpinorField<T>& in, double mass, bool dagger = false,
               const DslashTuning& tune = {});

extern template void dslash<double>(const SpinorView<double>&,
                                    const GaugeField<double>&,
                                    const ConstSpinorView<const double>&, int,
                                    bool, const DslashTuning&);
extern template void dslash<float>(const SpinorView<float>&,
                                   const GaugeField<float>&,
                                   const ConstSpinorView<const float>&, int,
                                   bool, const DslashTuning&);
extern template void dslash_multi<double>(
    std::span<const SpinorView<double>>, const GaugeField<double>&,
    std::span<const SpinorView<const double>>, int, bool,
    const DslashTuning&);
extern template void dslash_multi<float>(
    std::span<const SpinorView<float>>, const GaugeField<float>&,
    std::span<const SpinorView<const float>>, int, bool, const DslashTuning&);
extern template void wilson_op<double>(SpinorField<double>&,
                                       const GaugeField<double>&,
                                       const SpinorField<double>&, double,
                                       bool, const DslashTuning&);
extern template void wilson_op<float>(SpinorField<float>&,
                                      const GaugeField<float>&,
                                      const SpinorField<float>&, double, bool,
                                      const DslashTuning&);

// recon12 overloads, both precisions.
#define FEMTO_EXTERN_DSLASH_R12(T)                                           \
  extern template void dslash<T>(const SpinorView<T>&,                       \
                                 const CompressedGaugeField<T>&,             \
                                 const SpinorView<const T>&, int, bool,      \
                                 const DslashTuning&);                       \
  extern template void dslash_multi<T>(std::span<const SpinorView<T>>,       \
                                       const CompressedGaugeField<T>&,       \
                                       std::span<const SpinorView<const T>>, \
                                       int, bool, const DslashTuning&);      \
  extern template void wilson_op<T>(SpinorField<T>&,                         \
                                    const CompressedGaugeField<T>&,          \
                                    const SpinorField<T>&, double, bool,     \
                                    const DslashTuning&);
FEMTO_EXTERN_DSLASH_R12(double)
FEMTO_EXTERN_DSLASH_R12(float)
#undef FEMTO_EXTERN_DSLASH_R12

}  // namespace femto
