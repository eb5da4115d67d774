#pragma once
// Tiered gauge-link storage: QUDA's reconstruct-12 next to plain 18-real
// links (PAPER.md §1.2).  The dslash is bandwidth-bound, so every byte not
// stored is a byte not streamed:
//
//   format    stored/link          scheme
//   full18    18 reals             plain GaugeField<T>
//   recon12   12 reals             rows 0-1; third row is the conjugate
//                                  cross product (exact up to
//                                  reconstruction rounding on unitary input)
//
// recon12 is only valid on SU(3) links — under FEMTO_CHECKED, store()
// rejects non-unitary input loudly.  Solvers use it only in the float inner
// iterations of mixed CG, never in the double reliable updates.
//
// The per-link codec is shared by the container below and by the
// distributed gauge-halo wire packer (dirac/distributed.cpp), so wire
// format and storage format cannot drift apart.

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/check.hpp"
#include "lattice/field.hpp"
#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto {

/// Gauge-link storage tier, threaded from field to solver to tuner.  The
/// ordinals are stable: they appear in femtotune cache keys, in the
/// `dslash.format_{f,d}` gauges (decoded by the femtoscope report), and in
/// SolverParams.
enum class GaugeFormat : int {
  kFull18 = 0,
  kRecon12 = 1,
};

inline constexpr int kNumGaugeFormats = 2;

constexpr const char* gauge_format_name(GaugeFormat f) {
  switch (f) {
    case GaugeFormat::kFull18: return "full18";
    case GaugeFormat::kRecon12: return "recon12";
  }
  return "?";
}

/// Reconstruct the third row of an SU(3) matrix from the first two:
/// row2 = conj(row0 x row1).
template <typename T>
constexpr void reconstruct_third_row(ColorMat<T>& u) {
  u(2, 0) = conj(u(0, 1) * u(1, 2) - u(0, 2) * u(1, 1));
  u(2, 1) = conj(u(0, 2) * u(1, 0) - u(0, 0) * u(1, 2));
  u(2, 2) = conj(u(0, 0) * u(1, 1) - u(0, 1) * u(1, 0));
}

/// Number of stored reals per link in reconstruct-12 format.
inline constexpr int kCompressedLinkReals = 12;

/// Relative L2 distance a dslash on recon12 links may sit from the same
/// dslash on full18 links: the reconstruction-rounding budget.  The kernel
/// tests pin it, and the autotuner rejects any candidate outside it.
template <typename T>
constexpr double recon12_tolerance() {
  return std::is_same_v<T, float> ? 1e-5 : 1e-13;
}

namespace detail {
/// |z|^2 under a codec-private name: the femtolint name-based call graph
/// would fuse a call to `norm2` here with blas::norm2 (a kernel
/// launcher), dragging every `store`/`load` caller onto a kernel chain.
template <typename T>
constexpr T cnorm2(const Cplx<T>& z) {
  return z.re * z.re + z.im * z.im;
}
}  // namespace detail

/// ||u adj(u) - 1||_F^2: zero for unitary links.  The reconstruction
/// formula assumes unitarity, so this is the residual the FEMTO_CHECKED
/// store() guard tests.
template <typename T>
constexpr T unitarity_residual2(const ColorMat<T>& u) {
  T s{};
  for (int i = 0; i < kNc; ++i)
    for (int j = 0; j < kNc; ++j) {
      Cplx<T> d{};
      for (int k = 0; k < kNc; ++k) d += u(i, k) * conj(u(j, k));
      if (i == j) d.re -= T(1);
      s += detail::cnorm2(d);
    }
  return s;
}

namespace detail {
template <typename T>
constexpr T unitarity_tol2() {
  // norm2-based residual: rounding of an SU(3) product is ~eps per entry.
  return std::is_same_v<T, float> ? T(1e-8) : T(1e-20);
}
#if FEMTO_CHECKED_ENABLED
template <typename T>
inline void check_unitary_link(const ColorMat<T>& u) {
  FEMTO_CHECK(unitarity_residual2(u) < unitarity_tol2<T>(),
              "gauge compression requires SU(3) input links");
}
#else
template <typename T>
inline void check_unitary_link(const ColorMat<T>&) {}
#endif
}  // namespace detail

// ---------------------------------------------------------------------------
// Per-link codec (shared with the halo wire packer).
// ---------------------------------------------------------------------------

/// recon12: store rows 0-1 as 12 reals.
template <typename T>
constexpr void encode_recon12(const ColorMat<T>& u, T* q) {
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNc; ++c) {
      q[0] = u(r, c).re;
      q[1] = u(r, c).im;
      q += 2;
    }
}

template <typename T>
constexpr ColorMat<T> decode_recon12(const T* q) {
  ColorMat<T> u;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < kNc; ++c) {
      u(r, c) = {q[0], q[1]};
      q += 2;
    }
  reconstruct_third_row(u);
  return u;
}

// ---------------------------------------------------------------------------
// Container.  Exposes the GaugeField surface the dslash kernels use --
// geom()/geom_ptr()/load()/bytes() -- so the container-generic stencil
// bodies in dirac/wilson.cpp read either tier.  bytes() reports true stored
// bytes, keeping flops::add_bytes charges and the femtoscope AI/GB/s
// derivations honest.
// ---------------------------------------------------------------------------

/// A gauge field stored in reconstruct-12 format.  Drop-in for the dslash
/// via load() (which reconstructs); storage is 2/3 of the full field.
template <typename T>
class CompressedGaugeField {
 public:
  static constexpr GaugeFormat kFormat = GaugeFormat::kRecon12;

  /// Compresses on the pool.  Each link writes disjoint storage, so the
  /// sweep is deterministic regardless of chunking.
  explicit CompressedGaugeField(const GaugeField<T>& full)
      : geom_(full.geom_ptr()) {
    const std::int64_t vol = geom_->volume();
    data_.resize(static_cast<std::size_t>(4 * vol * kCompressedLinkReals));
    par::parallel_for_chunked(
        std::size_t{0}, static_cast<std::size_t>(4 * vol),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto l = static_cast<std::int64_t>(i);
            const int mu = static_cast<int>(l / vol);
            store(mu, l % vol, full.load(mu, l % vol));
          }
        },
        kCompressGrain);
    flops::add_bytes(full.bytes() + bytes());
  }

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }

  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(T));
  }

  /// Store the first two rows only.
  void store(int mu, std::int64_t site, const ColorMat<T>& u) {
    detail::check_unitary_link(u);
    encode_recon12(u, data_.data() + offset(mu, site));
  }

  /// Load with third-row reconstruction.
  ColorMat<T> load(int mu, std::int64_t site) const {
    return decode_recon12(data_.data() + offset(mu, site));
  }

  /// Expand back to full 18-real storage.
  GaugeField<T> decompress() const {
    GaugeField<T> out(geom_);
    for (int mu = 0; mu < 4; ++mu)
      for (std::int64_t s = 0; s < geom_->volume(); ++s)
        out.store(mu, s, load(mu, s));
    return out;
  }

 private:
  /// Links per worker chunk for the parallel compression constructor.
  static constexpr std::size_t kCompressGrain = 1024;

  std::int64_t offset(int mu, std::int64_t site) const {
    return (std::int64_t(mu) * geom_->volume() + site) *
           kCompressedLinkReals;
  }

  std::shared_ptr<const Geometry> geom_;
  std::vector<T> data_;
};

}  // namespace femto
