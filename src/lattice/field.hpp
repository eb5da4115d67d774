#pragma once
// Field containers: 5D (domain-wall) spinor fields and 4D gauge fields.
//
// Storage is a flat array of reals in site-major order,
//     [s5][site][spin][color][re/im]
// where `site` is the parity-ordered 4D index from Geometry.  A field can
// cover the full lattice or a single parity (the working set of the
// red-black preconditioned solver).  4D fields are the L5 == 1 case.

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/check.hpp"
#include "lattice/geometry.hpp"
#include "lattice/rng.hpp"
#include "lattice/spinor.hpp"
#include "lattice/su3.hpp"
#include "simd/aligned.hpp"

namespace femto {

/// Which 4D sites a field covers.
enum class Subset { Full, Even, Odd };

inline const char* to_string(Subset s) {
  switch (s) {
    case Subset::Full: return "full";
    case Subset::Even: return "even";
    default: return "odd";
  }
}

/// Number of real degrees of freedom per (site, s5): 4 spins x 3 colors x 2.
inline constexpr int kSpinorReals = kNs * kNc * 2;

/// A spinor field over (a parity subset of) the 4D lattice, replicated L5
/// times in the fifth dimension.  L5 == 1 gives an ordinary 4D field.
template <typename T>
class SpinorField {
 public:
  SpinorField(std::shared_ptr<const Geometry> geom, int l5,
              Subset subset = Subset::Full)
      : geom_(std::move(geom)), l5_(l5), subset_(subset) {
    assert(l5 >= 1);
    data_.resize(static_cast<size_t>(reals()));
  }

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }
  int l5() const { return l5_; }
  Subset subset() const { return subset_; }

  /// Number of 4D sites covered.
  std::int64_t sites() const {
    return subset_ == Subset::Full ? geom_->volume() : geom_->half_volume();
  }
  /// Total 5D sites.
  std::int64_t sites5() const { return sites() * l5_; }
  /// Total real degrees of freedom.
  std::int64_t reals() const { return sites5() * kSpinorReals; }
  /// Bytes of field data.
  std::int64_t bytes() const {
    return reals() * static_cast<std::int64_t>(sizeof(T));
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Offset (in reals) of the spinor at 5th-dim slice @p s and 4D site
  /// index @p i (index within this field's subset).
  std::int64_t offset(int s, std::int64_t i) const {
    FEMTO_ASSERT(s >= 0 && s < l5_);
    FEMTO_ASSERT(i >= 0 && i < sites());
    return (std::int64_t(s) * sites() + i) * kSpinorReals;
  }

  Spinor<T> load(int s, std::int64_t i) const {
    Spinor<T> p;
    const T* q = data_.data() + offset(s, i);
    for (int sp = 0; sp < kNs; ++sp)
      for (int c = 0; c < kNc; ++c) {
        p[sp][c] = {q[0], q[1]};
        q += 2;
      }
    return p;
  }

  void store(int s, std::int64_t i, const Spinor<T>& p) {
    T* q = data_.data() + offset(s, i);
    for (int sp = 0; sp < kNs; ++sp)
      for (int c = 0; c < kNc; ++c) {
        q[0] = p[sp][c].re;
        q[1] = p[sp][c].im;
        q += 2;
      }
  }

  void zero() { std::fill(data_.begin(), data_.end(), T(0)); }

  /// Fill every component with unit Gaussians, reproducibly per global 5D
  /// site (independent of decomposition and thread count).
  void gaussian(std::uint64_t seed) {
    const std::int64_t base =
        subset_ == Subset::Odd ? geom_->half_volume() : 0;
    for (int s = 0; s < l5_; ++s)
      for (std::int64_t i = 0; i < sites(); ++i) {
        Xoshiro256 rng(seed, static_cast<std::uint64_t>(base + i),
                       static_cast<std::uint64_t>(s));
        T* q = data_.data() + offset(s, i);
        for (int k = 0; k < kSpinorReals; ++k)
          q[k] = static_cast<T>(rng.gaussian());
      }
  }

  /// Checks geometric compatibility with another field.
  template <typename U>
  bool compatible(const SpinorField<U>& o) const {
    return l5_ == o.l5() && subset_ == o.subset() &&
           geom_->volume() == o.geom().volume();
  }

 private:
  std::shared_ptr<const Geometry> geom_;
  int l5_;
  Subset subset_;
  // 64-byte aligned so vector loads never straddle a cache line.
  simd::aligned_vector<T> data_;
};

/// A non-owning view of a spinor field (or of one parity of a full field):
/// the spinor at (s5, i) lives at data + (s5 * stride + i) * kSpinorReals.
/// Kernels operate on views so that parity slices of full fields and
/// whole single-parity fields go through one code path.
template <typename T>
struct SpinorView {
  using value_type = std::remove_const_t<T>;

  T* data = nullptr;
  std::int64_t stride = 0;  ///< 4D sites between consecutive s5 slices
  std::int64_t sites = 0;   ///< 4D sites covered
  int l5 = 1;

  SpinorView() = default;
  SpinorView(T* d, std::int64_t st, std::int64_t si, int l)
      : data(d), stride(st), sites(si), l5(l) {}

  /// A mutable view converts implicitly to a const view.
  template <typename U = T,
            typename = std::enable_if_t<std::is_const_v<U>>>
  SpinorView(const SpinorView<value_type>& o)  // NOLINT(runtime/explicit)
      : data(o.data), stride(o.stride), sites(o.sites), l5(o.l5) {}

  std::int64_t offset(int s, std::int64_t i) const {
    FEMTO_ASSERT(s >= 0 && s < l5);
    FEMTO_ASSERT(i >= 0 && i < sites);
    return (std::int64_t(s) * stride + i) * kSpinorReals;
  }

  Spinor<value_type> load(int s, std::int64_t i) const {
    Spinor<value_type> p;
    const T* q = data + offset(s, i);
    for (int sp = 0; sp < kNs; ++sp)
      for (int c = 0; c < kNc; ++c) {
        p[sp][c] = {q[0], q[1]};
        q += 2;
      }
    return p;
  }

  void store(int s, std::int64_t i, const Spinor<value_type>& p) const {
    T* q = data + offset(s, i);
    for (int sp = 0; sp < kNs; ++sp)
      for (int c = 0; c < kNc; ++c) {
        q[0] = p[sp][c].re;
        q[1] = p[sp][c].im;
        q += 2;
      }
  }
};

template <typename T>
using ConstSpinorView = SpinorView<const T>;

/// Spinors (one 5D site of one right-hand side) a chunk of a site-walking
/// kernel carries by default: 128 x 1320 ~ 169 kflop of dslash.
inline constexpr std::int64_t kSpinorsPerChunk = 128;

/// Default chunk grain, in 4D sites, of the kernels that walk @p nrhs
/// views of @p l5 slices site by site (the dslash, its pack/unpack and the
/// fifth-dim matvec): enough sites for kSpinorsPerChunk spinors.  The
/// grain follows the work per site, so a 4^4 parity (128 sites) at
/// l5 = 4, B = 1 splits into 32-site chunks over four threads, and a
/// batch of B divides the grain by B; at l5 = B = 1 it is 128 sites.
inline std::size_t site_grain(int l5, std::size_t nrhs) {
  const auto per_site = static_cast<std::int64_t>(l5) *
                        static_cast<std::int64_t>(nrhs);
  if (per_site <= 0) return 1;
  return static_cast<std::size_t>(
      (kSpinorsPerChunk + per_site - 1) / per_site);
}

/// View of a whole field.
template <typename T>
SpinorView<T> view(SpinorField<T>& f) {
  return {f.data(), f.sites(), f.sites(), f.l5()};
}
template <typename T>
ConstSpinorView<T> view(const SpinorField<T>& f) {
  return {f.data(), f.sites(), f.sites(), f.l5()};
}

/// Const view of a field (useful to pass a mutable workspace as an input).
template <typename T>
SpinorView<const T> cview(const SpinorField<T>& f) {
  return view(f);
}

/// View of one parity of a FULL field (par 0 = even, 1 = odd).
template <typename T>
SpinorView<T> parity_view(SpinorField<T>& f, int par) {
  assert(f.subset() == Subset::Full);
  return {f.data() + std::int64_t(par) * f.geom().half_volume() *
                         kSpinorReals,
          f.geom().volume(), f.geom().half_volume(), f.l5()};
}
template <typename T>
ConstSpinorView<T> parity_view(const SpinorField<T>& f, int par) {
  assert(f.subset() == Subset::Full);
  return {f.data() + std::int64_t(par) * f.geom().half_volume() *
                         kSpinorReals,
          f.geom().volume(), f.geom().half_volume(), f.l5()};
}

/// Number of reals per gauge link: 3x3 complex.
inline constexpr int kLinkReals = kNc * kNc * 2;

/// A gauge field: one SU(3) link per site and direction, over the full
/// lattice (both parities), parity-ordered like spinor fields.
template <typename T>
class GaugeField {
 public:
  explicit GaugeField(std::shared_ptr<const Geometry> geom)
      : geom_(std::move(geom)) {
    data_.resize(static_cast<size_t>(4 * geom_->volume() * kLinkReals));
  }

  const Geometry& geom() const { return *geom_; }
  std::shared_ptr<const Geometry> geom_ptr() const { return geom_; }

  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(T));
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  std::int64_t offset(int mu, std::int64_t site) const {
    FEMTO_ASSERT(mu >= 0 && mu < 4);
    FEMTO_ASSERT(site >= 0 && site < geom_->volume());
    return (std::int64_t(mu) * geom_->volume() + site) * kLinkReals;
  }

  ColorMat<T> load(int mu, std::int64_t site) const {
    ColorMat<T> u;
    const T* q = data_.data() + offset(mu, site);
    for (int i = 0; i < kNc * kNc; ++i) {
      u.m[static_cast<size_t>(i)] = {q[0], q[1]};
      q += 2;
    }
    return u;
  }

  void store(int mu, std::int64_t site, const ColorMat<T>& u) {
    T* q = data_.data() + offset(mu, site);
    for (int i = 0; i < kNc * kNc; ++i) {
      q[0] = u.m[static_cast<size_t>(i)].re;
      q[1] = u.m[static_cast<size_t>(i)].im;
      q += 2;
    }
  }

  /// Convert (e.g. double -> float) for mixed-precision operators.
  template <typename U>
  GaugeField<U> convert() const {
    GaugeField<U> out(geom_);
    for (size_t k = 0; k < data_.size(); ++k)
      out.data()[k] = static_cast<U>(data_[k]);
    return out;
  }

 private:
  std::shared_ptr<const Geometry> geom_;
  simd::aligned_vector<T> data_;
};

}  // namespace femto
