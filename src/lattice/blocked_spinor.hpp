#pragma once
// Lane-blocked spinor storage for the lane-vectorized dslash.
//
// The dslash vectorizes a batch of B right-hand sides with l5 fifth-dim
// slices each over one flattened lane axis
//     l = s*B + r        (RHS index fastest, l < l5*B)
// and lane j of block b is l = b*W + j.  At B = 1 the lanes are fifth-dim
// slices; when W divides B every block holds W right-hand sides of one
// slice.  All lanes of a block sit at the same 4D site, so one broadcast
// of the site's 8 links feeds every lane.  In the standard layout
// [s5][site][real] a W-lane load is a gather across slices and fields;
// BlockedMultiSpinor transposes the batch into
//     [lane_block][site][real][lane]
// so the blocked kernel's loads and stores are contiguous W-real vectors.
// Tail lanes exist only in the last block (W not dividing l5*B) and are
// zero; the kernel computes garbage-free zeros in them and unpack()
// ignores them.
//
// pack()/unpack() cost one read + one write pass per field; the autotuner
// decides per geometry whether the contiguous kernel pays for them (the
// `variant` knob in DslashMultiTunable).

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/field.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/aligned.hpp"

namespace femto {

/// Per-lane slice bases of a batch over the lane axis l = s*B + r: lane
/// l's spinor at 4D site i starts at bases[l] + i * kSpinorReals.  The
/// views must share (stride, l5).
template <typename T>
std::vector<T*> lane_bases(std::span<const SpinorView<T>> v) {
  const std::size_t nb = v.size();
  const int l5 = v[0].l5;
  std::vector<T*> bases(nb * static_cast<std::size_t>(l5));
  for (int s = 0; s < l5; ++s)
    for (std::size_t r = 0; r < nb; ++r)
      bases[static_cast<std::size_t>(s) * nb + r] =
          v[r].data + v[r].offset(s, 0);
  return bases;
}

template <typename T, int W>
class BlockedMultiSpinor {
 public:
  static_assert(W >= 1, "lane count must be positive");

  BlockedMultiSpinor(std::int64_t sites, int l5, int nrhs)
      : sites_(sites),
        l5_(l5),
        nrhs_(nrhs),
        nblocks_((l5 * nrhs + W - 1) / W),
        data_(static_cast<std::size_t>(nblocks_ * sites * kSpinorReals * W)) {}

  int blocks() const { return nblocks_; }

  /// Re-point at a (sites, l5, nrhs) shape, reusing the allocation when
  /// the site and lane counts are unchanged.  The blocked dslash keeps its
  /// buffers in thread-local scratch and reshapes per call: a fresh
  /// multi-hundred-KB allocation every call is an mmap + zero + page-fault
  /// pass that rivals the pack itself.  An equal lane count is a no-op on
  /// the storage, which also preserves the tail-lane-zero invariant (pack
  /// never writes tail lanes, and with zeroed inputs the kernel writes
  /// zeros back to them); any other change zero-fills the whole buffer.
  void reshape(std::int64_t sites, int l5, int nrhs) {
    const bool same = sites == sites_ && l5 * nrhs == lanes();
    l5_ = l5;
    nrhs_ = nrhs;
    if (same) return;
    sites_ = sites;
    nblocks_ = (l5 * nrhs + W - 1) / W;
    data_.assign(static_cast<std::size_t>(nblocks_ * sites * kSpinorReals * W),
                 T());
  }

  /// Pointer to the kSpinorReals x W reals of (lane block, site).
  T* block(int b, std::int64_t i) {
    return data_.data() +
           (std::int64_t(b) * sites_ + i) * (kSpinorReals * W);
  }
  const T* block(int b, std::int64_t i) const {
    return data_.data() +
           (std::int64_t(b) * sites_ + i) * (kSpinorReals * W);
  }

  /// Transpose B standard views in (lanes innermost).  All views must
  /// share (sites, stride, l5); @p grain is in 4D sites like the dslash
  /// grain.
  void pack(std::span<const SpinorView<const T>> in, std::size_t grain) {
    FEMTO_ASSERT(static_cast<int>(in.size()) == nrhs_);
    const std::vector<const T*> bases = lane_bases(in);
    par::parallel_for_chunked(
        0, static_cast<std::size_t>(sites_),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto site = static_cast<std::int64_t>(i);
            for (int b = 0; b < nblocks_; ++b) {
              T* dst = block(b, site);
              const int nl = lanes_in(b);
              for (int j = 0; j < nl; ++j) {
                const T* src = bases[std::size_t(b * W + j)] +
                               site * kSpinorReals;
                for (int k = 0; k < kSpinorReals; ++k) dst[k * W + j] = src[k];
              }
            }
          }
        },
        grain);
  }

  /// Transpose back out to B standard views (tail lanes dropped).
  void unpack(std::span<const SpinorView<T>> out, std::size_t grain) const {
    FEMTO_ASSERT(static_cast<int>(out.size()) == nrhs_);
    const std::vector<T*> bases = lane_bases(out);
    par::parallel_for_chunked(
        0, static_cast<std::size_t>(sites_),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto site = static_cast<std::int64_t>(i);
            for (int b = 0; b < nblocks_; ++b) {
              const T* src = block(b, site);
              const int nl = lanes_in(b);
              for (int j = 0; j < nl; ++j) {
                T* dst = bases[std::size_t(b * W + j)] + site * kSpinorReals;
                for (int k = 0; k < kSpinorReals; ++k) dst[k] = src[k * W + j];
              }
            }
          }
        },
        grain);
  }

  /// Bytes of blocked storage (includes tail-lane padding) -- what one
  /// pack/unpack pass writes/reads on the blocked side.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(data_.size() * sizeof(T));
  }

 private:
  int lanes() const { return l5_ * nrhs_; }
  /// Real (non-tail) lanes of block @p b.
  int lanes_in(int b) const {
    return b * W + W <= lanes() ? W : lanes() - b * W;
  }

  std::int64_t sites_;
  int l5_;
  int nrhs_;
  int nblocks_;
  simd::aligned_vector<T> data_;
};

}  // namespace femto
