#pragma once
// QUDA-style "half" precision: 16-bit fixed-point spinor storage.
//
// The paper's fastest solver does "most of the work using 16-bit precision
// fixed-point storage (utilizing single-precision computation) with
// occasional reliable updates to full double precision".  We reproduce the
// storage scheme faithfully: each (site, s5) spinor block stores its 24
// real components as int16 scaled by the block's max-norm, plus one float
// norm per block.  Arithmetic happens in float after expansion.
//
// SIMD: the whole-field kernels are width-templated like lattice/blas.hpp
// (default = the build's native float width).  The max-abs scan, the BLAS
// update, the int16 expansion and the norm accumulation vectorize; the
// quantise store stays a scalar std::lrintf loop so the fixed-point
// rounding is identical at every width.  Since max is exact, the block
// scale — and therefore the quantised field contents — are bitwise
// width-independent; only the lane-striped norm reductions differ across
// widths within rounding.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "lattice/blas.hpp"
#include "lattice/field.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/vec.hpp"

namespace femto {

/// A spinor field stored in 16-bit fixed point with a per-site scale.
class HalfSpinorField {
 public:
  HalfSpinorField(std::shared_ptr<const Geometry> geom, int l5, Subset subset)
      : geom_(std::move(geom)), l5_(l5), subset_(subset) {
    const std::int64_t blocks = sites() * l5_;
    q_.resize(static_cast<size_t>(blocks) * kSpinorReals);
    scale_.resize(static_cast<size_t>(blocks));
  }

  const Geometry& geom() const { return *geom_; }
  int l5() const { return l5_; }
  Subset subset() const { return subset_; }
  std::int64_t sites() const {
    return subset_ == Subset::Full ? geom_->volume() : geom_->half_volume();
  }
  std::int64_t blocks() const { return sites() * l5_; }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(q_.size() * sizeof(std::int16_t) +
                                     scale_.size() * sizeof(float));
  }

  /// Quantise one block of 24 floats.
  template <int W = simd::kWidth<float>>
  void encode_block(std::int64_t block, const float* vals) {
    float amax = 0.0f;
    int k = 0;
    if constexpr (W > 1) {
      simd::Vec<float, W> m;
      for (; k + W <= kSpinorReals; k += W) {
        const auto v = simd::Vec<float, W>::load(vals + k);
        m = simd::max(m, simd::max(v, -v));
      }
      if (k < kSpinorReals) {
        // Zero tail lanes are harmless under max-abs.
        const auto v =
            simd::Vec<float, W>::load_partial(vals + k, kSpinorReals - k);
        m = simd::max(m, simd::max(v, -v));
        k = kSpinorReals;
      }
      amax = simd::max_lanes(m);
    }
    for (; k < kSpinorReals; ++k) amax = std::max(amax, std::fabs(vals[k]));
    const float scale = amax > 0.0f ? amax : 1.0f;
    scale_[static_cast<size_t>(block)] = scale;
    const float inv = 32767.0f / scale;
    std::int16_t* q = q_.data() + block * kSpinorReals;
    // Scalar on purpose: lrintf's round-to-nearest-even must be identical
    // at every width, so the stored int16 never depend on the build.
    for (int j = 0; j < kSpinorReals; ++j)
      q[j] = static_cast<std::int16_t>(std::lrintf(vals[j] * inv));
  }

  /// Expand one block back to floats.
  template <int W = simd::kWidth<float>>
  void decode_block(std::int64_t block, float* vals) const {
    const float s = scale_[static_cast<size_t>(block)] / 32767.0f;
    const std::int16_t* q = q_.data() + block * kSpinorReals;
    int k = 0;
    if constexpr (W > 1) {
      const simd::Vec<float, W> sv(s);
      for (; k + W <= kSpinorReals; k += W) {
        const auto qv = simd::Vec<std::int16_t, W>::load(q + k);
        (simd::convert<float>(qv) * sv).store(vals + k);
      }
    }
    for (; k < kSpinorReals; ++k) vals[k] = static_cast<float>(q[k]) * s;
  }

  /// Default block-grain for the whole-field kernels below (blocks per
  /// worker chunk); swept by the autotuner like the BLAS grains.
  static constexpr std::size_t kHalfGrain = 512;

  /// Quantise an entire float field into this storage.
  void encode(const SpinorField<float>& src, std::size_t grain = kHalfGrain);

  /// Expand into a float field.
  void decode(SpinorField<float>& dst, std::size_t grain = kHalfGrain) const;

  // Fused round-trip kernels.  mixed_cg's reliable-update bookkeeping needs
  // the working vectors to hold exactly what half storage holds ("quantise":
  // f = decode(encode(f))).  Done naively that is four full-field sweeps
  // (encode read+write, decode read+write); fused per block it is one, with
  // the int16 staging cache-resident.  Each also folds in the BLAS update
  // and/or norm the solver wants next, so the update, the quantisation and
  // the reduction share a single pass.  All reductions accumulate in double
  // per chunk and combine in fixed chunk order (deterministic for a given
  // thread count), like lattice/blas.hpp.

  /// f = decode(encode(f)); returns ||f||^2 of the quantised field.
  template <int W = simd::kWidth<float>>
  double roundtrip_norm2(SpinorField<float>& f,
                         std::size_t grain = kHalfGrain) {
    FEMTO_TRACE_SCOPE("half", "roundtrip_norm2");
    assert(f.l5() == l5_ && f.subset() == subset_);
    float* fd = f.data();
    double n2 = 0.0;
    par::ThreadPool::global().parallel_reduce_n(
        0, static_cast<std::size_t>(blocks()), 1,
        [&](std::size_t lo, std::size_t hi, double* acc) {
          double s = 0.0;
          for (std::size_t b = lo; b < hi; ++b) {
            float* vals = fd + b * kSpinorReals;
            encode_block<W>(static_cast<std::int64_t>(b), vals);
            decode_block<W>(static_cast<std::int64_t>(b), vals);
            s += blas::detail::norm2_chunk<W>(vals, 0, kSpinorReals);
          }
          acc[0] = s;
        },
        &n2, grain);
    flops::add(2 * f.reals());
    flops::add_bytes(blocks() * kRoundtripBytesPerBlock);
    return n2;
  }

  /// y += a*x, then y = decode(encode(y)).
  template <int W = simd::kWidth<float>>
  void axpy_roundtrip(double a, const SpinorField<float>& x,
                      SpinorField<float>& y, std::size_t grain = kHalfGrain) {
    FEMTO_TRACE_SCOPE("half", "axpy_roundtrip");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float aa = static_cast<float>(a);
    const float* xd = x.data();
    float* yd = y.data();
    par::parallel_for_chunked(
        0, static_cast<std::size_t>(blocks()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t b = lo; b < hi; ++b) {
            float* vals = yd + b * kSpinorReals;
            blas::detail::axpy_chunk<W>(aa, xd + b * kSpinorReals, vals, 0,
                                        kSpinorReals);
            encode_block<W>(static_cast<std::int64_t>(b), vals);
            decode_block<W>(static_cast<std::int64_t>(b), vals);
          }
        },
        grain);
    flops::add(2 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
  }

  /// y += a*x, then y = decode(encode(y)); returns ||y||^2 of the
  /// quantised y.
  template <int W = simd::kWidth<float>>
  double axpy_roundtrip_norm2(double a, const SpinorField<float>& x,
                              SpinorField<float>& y,
                              std::size_t grain = kHalfGrain) {
    FEMTO_TRACE_SCOPE("half", "axpy_roundtrip_norm2");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float aa = static_cast<float>(a);
    const float* xd = x.data();
    float* yd = y.data();
    double n2 = 0.0;
    par::ThreadPool::global().parallel_reduce_n(
        0, static_cast<std::size_t>(blocks()), 1,
        [&](std::size_t lo, std::size_t hi, double* acc) {
          double s = 0.0;
          for (std::size_t b = lo; b < hi; ++b) {
            float* vals = yd + b * kSpinorReals;
            blas::detail::axpy_chunk<W>(aa, xd + b * kSpinorReals, vals, 0,
                                        kSpinorReals);
            encode_block<W>(static_cast<std::int64_t>(b), vals);
            decode_block<W>(static_cast<std::int64_t>(b), vals);
            s += blas::detail::norm2_chunk<W>(vals, 0, kSpinorReals);
          }
          acc[0] = s;
        },
        &n2, grain);
    flops::add(4 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
    return n2;
  }

  /// y = x + b*y, then y = decode(encode(y)).
  template <int W = simd::kWidth<float>>
  void xpay_roundtrip(const SpinorField<float>& x, double b,
                      SpinorField<float>& y, std::size_t grain = kHalfGrain) {
    FEMTO_TRACE_SCOPE("half", "xpay_roundtrip");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float bb = static_cast<float>(b);
    const float* xd = x.data();
    float* yd = y.data();
    par::parallel_for_chunked(
        0, static_cast<std::size_t>(blocks()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t blk = lo; blk < hi; ++blk) {
            float* vals = yd + blk * kSpinorReals;
            blas::detail::xpay_chunk<W>(xd + blk * kSpinorReals, bb, vals, 0,
                                        kSpinorReals);
            encode_block<W>(static_cast<std::int64_t>(blk), vals);
            decode_block<W>(static_cast<std::int64_t>(blk), vals);
          }
        },
        grain);
    flops::add(2 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
  }

 private:
  // Traffic charged per block for a one-pass quantise round-trip over the
  // float field: read + write the 24 floats, write the 24 int16 and the
  // float scale (the int16 staging is read back while still cache resident,
  // so it is charged once).
  static constexpr std::int64_t kRoundtripBytesPerBlock =
      kSpinorReals * (2 * sizeof(float) + sizeof(std::int16_t)) +
      sizeof(float);
  // One extra float-field read for kernels that also stream an x input.
  static constexpr std::int64_t kXReadBytesPerBlock =
      kSpinorReals * sizeof(float);

  std::shared_ptr<const Geometry> geom_;
  int l5_;
  Subset subset_;
  std::vector<std::int16_t> q_;
  std::vector<float> scale_;
};

}  // namespace femto
