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
// (default = the build's native float width), and every step of a block
// vectorizes: the max-abs scan, the BLAS update, the quantise, the
// dequantise and the norm.  The quantise rounds with exact float
// arithmetic (quantise() below), which is std::lrintf's round to nearest
// even at every width, W = 1 included; max is exact too, so the block
// scale and the quantised contents are bitwise width-independent.  Only
// the lane-striped per-block norms differ across widths, within rounding.
//
// Threads: every kernel walks independent blocks on the pool at a fixed
// blocks-per-chunk grain, so the chunking moves no bit.  The two kernels
// that return a norm write one norm per block, then sum them over a
// parallel_reduce_n partition at kHalfGrain: the tree the sum always had,
// so it is bitwise identical at any thread count.

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
    norms_.resize(static_cast<size_t>(blocks));
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

  /// Round @p x * @p inv to the nearest integer, ties to even, as a float:
  /// adding 1.5 * 2^23 moves the product into [2^23, 2^24), where floats
  /// are one apart, so that add rounds it, and the subtraction is exact.
  /// Equal to float(std::lrintf(x * inv)) under the default rounding mode
  /// whenever |x * inv| < 2^22 (a block's values are within 32767).  @p V
  /// is float or a simd::Vec<float, W>; every width does the same IEEE
  /// operations, so every width rounds alike.  The product must not be
  /// contracted into an FMA with the add (HalfSimd.QuantiseMatchesLrintf).
  template <typename V>
  static V quantise(const V& x, const V& inv) {
    const V shift(12582912.0f);  // 1.5 * 2^23
    return (x * inv + shift) - shift;
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

  /// Blocks per partial of the norm kernels' reduction tree.
  static constexpr std::size_t kHalfGrain = 512;

  /// Blocks per pool chunk of every whole-field kernel here, each block
  /// the same work: a 4^4, l5 = 4 parity (512 blocks) splits into four
  /// chunks that each move ~31 kB (kRoundtripBytesPerBlock x 128).
  static constexpr std::size_t kBlocksPerChunk = 128;

  /// Quantise an entire float field into this storage.
  void encode(const SpinorField<float>& src);

  /// Expand into a float field.
  void decode(SpinorField<float>& dst) const;

  // Fused round-trip kernels.  mixed_cg's reliable-update bookkeeping needs
  // the working vectors to hold exactly what half storage holds ("quantise":
  // f = decode(encode(f))).  Done naively that is four full-field sweeps
  // (encode read+write, decode read+write); fused per block it is one: the
  // dequantised values come from the rounded floats (float(q) exactly)
  // while the block is in registers.  Each also folds in the BLAS update
  // and/or norm the solver wants next, so the update, the quantisation and
  // the reduction share a single pass.

  /// f = decode(encode(f)); returns ||f||^2 of the quantised field.
  template <int W = simd::kWidth<float>>
  double roundtrip_norm2(SpinorField<float>& f) {
    FEMTO_TRACE_SCOPE("half", "roundtrip_norm2");
    assert(f.l5() == l5_ && f.subset() == subset_);
    roundtrip_pass<W>(f.data(), [](std::size_t, float*) {}, norms_.data());
    flops::add(2 * f.reals());
    flops::add_bytes(blocks() * kRoundtripBytesPerBlock);
    return sum_norms();
  }

  /// y += a*x, then y = decode(encode(y)).
  template <int W = simd::kWidth<float>>
  void axpy_roundtrip(double a, const SpinorField<float>& x,
                      SpinorField<float>& y) {
    FEMTO_TRACE_SCOPE("half", "axpy_roundtrip");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float aa = static_cast<float>(a);
    const float* xd = x.data();
    roundtrip_pass<W>(
        y.data(),
        [&](std::size_t b, float* vals) {
          blas::detail::axpy_chunk<W>(aa, xd + b * kSpinorReals, vals, 0,
                                      kSpinorReals);
        },
        nullptr);
    flops::add(2 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
  }

  /// y += a*x, then y = decode(encode(y)); returns ||y||^2 of the
  /// quantised y.
  template <int W = simd::kWidth<float>>
  double axpy_roundtrip_norm2(double a, const SpinorField<float>& x,
                              SpinorField<float>& y) {
    FEMTO_TRACE_SCOPE("half", "axpy_roundtrip_norm2");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float aa = static_cast<float>(a);
    const float* xd = x.data();
    roundtrip_pass<W>(
        y.data(),
        [&](std::size_t b, float* vals) {
          blas::detail::axpy_chunk<W>(aa, xd + b * kSpinorReals, vals, 0,
                                      kSpinorReals);
        },
        norms_.data());
    flops::add(4 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
    return sum_norms();
  }

  /// y = x + b*y, then y = decode(encode(y)).
  template <int W = simd::kWidth<float>>
  void xpay_roundtrip(const SpinorField<float>& x, double b,
                      SpinorField<float>& y) {
    FEMTO_TRACE_SCOPE("half", "xpay_roundtrip");
    assert(y.compatible(x));
    assert(y.l5() == l5_ && y.subset() == subset_);
    const float bb = static_cast<float>(b);
    const float* xd = x.data();
    roundtrip_pass<W>(
        y.data(),
        [&](std::size_t blk, float* vals) {
          blas::detail::xpay_chunk<W>(xd + blk * kSpinorReals, bb, vals, 0,
                                      kSpinorReals);
        },
        nullptr);
    flops::add(2 * y.reals());
    flops::add_bytes(blocks() *
                     (kRoundtripBytesPerBlock + kXReadBytesPerBlock));
  }

 private:
  // Quantises the block at @p in into scale_ and q_ and, with kBack,
  // writes the dequantised floats to @p out (which may alias @p in).
  template <int W, bool kBack>
  void quantise_block(std::int64_t block, const float* in, float* out) {
    float amax = 0.0f;
    int k = 0;
    if constexpr (W > 1) {
      simd::Vec<float, W> m;
      for (; k + W <= kSpinorReals; k += W) {
        const auto v = simd::Vec<float, W>::load(in + k);
        m = simd::max(m, simd::max(v, -v));
      }
      if (k < kSpinorReals) {
        // Zero tail lanes are harmless under max-abs.
        const auto v =
            simd::Vec<float, W>::load_partial(in + k, kSpinorReals - k);
        m = simd::max(m, simd::max(v, -v));
        k = kSpinorReals;
      }
      amax = simd::max_lanes(m);
    }
    for (; k < kSpinorReals; ++k) amax = std::max(amax, std::fabs(in[k]));
    const float scale = amax > 0.0f ? amax : 1.0f;
    scale_[static_cast<size_t>(block)] = scale;
    // A scale below 32767 / FLT_MAX (a block of values under ~1e-34, far
    // from a point source on a large lattice) overflows its inverse; such
    // a block stores zeros, which is what std::lrintf's int16 gives on
    // x86-64, so no bit moves.
    float inv = 32767.0f / scale;
    if (std::isinf(inv)) inv = 0.0f;
    const float s = scale / 32767.0f;
    std::int16_t* q = q_.data() + block * kSpinorReals;
    // r is an integer in [-32767, 32767] for finite input.  The max maps
    // a NaN to -32767 so the int16 conversion stays defined; the float
    // written back keeps the NaN.
    k = 0;
    if constexpr (W > 1) {
      const simd::Vec<float, W> iv(inv), sv(s), lo(-32767.0f);
      for (; k + W <= kSpinorReals; k += W) {
        const auto r = quantise(simd::Vec<float, W>::load(in + k), iv);
        // Through int32: x86 has a packed float -> int32 conversion but
        // converts float -> int16 one lane at a time.
        simd::convert<std::int16_t>(
            simd::convert<std::int32_t>(simd::max(r, lo)))
            .store(q + k);
        if constexpr (kBack) (r * sv).store(out + k);
      }
    }
    for (; k < kSpinorReals; ++k) {
      const float r = quantise(in[k], inv);
      q[k] = static_cast<std::int16_t>(r > -32767.0f ? r : -32767.0f);
      if constexpr (kBack) out[k] = r * s;
    }
  }

  // The one pass of every round-trip kernel, on the pool at
  // kBlocksPerChunk: per block of @p yd, @p update(b, vals) (the BLAS
  // step), the round trip and, when @p norms is set, norms[b] = the
  // block's ||.||^2.  Blocks are independent, so no chunking moves a bit.
  template <int W, typename Update>
  void roundtrip_pass(float* yd, const Update& update, double* norms) {
    par::parallel_for_chunked(
        0, static_cast<std::size_t>(blocks()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t b = lo; b < hi; ++b) {
            float* vals = yd + b * kSpinorReals;
            update(b, vals);
            quantise_block<W, true>(static_cast<std::int64_t>(b), vals,
                                    vals);
            if (norms != nullptr)
              norms[b] = blas::detail::norm2_chunk<W>(vals, 0, kSpinorReals);
          }
        },
        kBlocksPerChunk);
  }

  // The sum of norms_ over the tree of a parallel_reduce_n at kHalfGrain:
  // blocks in order within a partial, partials in order, so the result
  // is a function of the block count alone.
  double sum_norms() const {
    double n2 = 0.0;
    par::parallel_reduce_n(
        0, static_cast<std::size_t>(blocks()), 1,
        [&](std::size_t lo, std::size_t hi, double* acc) {
          double s = 0.0;
          for (std::size_t b = lo; b < hi; ++b) s += norms_[b];
          acc[0] = s;
        },
        &n2, kHalfGrain);
    return n2;
  }

  // Traffic charged per block for a one-pass quantise round-trip over the
  // float field: read + write the 24 floats, write the 24 int16 and the
  // float scale (the per-block norms stay cache resident, so they are
  // not charged).
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
  // One ||block||^2 per block, written by the norm kernels' pass and
  // summed by sum_norms().
  std::vector<double> norms_;
};

}  // namespace femto
