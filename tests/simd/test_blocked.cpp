// Lane-blocked pack/unpack tests: the blocked dslash variant is only
// correct if the transpose of a batch into [lane_block][site][real][lane]
// over the lane axis l = s*B + r, and back, is lossless for every
// (l5, B, W) combination, including tails where W does not divide l5*B.

#include "lattice/blocked_spinor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lattice/field.hpp"
#include "simd/aligned.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

std::vector<SpinorField<double>> batch(int l5, int nrhs, std::uint64_t seed) {
  std::vector<SpinorField<double>> fs;
  for (int r = 0; r < nrhs; ++r) {
    fs.emplace_back(geom(), l5, Subset::Even);
    fs.back().gaussian(seed + static_cast<std::uint64_t>(r));
  }
  return fs;
}

template <int W>
void roundtrip_case(int l5, int nrhs = 1) {
  const auto f = batch(l5, nrhs, 1234 + static_cast<std::uint64_t>(l5));
  std::vector<SpinorField<double>> out;
  std::vector<SpinorView<const double>> ins;
  std::vector<SpinorView<double>> outs;
  for (int r = 0; r < nrhs; ++r) out.emplace_back(geom(), l5, Subset::Even);
  for (int r = 0; r < nrhs; ++r) {
    ins.push_back(cview(f[std::size_t(r)]));
    outs.push_back(view(out[std::size_t(r)]));
  }

  BlockedMultiSpinor<double, W> blocked(f[0].sites(), l5, nrhs);
  EXPECT_EQ(blocked.blocks(), (l5 * nrhs + W - 1) / W);
  blocked.pack(ins, 16);
  blocked.unpack(outs, 16);

  for (int r = 0; r < nrhs; ++r)
    for (std::int64_t k = 0; k < f[0].reals(); ++k)
      ASSERT_EQ(out[std::size_t(r)].data()[k], f[std::size_t(r)].data()[k])
          << "W=" << W << " l5=" << l5 << " B=" << nrhs << " r=" << r
          << " k=" << k;
}

TEST(BlockedSpinor, RoundTripExactAcrossWidthsAndTails) {
  roundtrip_case<1>(3);
  roundtrip_case<2>(4);   // even split
  roundtrip_case<2>(5);   // one tail lane
  roundtrip_case<4>(8);   // even split
  roundtrip_case<4>(6);   // half-full tail block
  roundtrip_case<8>(3);   // single mostly-tail block
  roundtrip_case<4>(2, 4);  // W divides B: one slice per block
  roundtrip_case<4>(3, 3);  // blocks straddle slices
  roundtrip_case<2>(5, 3);  // odd lane count, one tail lane
}

TEST(BlockedSpinor, TailLanesStayZero) {
  // Lane j >= (l5*B) % W of the last block must be zero, at B = 1 and in
  // a batch: the blocked kernel computes on them and relies on 0 * x == 0
  // staying out of real lanes.
  constexpr int W = 4;
  for (const auto& [l5, nrhs] : {std::pair{3, 1}, std::pair{2, 3}}) {
    const auto f = batch(l5, nrhs, 77);
    std::vector<SpinorView<const double>> ins;
    for (const auto& x : f) ins.push_back(cview(x));
    BlockedMultiSpinor<double, W> blocked(f[0].sites(), l5, nrhs);
    blocked.pack(ins, 64);
    for (std::int64_t i = 0; i < f[0].sites(); ++i) {
      const double* q = blocked.block(blocked.blocks() - 1, i);
      for (int k = 0; k < kSpinorReals; ++k)
        for (int j = (l5 * nrhs) % W; j < W; ++j)
          ASSERT_EQ(q[k * W + j], 0.0)
              << "B=" << nrhs << " i=" << i << " k=" << k << " j=" << j;
    }
  }
}

TEST(BlockedSpinor, LaneAxisIsSliceMajorRhsMinor) {
  // l = s*B + r: at B = 1, lane j of block b holds slice b*W + j (the
  // fifth-dim vectorization); when W divides B, block b = s*(B/W) + rb
  // holds slice s of RHS rb*W + j (the RHS vectorization).
  constexpr int W = 4;
  // True when lane j of (block b, site i) holds the spinor at @p src.
  const auto lane_holds = [](const BlockedMultiSpinor<double, W>& blk, int b,
                             std::int64_t i, int j, const double* src) {
    for (int k = 0; k < kSpinorReals; ++k)
      if (blk.block(b, i)[k * W + j] != src[k]) return false;
    return true;
  };
  {
    const int l5 = 8;
    const auto f = batch(l5, 1, 5);
    const std::vector<SpinorView<const double>> ins = {cview(f[0])};
    BlockedMultiSpinor<double, W> blk(f[0].sites(), l5, 1);
    blk.pack(ins, 16);
    for (int b = 0; b < blk.blocks(); ++b)
      for (std::int64_t i = 0; i < f[0].sites(); ++i)
        for (int j = 0; j < W; ++j)
          ASSERT_TRUE(lane_holds(blk, b, i, j,
                                 f[0].data() + ins[0].offset(b * W + j, i)))
              << "b=" << b << " i=" << i << " j=" << j;
  }
  {
    const int l5 = 3, nrhs = 8;
    const auto f = batch(l5, nrhs, 9);
    std::vector<SpinorView<const double>> ins;
    for (const auto& x : f) ins.push_back(cview(x));
    BlockedMultiSpinor<double, W> blk(f[0].sites(), l5, nrhs);
    blk.pack(ins, 16);
    for (int s = 0; s < l5; ++s)
      for (int rb = 0; rb < nrhs / W; ++rb)
        for (std::int64_t i = 0; i < f[0].sites(); ++i)
          for (int j = 0; j < W; ++j) {
            const auto r = static_cast<std::size_t>(rb * W + j);
            ASSERT_TRUE(lane_holds(blk, s * (nrhs / W) + rb, i, j,
                                   f[r].data() + ins[r].offset(s, i)))
                << "s=" << s << " rb=" << rb << " i=" << i << " j=" << j;
          }
  }
}

TEST(BlockedSpinor, BlockPointersAreCacheAligned) {
  // The whole point of the blocked layout: every (block, site) record
  // starts a run of kSpinorReals contiguous W-lane vectors, and the
  // backing store is 64-byte aligned so those vectors never straddle a
  // cache line when W*sizeof(T) divides 64.
  BlockedMultiSpinor<float, 4> blocked(32, 8, 1);
  const auto base = reinterpret_cast<std::uintptr_t>(blocked.block(0, 0));
  EXPECT_EQ(base % simd::kAlignment, 0u);
  EXPECT_EQ(blocked.block(0, 1) - blocked.block(0, 0), kSpinorReals * 4);
  EXPECT_EQ(blocked.bytes(),
            static_cast<std::int64_t>(2 * 32 * kSpinorReals * 4 *
                                      sizeof(float)));
}

}  // namespace
}  // namespace femto
