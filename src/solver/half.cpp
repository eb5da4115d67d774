#include "solver/half.hpp"

#include "lattice/flops.hpp"

namespace femto {

void HalfSpinorField::encode(const SpinorField<float>& src) {
  assert(src.l5() == l5_ && src.subset() == subset_);
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(blocks()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b)
          quantise_block<simd::kWidth<float>, false>(
              static_cast<std::int64_t>(b), src.data() + b * kSpinorReals,
              nullptr);
      },
      kBlocksPerChunk);
  flops::add_bytes(blocks() *
                   static_cast<std::int64_t>(
                       kSpinorReals * (sizeof(float) + sizeof(std::int16_t)) +
                       sizeof(float)));
}

void HalfSpinorField::decode(SpinorField<float>& dst) const {
  assert(dst.l5() == l5_ && dst.subset() == subset_);
  par::parallel_for_chunked(
      0, static_cast<std::size_t>(blocks()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b)
          decode_block(static_cast<std::int64_t>(b),
                       dst.data() + b * kSpinorReals);
      },
      kBlocksPerChunk);
  flops::add_bytes(blocks() *
                   static_cast<std::int64_t>(
                       kSpinorReals * (sizeof(float) + sizeof(std::int16_t)) +
                       sizeof(float)));
}

}  // namespace femto
