// Batched dslash correctness: dslash_multi must be BITWISE identical, per
// right-hand side, to B independent scalar dslash() calls — on every
// kernel variant, both parities, the dagger flag, and ragged batch sizes
// that do not divide the vector width.  This is the contract
// block_mixed_cg and the solve service build on: batching is a pure
// bandwidth optimisation, never a numerics change.

#include "dirac/wilson.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lattice/gauge.hpp"
#include "simd/vec.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom() {
  return std::make_shared<Geometry>(4, 4, 4, 8);
}

template <typename T>
void check_multi_matches_single(std::size_t nrhs, int l5, bool dagger,
                                DslashVariant v, std::size_t grain) {
  auto g = geom();
  GaugeField<double> ud(g);
  weak_gauge(ud, 131, 0.3);
  GaugeField<T> u = ud.template convert<T>();

  DslashTuning tune;
  tune.grain = grain;
  tune.variant = v;
  // The reference is always the scalar single-RHS kernel: comparing a
  // variant against itself would hide a bug both of its forms share.
  DslashTuning ref_tune = tune;
  ref_tune.variant = DslashVariant::kScalar;

  std::vector<SpinorField<T>> in, want, got;
  for (std::size_t r = 0; r < nrhs; ++r) {
    in.emplace_back(g, l5, Subset::Full);
    want.emplace_back(g, l5, Subset::Full);
    got.emplace_back(g, l5, Subset::Full);
    in.back().gaussian(700 + static_cast<std::uint64_t>(r));
  }

  for (int par = 0; par < 2; ++par) {
    for (std::size_t r = 0; r < nrhs; ++r)
      dslash<T>(parity_view(want[r], par), u, parity_view(in[r], 1 - par),
                par, dagger, ref_tune);
    std::vector<SpinorView<T>> outs;
    std::vector<SpinorView<const T>> ins;
    for (std::size_t r = 0; r < nrhs; ++r) {
      outs.push_back(parity_view(got[r], par));
      ins.push_back(parity_view(std::as_const(in[r]), 1 - par));
    }
    dslash_multi<T>(outs, u, ins, par, dagger, tune);
  }

  for (std::size_t r = 0; r < nrhs; ++r)
    for (std::int64_t k = 0; k < in[r].reals(); ++k)
      ASSERT_EQ(got[r].data()[k], want[r].data()[k])
          << to_string(v) << " nrhs=" << nrhs << " r=" << r << " l5=" << l5
          << " dagger=" << dagger << " k=" << k;
}

template <typename T>
std::vector<DslashVariant> variants() {
  std::vector<DslashVariant> vs = {DslashVariant::kScalar};
  if constexpr (simd::kWidth<T> > 1) {
    vs.push_back(DslashVariant::kVector);
    vs.push_back(DslashVariant::kVectorBlocked);
  }
  return vs;
}

TEST(WilsonMulti, MatchesSingleRhsBitwiseDouble) {
  // Ragged batches: 3 and 5 are not multiples of any lane width, so the
  // RHS-lane kernel exercises its partial-batch tail.
  for (std::size_t nrhs : {std::size_t{1}, std::size_t{3}, std::size_t{4}})
    for (bool dagger : {false, true})
      for (DslashVariant v : variants<double>())
        check_multi_matches_single<double>(nrhs, 2, dagger, v, 16);
}

TEST(WilsonMulti, MatchesSingleRhsBitwiseFloat) {
  for (std::size_t nrhs : {std::size_t{1}, std::size_t{5}, std::size_t{8}})
    for (bool dagger : {false, true})
      for (DslashVariant v : variants<float>())
        check_multi_matches_single<float>(nrhs, 2, dagger, v, 16);
}

TEST(WilsonMulti, RaggedBatchAndFifthDim) {
  // l5 = 3 leaves a ragged fifth-dim tail for the blocked variant while
  // nrhs = 2 and 6 leave ragged RHS-lane tails at float width 4.
  for (std::size_t nrhs : {std::size_t{2}, std::size_t{6}})
    for (DslashVariant v : variants<float>())
      check_multi_matches_single<float>(nrhs, 3, /*dagger=*/false, v, 64);
}

TEST(WilsonMulti, GrainDoesNotLeakIntoArithmetic) {
  for (std::size_t grain : {std::size_t{16}, std::size_t{128},
                            std::size_t{1024}})
    for (DslashVariant v : variants<double>())
      check_multi_matches_single<double>(4, 2, /*dagger=*/true, v, grain);
}

}  // namespace
}  // namespace femto
