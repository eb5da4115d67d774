// Thread-count sweep stress test for the deterministic reductions.
//
// The fused BLAS kernels (lattice/blas.hpp) lean on a strong promise from
// parallel_reduce_n: repeated runs produce bitwise-identical results FOR
// ANY WORKER COUNT, because the chunk decomposition is a pure function of
// the range (never of the pool size), chunks are disjoint, each chunk is
// visited by exactly one worker, and the per-chunk partials are combined
// in chunk order regardless of which worker finished first.  A scheduling
// race (chunk visited twice, partial combined out of order, worker count
// leaking into chunk boundaries) shows up here as a bit flip long before
// it is visible in solver residuals.

#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/vec.hpp"

namespace femto::par {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Deterministic pseudo-random fill (no std::rand: order-independent).
std::vector<double> test_data(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    // Mixed magnitudes so the summation order actually matters: any
    // combination-order wobble changes the rounded result.
    v[i] = (static_cast<double>(s % 2000001) - 1000000.0) *
           std::pow(10.0, static_cast<int>(s % 7) - 3);
  }
  return v;
}

const std::size_t kSweep[] = {1, 2, 7, 0};  // 0 = default_thread_count()

constexpr std::size_t kN = 10007;  // prime: uneven chunk boundaries
constexpr int kRepeats = 5;

TEST(ReduceSweep, ParallelReduceBitwiseStableAcrossThreadCounts) {
  const std::vector<double> x = test_data(kN, 42);
  std::uint64_t first = 0;
  bool have_first = false;
  for (std::size_t nt : kSweep) {
    ThreadPool pool(nt);
    for (int rep = 0; rep < kRepeats; ++rep) {
      double sum = 0.0;
      pool.parallel_reduce_n(
          0, kN, 1,
          [&](std::size_t lo, std::size_t hi, double* acc) {
            for (std::size_t i = lo; i < hi; ++i) acc[0] += x[i] * x[i];
          },
          &sum, 1);
      if (!have_first) {
        first = bits(sum);
        have_first = true;
      } else {
        EXPECT_EQ(bits(sum), first)
            << "threads=" << pool.size() << " rep=" << rep;
      }
    }
  }
}

TEST(ReduceSweep, MutatingReduceNBitwiseStableAcrossThreadCounts) {
  // The fused-kernel shape: the body updates the data it walks (y += a*x)
  // while accumulating two reduction components, exactly like the fused
  // axpy_norm2 / axpy_norm2_multi kernels in lattice/blas.hpp.
  const std::vector<double> x = test_data(kN, 3);
  const std::vector<double> y0 = test_data(kN, 5);
  std::vector<std::uint64_t> first_out;
  std::vector<std::uint64_t> first_y;
  for (std::size_t nt : kSweep) {
    ThreadPool pool(nt);
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::vector<double> y = y0;  // fresh copy: the kernel mutates it
      double out[2] = {0.0, 0.0};
      pool.parallel_reduce_n(
          0, kN, 2,
          [&](std::size_t lo, std::size_t hi, double* partial) {
            for (std::size_t i = lo; i < hi; ++i) {
              y[i] += 0.625 * x[i];
              partial[0] += y[i] * y[i];
              partial[1] += y[i] * x[i];
            }
          },
          out, 1);
      if (first_out.empty()) {
        first_out = {bits(out[0]), bits(out[1])};
        first_y.reserve(kN);
        for (double v : y) first_y.push_back(bits(v));
      } else {
        EXPECT_EQ(bits(out[0]), first_out[0])
            << "threads=" << pool.size() << " rep=" << rep;
        EXPECT_EQ(bits(out[1]), first_out[1])
            << "threads=" << pool.size() << " rep=" << rep;
        // The mutated field must be bitwise stable too, not just the sums.
        for (std::size_t i = 0; i < kN; ++i)
          ASSERT_EQ(bits(y[i]), first_y[i])
              << "threads=" << pool.size() << " rep=" << rep << " i=" << i;
      }
    }
  }
}

TEST(ReduceSweep, LaneStripedChunkBodyBitwiseStableAcrossThreadCounts) {
  // The vectorized norm2_chunk shape from lattice/blas.hpp: a W-lane
  // accumulator combined with sum_ordered() plus a scalar tail.  The
  // determinism promise must survive the lanes: for a fixed width,
  // repeats are bitwise identical whatever the pool size.
  constexpr int W = 4;
  const std::vector<double> x = test_data(kN, 21);
  std::uint64_t first = 0;
  bool have_first = false;
  for (std::size_t nt : kSweep) {
    ThreadPool pool(nt);
    for (int rep = 0; rep < kRepeats; ++rep) {
      double sum = 0.0;
      pool.parallel_reduce_n(
          0, kN, 1,
          [&](std::size_t lo, std::size_t hi, double* partial) {
            simd::Vec<double, W> acc;
            std::size_t i = lo;
            for (; i + W <= hi; i += W) {
              const auto v = simd::Vec<double, W>::load(x.data() + i);
              acc += v * v;
            }
            double s = simd::sum_ordered(acc);
            for (; i < hi; ++i) s += x[i] * x[i];
            partial[0] = s;
          },
          &sum, 1);
      if (!have_first) {
        first = bits(sum);
        have_first = true;
      } else {
        EXPECT_EQ(bits(sum), first)
            << "threads=" << pool.size() << " rep=" << rep;
      }
    }
  }
}

TEST(ReduceSweep, ReduceNMatchesSerialSumUpToRounding) {
  // The chunked sum is not the serial sum (64 partials vs. one running
  // accumulator), but every pool size must agree with it to rounding.
  const std::vector<double> x = test_data(kN, 13);
  long double serial = 0.0L;
  for (double v : x) serial += static_cast<long double>(v) * v;
  for (std::size_t nt : kSweep) {
    ThreadPool pool(nt);
    double out[1] = {0.0};
    pool.parallel_reduce_n(
        0, kN, 1,
        [&](std::size_t lo, std::size_t hi, double* partial) {
          for (std::size_t i = lo; i < hi; ++i) partial[0] += x[i] * x[i];
        },
        out, 1);
    EXPECT_NEAR(out[0] / static_cast<double>(serial), 1.0, 1e-12)
        << "threads=" << pool.size();
  }
}

}  // namespace
}  // namespace femto::par
