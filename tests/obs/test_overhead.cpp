// Disabled-tracing overhead guard: a FEMTO_TRACE_SCOPE in a hot loop with
// tracing OFF costs one relaxed atomic load and a branch -- this test
// asserts the instrumented loop stays within noise of the bare loop, so a
// regression that sneaks a clock read or a lock into the disabled path
// fails CI.  (Enabled-mode overhead is characterised by bench/micro_obs
// against cg<double>'s per-iteration BLAS and gated by benchdiff, not
// unit-tested: wall clock bounds under CI load would flake.)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "obs/trace.hpp"

namespace femto::obs {
namespace {

// xorshift mixing: real enough work that the loop is not folded away,
// cheap enough (~ns/iter) that scope overhead would be visible.
inline std::uint64_t step(std::uint64_t s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

constexpr std::size_t kIters = 2'000'000;
constexpr int kRepeats = 5;

double bare_loop_seconds(std::uint64_t* sink) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kIters; ++i) s = step(s);
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, dt);
    *sink += s;
  }
  return best;
}

double scoped_loop_seconds(std::uint64_t* sink) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      FEMTO_TRACE_SCOPE("overhead", "hot_iter");
      s = step(s);
    }
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, dt);
    *sink += s;
  }
  return best;
}

TEST(TraceOverhead, DisabledScopeIsWithinNoiseOfBareLoop) {
  set_trace_enabled(false);
  std::uint64_t sink = 0;
  const double bare = bare_loop_seconds(&sink);
  const double scoped = scoped_loop_seconds(&sink);
  ASSERT_NE(sink, 0u);  // keep the loops alive
  // min-of-5 timings still wobble on shared CI machines; a disabled scope
  // regression (clock read, lock) costs >10x this allowance per iteration.
  const double per_iter_overhead_ns =
      (scoped - bare) / static_cast<double>(kIters) * 1e9;
  EXPECT_LT(per_iter_overhead_ns, 15.0)
      << "bare " << bare << " s, scoped " << scoped << " s";
  set_trace_enabled(true);
}

}  // namespace
}  // namespace femto::obs
