// Cross-thread-count golden determinism (DESIGN.md §8): the same solve
// must produce the same bits however many pool workers run it.  The
// worker count is fixed at global-pool construction, so each count needs
// a fresh process: this test re-execs the golden_probe binary (see
// golden_probe.cpp) under FEMTO_THREADS=1/2/7 and under the inherited
// default, and requires the four outputs to match verbatim -- solution
// checksum, iteration count, convergence flag, the checksums of the
// nucleon 2pt, FH 3pt and pion correlators, and the checksums of a tiny
// run_workflow's C2 and g_eff.
//
// Everything on the solve path is covered at once: counter-based RNG
// fills, the dslash stencils, the fused BLAS reductions (thread-count-
// independent chunk decomposition), half-precision compression, and the
// reliable-update control flow that consumes the reduced residuals.  The
// contractions' site sums go through the same fixed-order reduction, and
// the workflow line adds gauge generation and the propagator file round
// trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#ifndef GOLDEN_PROBE_PATH
#error "build must define GOLDEN_PROBE_PATH"
#endif

namespace {

// Runs `env_prefix golden_probe`, capturing stdout; "" on failure.
std::string run_probe(const std::string& env_prefix) {
  const std::string cmd = env_prefix + " " + GOLDEN_PROBE_PATH + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  std::string out;
  char buf[256];
  while (fgets(buf, sizeof buf, p) != nullptr) out += buf;
  const int rc = pclose(p);
  if (rc != 0) return "";
  return out;
}

TEST(GoldenDeterminism, SolveBitsIdenticalAcrossThreadCounts) {
  const std::string ref = run_probe("FEMTO_THREADS=1");
  ASSERT_NE(ref.find("fnv="), std::string::npos) << "probe output: " << ref;
  ASSERT_NE(ref.find("converged=1"), std::string::npos)
      << "probe output: " << ref;
  ASSERT_NE(ref.find("wf_converged=1"), std::string::npos)
      << "probe output: " << ref;

  EXPECT_EQ(run_probe("FEMTO_THREADS=2"), ref);
  EXPECT_EQ(run_probe("FEMTO_THREADS=7"), ref);
  // Inherited environment: hardware-concurrency default (or whatever
  // FEMTO_THREADS the invoking shell exported).
  EXPECT_EQ(run_probe("env"), ref);
}

}  // namespace
