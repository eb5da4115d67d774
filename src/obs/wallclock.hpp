#pragma once
// The ONE audited wall-clock chokepoint for telemetry timing.
//
// The bitwise-reproducibility contract (DESIGN.md §8) says a replayed run
// must produce identical numbers, so clock reads may never sit on a path
// that feeds numerics.  femtolint's nondet-in-kernel pass enforces that
// statically: any raw std::chrono::*::now() reachable from a
// kernel-launching call chain is a finding.  Timing that kernels
// legitimately need — solver wall time, autotune candidate timing, service
// busy-seconds — therefore flows through wall_seconds()/Stopwatch, whose
// single FEMTO_NONDET_OK blessing is the whole tree's audit trail for
// "values are observational only".
//
// Stopwatch is duration-only by design: it never exposes the underlying
// time_point, so a caller cannot accidentally turn telemetry into a key,
// a seed, or an iteration bound without writing a fresh now() (which the
// linter then catches).

#include <chrono>

#include "core/check.hpp"

namespace femto::obs {

/// Monotonic wall-clock seconds (steady_clock; arbitrary epoch).  Only
/// meaningful as a difference between two reads.
inline double wall_seconds() {
  FEMTO_NONDET_OK(
      "telemetry-only wall clock: differences feed SolveResult.seconds, "
      "autotune candidate timing, and femtoscope metrics -- never numerics, "
      "keys, or control flow of a kernel");
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Elapsed-seconds timer over wall_seconds().  Starts at construction.
class Stopwatch {
 public:
  /// Seconds since construction or the last restart().
  double seconds() const { return wall_seconds() - t0_; }
  void restart() { t0_ = wall_seconds(); }

 private:
  double t0_ = wall_seconds();
};

}  // namespace femto::obs
