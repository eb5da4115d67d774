#!/usr/bin/env bash
# ThreadSanitizer check of the mutating fused reduction kernels.
#
# The fused BLAS layer (lattice/blas.hpp) and the half-precision round-trips
# (solver/half.hpp) mutate field data from inside parallel launches; their
# race-freedom rests on the thread pool handing each chunk to exactly one
# worker.  On a 4^4 lattice the dslash, its pack/unpack, the fifth-dim
# matvecs and the half round-trips (with their per-block norms) also run
# their chunks on pool workers, with the blocked dslash's scratch shared by
# them.  The nucleon contractions run their per-site diquark blocks, W
# sites per step, in scratch on each chunk's stack and sum timeslices
# through parallel_reduce_n; the cross-width test runs them at every
# width the kernel is built for.  File::save and File::load compute
# their per-dataset CRC-32s in one launch over the datasets.  This script
# builds the parallel, lattice, dirac, solver, core and fio test targets
# with -fsanitize=thread and runs the tests that drive those kernels, the
# 4^4, 4^3x8 and multi-dataset ones at FEMTO_THREADS=4 so that two
# threads do run them.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DFEMTO_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target test_parallel test_lattice test_dirac \
  test_solver test_core test_fio

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# Everything in the thread pool, then the kernel suites that exercise the
# fused (mutating) reductions.  Filters keep the tsan run (10-20x slowdown)
# to the relevant tests.
"$BUILD_DIR/tests/test_parallel"
"$BUILD_DIR/tests/test_lattice" --gtest_filter='Blas*.*'
FEMTO_THREADS=4 "$BUILD_DIR/tests/test_dirac" \
  --gtest_filter='WilsonMulti.*:WilsonSimd.*:Mobius.BatchedMatchesBatchOfOne*:FifthDim*'
"$BUILD_DIR/tests/test_solver" --gtest_filter='Cg.*'
FEMTO_THREADS=4 "$BUILD_DIR/tests/test_solver" \
  --gtest_filter='HalfStorage.*:HalfSimd.*:*MixedCg*'
FEMTO_THREADS=4 "$BUILD_DIR/tests/test_core" \
  --gtest_filter='ContractionReference.*:ContractionWidths.*'
FEMTO_THREADS=4 "$BUILD_DIR/tests/test_fio" \
  --gtest_filter='Crc32.*:FioFile.*:PropagatorIo.*'

echo "tsan check passed"
