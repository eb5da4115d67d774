#!/usr/bin/env bash
# Benchmark the gauge storage tiers and emit BENCH_compress.json.
#
# Runs bench/micro_compress: a DRAM-resident float link stream per format
# (full18 / recon12) plus the info-only end-to-end float dslash per format
# (min-of-reps wall clock, the autotuner's convention).  The JSON lands in
# the repo root so successive PRs can track the trajectory.
#
# The gate is the compression claim on the bandwidth-bound study: recon12
# must beat full18 per-site throughput by the margin micro_compress
# records as recon12_gate_ok (>= 1.2x; the threshold and the noise it was
# set against live next to kRecon12Gate in bench/micro_compress.cpp).  The
# stream loop is single-threaded, so FEMTO_THREADS is pinned to 1: idle
# pool workers only add spread.  A FEMTO_SIMD=OFF build reports width 1
# and the gate is skipped -- a scalar build's reference stream is not
# bandwidth-bound, so the ratio says nothing about storage tiers.  The
# dslash rows are never gated: whether reconstruction arithmetic pays for
# itself end to end is machine-dependent, which is why the format is an
# autotuned axis.
#
# Usage: scripts/bench_compress.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MICRO_COMPRESS="${BUILD_DIR}/bench/micro_compress"

if [[ ! -x "$MICRO_COMPRESS" ]]; then
  echo "bench_compress: $MICRO_COMPRESS not built (cmake --build $BUILD_DIR --target micro_compress)" >&2
  exit 1
fi

# micro_compress writes BENCH_compress.json into the current directory.
FEMTO_THREADS=1 "$MICRO_COMPRESS"

python3 - <<'EOF'
import json

with open("BENCH_compress.json") as f:
    bench = json.load(f)

if bench["width_float"] <= 1:
    print("bench_compress: scalar build (width 1), storage-tier gate skipped")
    raise SystemExit(0)

stream = bench["stream"]
line = ", ".join(
    f"{name} x{row['speedup']:.2f} ({row['gbps']:.2f} GB/s)"
    for name, row in stream.items())
print(f"bench_compress: stream {line}")

if not bench["recon12_gate_ok"]:
    raise SystemExit(
        f"bench_compress: recon12 stream speedup "
        f"x{stream['recon12']['speedup']:.2f} below the gate")
EOF
