#!/usr/bin/env bash
# Benchmark the batched multi-RHS dslash and emit BENCH_multirhs.json.
#
# Runs bench/micro_multirhs: for each batch size B in {1, 2, 4, 8, 16} the
# best dslash_multi configuration (variant x grain) vs B independent
# dslash() calls (the B = 1 row: dslash() is the batch of one), reporting
# seconds per RHS, GFLOP/s, effective GB/s, the charged bytes/site
# amortisation curve, and the speedup vs B = 1.  The JSON lands in the
# repo root so successive PRs can track the trajectory.
#
# The gate is the batching claim: on a SIMD build the float l5 = 1 study
# (where a single RHS fills one lane and a batch fills all of them, on top
# of link amortisation) must reach >= 1.3x the B = 1 path at some B >= 4.  A
# FEMTO_SIMD=OFF build reports width 1 and the gate is skipped: without
# lanes, batching only amortises link loads, which a compute-bound machine
# does not reward with 1.3x.
#
# Usage: scripts/bench_multirhs.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MICRO="${BUILD_DIR}/bench/micro_multirhs"

if [[ ! -x "$MICRO" ]]; then
  echo "bench_multirhs: $MICRO not built (cmake --build $BUILD_DIR --target micro_multirhs)" >&2
  exit 1
fi

# micro_multirhs writes BENCH_multirhs.json into the current directory.
"$MICRO"

python3 - <<'EOF'
import json

with open("BENCH_multirhs.json") as f:
    bench = json.load(f)

if bench["width_float"] <= 1:
    print("bench_multirhs: scalar build (width 1), speedup gate skipped")
    raise SystemExit(0)

headline = next(
    s for s in bench["studies"]
    if s["precision"] == "float" and s["l5"] == 1)
curve = {r["b"]: r["speedup"] for r in headline["rows"]}
print("bench_multirhs: float l5=1 amortisation curve "
      + ", ".join(f"B={b} x{s:.2f}" for b, s in sorted(curve.items())))
best = max(s for b, s in curve.items() if b >= 4)
if best < 1.3:
    raise SystemExit(
        f"bench_multirhs: batched dslash best speedup x{best:.2f} at "
        f"B >= 4 is below the 1.3x gate")
print(f"bench_multirhs: gate passed (x{best:.2f} >= 1.3 at B >= 4)")
EOF
