#!/usr/bin/env bash
# Run the BENCH-emitting harness end to end and judge the results against
# the committed baseline (the BENCH regression sentinel).
#
#   1. micro_obs             -> BENCH_obs.json   (tracer overhead)
#   2. scripts/bench_lint.sh -> BENCH_lint.json  (lint scan cost)
#   3. with FEMTO_BENCH_FULL=1, the slow kernel benches too:
#      micro_simd     -> BENCH_simd.json
#      micro_multirhs -> BENCH_multirhs.json
#      micro_compress -> BENCH_compress.json (at FEMTO_THREADS=1)
#      micro_blas     -> BENCH_blas.json     (info rows only)
#      micro_fio      -> BENCH_fio.json      (CRC-32 kernel vs reference)
#      micro_contract -> BENCH_contract.json (at FEMTO_THREADS=1; nucleon
#                        contractions, native width vs W = 1)
#   4. tools/benchdiff --baseline bench/baseline.json <produced files>
#
# Each bench computes its claims as `<claim>_gate_ok` rows next to named
# thresholds in its source, and benchdiff is their only judge.  It judges
# only metrics of the files produced, so the quick run never fails on the
# skipped kernel benches.
#
# After an accepted change, refresh the accepted values with
#   build/tools/benchdiff/benchdiff --baseline bench/baseline.json \
#     --write-baseline BENCH_obs.json BENCH_lint.json
# and commit the baseline.  Rows of files not named and all annotations
# survive; benchdiff writes nothing while a gated row regresses.
#
# Usage: scripts/bench_all.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCHDIFF="${BUILD_DIR}/tools/benchdiff/benchdiff"
BASELINE="bench/baseline.json"

if [[ ! -x "$BENCHDIFF" ]]; then
  echo "bench_all: $BENCHDIFF not built (cmake --build $BUILD_DIR --target benchdiff)" >&2
  exit 1
fi

produced=()

# run_micro NAME [VAR=value ...]: runs build/bench/micro_NAME in the
# given environment; it writes BENCH_NAME.json into the cwd.
run_micro() {
  local name="$1"
  shift
  local bin="${BUILD_DIR}/bench/micro_${name}"
  if [[ ! -x "$bin" ]]; then
    echo "bench_all: $bin not built (cmake --build $BUILD_DIR --target micro_${name})" >&2
    exit 1
  fi
  echo "=== micro_${name} ==="
  env "$@" "$bin"
  produced+=("BENCH_${name}.json")
}

run_micro obs

echo "=== bench_lint ==="
scripts/bench_lint.sh
produced+=(BENCH_lint.json)

if [[ "${FEMTO_BENCH_FULL:-0}" == "1" ]]; then
  run_micro simd
  run_micro multirhs
  # The link stream is single-threaded: idle pool workers only add spread.
  run_micro compress FEMTO_THREADS=1
  run_micro blas
  run_micro fio
  # The width claim is per core: one thread keeps the pool out of it.
  run_micro contract FEMTO_THREADS=1
else
  echo "bench_all: FEMTO_BENCH_FULL!=1, skipping simd/multirhs/compress/blas/fio/contract kernels"
fi

echo "=== benchdiff sentinel ==="
"$BENCHDIFF" --baseline "$BASELINE" "${produced[@]}"
echo "bench_all: OK"
