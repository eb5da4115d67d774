#!/usr/bin/env bash
# The tier-2 pre-PR gate: every static and dynamic check in one command.
#
#   stage 1  lint    femtolint over src/ + the negative fixtures
#   stage 2  asan    full tier-1 suite under AddressSanitizer
#   stage 3  ubsan   full tier-1 suite under UndefinedBehaviorSanitizer
#   stage 4  tsan    fused-reduction kernel suites under ThreadSanitizer
#
# Each stage runs even if an earlier one failed, so one invocation reports
# the whole picture; the per-stage summary at the end names what to fix.
# Expect a long wall-clock on small machines -- four sanitizer builds of
# the full tree.  See DESIGN.md §8 and the pre-PR checklist in README.md.
#
# Usage: scripts/check_all.sh

set -uo pipefail
cd "$(dirname "$0")/.."

declare -A result

run_stage() {
  local name="$1"
  shift
  echo
  echo "=============================================================="
  echo "=== stage: $name"
  echo "=============================================================="
  if "$@"; then
    result[$name]=PASS
  else
    result[$name]=FAIL
  fi
}

lint_stage() {
  # Build just the lint tool in the default tree and run the commands of
  # both lint ctests (femtolint_src, femtolint_fixtures) verbatim.
  cmake -B build -S . && cmake --build build -j --target femtolint || return 1
  local bin
  bin=$(find build -name femtolint -type f | head -1)
  "$bin" src && "$bin" --self-test tests/lint
}

run_stage lint lint_stage
run_stage asan scripts/check_sanitizers.sh asan
run_stage ubsan scripts/check_sanitizers.sh ubsan
run_stage tsan scripts/check_tsan.sh

echo
echo "=============================== summary ======================"
rc=0
for stage in lint asan ubsan tsan; do
  printf "  %-6s %s\n" "$stage" "${result[$stage]:-SKIPPED}"
  [[ "${result[$stage]:-FAIL}" == "PASS" ]] || rc=1
done
echo "=============================================================="
if [[ $rc -eq 0 ]]; then
  echo "check_all: all stages passed"
else
  echo "check_all: FAILURES above" >&2
fi
exit $rc
