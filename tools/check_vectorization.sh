#!/usr/bin/env bash
# Proves the branchless probe kernels still auto-vectorize: compiles
# src/netsim/probe_kernel.cpp exactly as the build does (-O3; the
# CMakeLists per-source override exists because -O2's very-cheap cost
# model declines runtime-trip-count loops) and requires the compiler's
# own vectorization report to name at least MIN_LOOPS distinct
# vectorized loops. The file has five dense loops: the scan sweep's
# four per-tile loops (honest, aliased, and the two QUIC refinement
# passes) and the APD fan-out's 16-lane loop (fanout_lane_sweep).
# target_clones reports a loop once per clone, and the scan sweep's
# loops alone fill more reports than there are loops, so the count is
# of distinct loop locations (file:line:column), not of reports: a
# lane loop left scalar in every clone drops it to four.
#
# Usage: tools/check_vectorization.sh [c++-compiler]
# Exit: 0 when enough loops vectorize, 1 otherwise, 2 on tool error.
set -euo pipefail

cxx=${1:-${CXX:-g++}}
repo=$(cd "$(dirname "$0")/.." && pwd)
src="$repo/src/netsim/probe_kernel.cpp"
MIN_LOOPS=5

if ! command -v "$cxx" >/dev/null 2>&1; then
  echo "check_vectorization: compiler '$cxx' not found" >&2
  exit 2
fi

common=(-std=c++20 -O3 -I"$repo/src" -c -o /dev/null "$src")
if "$cxx" --version 2>/dev/null | grep -qi clang; then
  # Clang prints: "remark: vectorized loop (vectorization width: N ...)"
  report=$("$cxx" "${common[@]}" -Rpass=loop-vectorize 2>&1 || true)
  pattern='remark: vectorized loop'
else
  # GCC prints: "optimized: loop vectorized using NN byte vectors"
  report=$("$cxx" "${common[@]}" -fopt-info-vec-optimized 2>&1 || true)
  pattern='loop vectorized'
fi

reports=$(printf '%s\n' "$report" | grep -c "$pattern" || true)
count=$(printf '%s\n' "$report" | grep "$pattern" |
        grep -oE '^[^ ]+:[0-9]+:[0-9]+:' | sort -u | wc -l)
echo "check_vectorization: $count vectorized loop(s) in $reports report(s) from $cxx"
if [ "$count" -lt "$MIN_LOOPS" ]; then
  echo "check_vectorization: expected at least $MIN_LOOPS vectorized loops" \
       "in probe_kernel.cpp — a kernel has fallen back to scalar code" >&2
  printf '%s\n' "$report" | tail -40 >&2
  exit 1
fi
