#!/usr/bin/env bash
# Tier-1 check: configure, build, and run the full ctest suite.
#
# Usage:
#   tools/run_tier1.sh                        # plain RelWithDebInfo in build/
#   tools/run_tier1.sh --sanitize             # ASan+UBSan in build-san/
#   tools/run_tier1.sh --sanitize thread      # TSan in build-tsan/
#   tools/run_tier1.sh --sanitize thread --filter 'thread|sweep'
#                                             # TSan, threaded tests only
#   tools/run_tier1.sh --perf                 # Release bench_micro + perf gate
#   tools/run_tier1.sh --analyze              # static-analysis tier only
#
# --filter RE restricts ctest to tests matching RE (ctest -R). Sanitizer
# builds also enable PLANET_THREAD_CHECKS (runtime single-owner assertions).
# --perf skips the test suite: it builds bench_micro in Release
# (build-perf/), runs it, and gates the result against the committed
# BENCH_micro.json baseline (tools/perf/check_perf_regression.py; see
# docs/PERFORMANCE.md). --analyze skips the build entirely: it runs
# planet_analyze over the source tree (no compiler needed) and leaves
# findings.json in build-analyze/ for triage.
# Exits non-zero if configuration, compilation, or any test/gate fails.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
SANITIZE=""
FILTER=""
PERF=0
ANALYZE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --analyze)
      ANALYZE=1
      ;;
    --sanitize)
      SANITIZE="address,undefined"
      if [[ $# -gt 1 && "$2" != --* ]]; then
        SANITIZE="$2"
        shift
      fi
      ;;
    --filter)
      FILTER="$2"
      shift
      ;;
    --perf)
      PERF=1
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ "$ANALYZE" == 1 ]]; then
  # Static-analysis tier: the line-local rules and the whole-tree passes.
  # findings.json lands in build-analyze/ whether or not the gate passes,
  # so CI can upload it.
  mkdir -p build-analyze
  exec python3 tools/analyze/planet_analyze --json build-analyze/findings.json
fi

if [[ "$PERF" == 1 ]]; then
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perf -j "$(nproc)" --target bench_micro
  build-perf/bench/bench_micro --reps 5 --json build-perf/BENCH_micro.json
  exec python3 tools/perf/check_perf_regression.py \
      BENCH_micro.json build-perf/BENCH_micro.json
fi

if [[ -n "$SANITIZE" ]]; then
  # One build tree per sanitizer family so switching specs never links
  # against stale instrumented objects.
  if [[ "$SANITIZE" == "thread" ]]; then
    BUILD_DIR=build-tsan
  else
    BUILD_DIR=build-san
  fi
fi

CMAKE_ARGS=(-B "$BUILD_DIR" -S .)
if [[ -n "$SANITIZE" ]]; then
  CMAKE_ARGS+=("-DPLANET_SANITIZE=$SANITIZE")
fi

CTEST_ARGS=(--output-on-failure -j "$(nproc)")
if [[ -n "$FILTER" ]]; then
  CTEST_ARGS+=(-R "$FILTER")
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" "${CTEST_ARGS[@]}"
