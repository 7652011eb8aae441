#!/bin/sh
# One-command sanitizer gate: builds the AddressSanitizer+UBSan tree
# (build-asan) and the ThreadSanitizer tree (build-tsan), then runs the ctest
# label list each configuration exists for (see the UDSIM_ASAN / UDSIM_TSAN
# options in CMakeLists.txt). Exits non-zero on the first failed build or
# test run.
#
#   scripts/sanitize.sh            # both configurations
#   scripts/sanitize.sh tsan       # one of: asan, tsan
#   JOBS=2 scripts/sanitize.sh     # parallel build/test jobs (default: nproc)
set -eu
cd "$(dirname "$0")/.."
jobs=${JOBS:-$(nproc 2>/dev/null || echo 2)}

run() {  # <asan|tsan> <cmake option> <ctest label regex>
  echo "== $1: $3"
  start=$(date +%s)
  # The report label includes the bench_report smoke tests, so ASan keeps
  # the bench harnesses; TSan's labels need only the test binaries.
  bench=OFF
  [ "$1" = asan ] && bench=ON
  cmake -B "build-$1" -S . -D"$2"=ON -DUDSIM_BUILD_BENCH=$bench \
        -DUDSIM_BUILD_EXAMPLES=OFF >/dev/null
  if ! cmake --build "build-$1" -j "$jobs" >"build-$1/build.log" 2>&1; then
    tail -n 40 "build-$1/build.log"
    exit 1
  fi
  ctest --test-dir "build-$1" -L "$3" -j "$jobs" --output-on-failure
  echo "== $1: passed in $(($(date +%s) - start)) s"
}

for config in ${*:-asan tsan}; do
  case "$config" in
    asan) run asan UDSIM_ASAN 'ir|robustness|resilience|report|native|service|simd|telemetry|scale' ;;
    tsan) run tsan UDSIM_TSAN 'threads|resilience|native|service|simd|telemetry|scale' ;;
    *) echo "unknown configuration '$config' (asan, tsan)" >&2; exit 2 ;;
  esac
done
