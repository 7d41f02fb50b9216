#!/usr/bin/env bash
# The ASan + UBSan leg: the configure, build and run steps of CI's sanitize
# job, runnable locally with one command.
#
#   tools/ci/sanitize.sh BUILD_DIR
#
# A BUILD_DIR without a CMake cache is configured first, as CI configures
# its own (-DCAS_SANITIZE=ON, benches and examples off). The script builds
# every target there (cas_run and cas_chaos included, for the sanitized
# drills that follow in CI) and runs the whole tier-1 suite through ctest,
# exiting non-zero on the first failing suite or sanitizer report.
set -euo pipefail

mkdir -p "${1:?usage: $0 BUILD_DIR}"
BUILD=$(cd "$1" && pwd)
cd "$(dirname "$0")/../.."

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCAS_SANITIZE=ON -DCAS_BUILD_BENCH=OFF -DCAS_BUILD_EXAMPLES=OFF
fi
cmake --build "$BUILD" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
ctest --test-dir "$BUILD" -j "$(nproc)" --output-on-failure
echo "sanitize: every suite clean"
