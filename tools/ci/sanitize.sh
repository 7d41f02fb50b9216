#!/usr/bin/env bash
# The ASan + UBSan leg: the configure, build and run steps of CI's sanitize
# job, runnable locally with one command.
#
#   tools/ci/sanitize.sh BUILD_DIR
#
# A BUILD_DIR without a CMake cache is configured first, as CI configures
# its own (-DCAS_SANITIZE=ON, benches and examples off). The script builds
# every target there and runs the whole tier-1 suite through ctest, then
# two one-seed cas_chaos drills with every rank sanitized (outputs in
# BUILD_DIR/chaos_asan and BUILD_DIR/chaos_kc_asan). It exits non-zero on
# the first failing suite, drill or sanitizer report.
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

# One chaos schedule: a whole multi-process fault-injected world. Resets,
# corruption and partial I/O exercise the error-path cleanup (drop_peer,
# the re-hello catch-up, reader-thread unwinding) that leak checking
# exists for. One seed keeps the leg affordable; the Release chaos job
# covers the full seed list.
"$BUILD/cas_chaos" --scenario=tools/scenarios/s12_dist_multiwalk_n18.json \
                   --seeds=1 --deadline=600 --out-dir="$BUILD/chaos_asan"
# One coordinator assassination: the promoted coordinator adopting the
# pre-bound listener, survivors tearing down dead communicators, the
# state_sync capture racing the reader thread — one SIGKILL drill,
# negative control included.
"$BUILD/cas_chaos" --scenario=tools/scenarios/s13_elastic_ckpt_n14.json \
                   --seeds=1 --kill-coordinator --deadline=600 \
                   --out-dir="$BUILD/chaos_kc_asan"
echo "sanitize: both chaos drills clean"
