#!/usr/bin/env bash
# The ThreadSanitizer leg: the build and run steps of CI's tsan job,
# runnable locally with one command.
#
#   tools/ci/tsan.sh BUILD_DIR
#
# A BUILD_DIR without a CMake cache is configured first, as CI configures
# its own (RelWithDebInfo, -fsanitize=thread through the plain CMake flag
# variables, benches and examples off). The script builds every target
# there and runs the whole tier-1 suite through ctest with halt_on_error,
# so a suite added to tier-1 is race-checked without editing a list. It
# exits non-zero on the first failing suite or report. It changes no kernel
# setting: on a host whose mmap randomization TSan's shadow layout rejects
# ("FATAL: ThreadSanitizer: unexpected memory mapping"), narrow it first, as
# CI does with `sysctl -w vm.mmap_rnd_bits=28`.
set -euo pipefail

mkdir -p "${1:?usage: $0 BUILD_DIR}"
BUILD=$(cd "$1" && pwd)
cd "$(dirname "$0")/../.."

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
    -DCAS_BUILD_BENCH=OFF -DCAS_BUILD_EXAMPLES=OFF
fi
cmake --build "$BUILD" -j "$(nproc)"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
ctest --test-dir "$BUILD" -j "$(nproc)" --output-on-failure
echo "tsan: every suite clean"
