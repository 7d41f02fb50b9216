#!/usr/bin/env bash
# The ThreadSanitizer leg: the build and run steps of CI's tsan job,
# runnable locally with one command.
#
#   tools/ci/tsan.sh BUILD_DIR
#
# A BUILD_DIR without a CMake cache is configured first, as CI configures
# its own (RelWithDebInfo, -fsanitize=thread through the plain CMake flag
# variables, benches and examples off). The script builds the threaded
# suites there and runs each with halt_on_error, exiting non-zero on the
# first report. It changes no kernel setting: on a host whose mmap
# randomization TSan's shadow layout rejects ("FATAL: ThreadSanitizer:
# unexpected memory mapping"), narrow it first, as CI does with
# `sysctl -w vm.mmap_rnd_bits=28`.
set -euo pipefail

mkdir -p "${1:?usage: $0 BUILD_DIR}"
BUILD=$(cd "$1" && pwd)
cd "$(dirname "$0")/../.."

# Everything that shares memory across threads: the walker fan-out
# (jthreads and the shared pool), the split neighborhood scan, the
# blackboard, the service's executions, the server loop against its
# service callbacks, and the socket worlds (coordinator router, RankComm
# reader and heartbeat threads, the elastic member's crew and wave
# protocol).
SUITES=(
  test_par_thread_pool test_par_multiwalk test_par_cooperative test_par_neighborhood
  test_runtime_strategy test_runtime_service test_runtime_service_cache
  test_net_retry test_net_server
  test_dist_runner test_dist_collectives test_dist_elastic test_dist_failover
  test_dist_heartbeat
)

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
    -DCAS_BUILD_BENCH=OFF -DCAS_BUILD_EXAMPLES=OFF
fi
cmake --build "$BUILD" -j "$(nproc)" --target "${SUITES[@]}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
for t in "${SUITES[@]}"; do
  echo "== $t"
  "$BUILD/$t"
done
echo "tsan: all suites clean"
