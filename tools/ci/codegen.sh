#!/usr/bin/env bash
# The codegen guard: checks that the Costas hot loop of a gcc Release
# cas_run compiled as intended.
#
#   tools/ci/codegen.sh BUILD_DIR
#
# BUILD_DIR must hold a gcc Release cas_run. The guard fails when the binary
# has an out-of-line simd::pick_min: AdaptiveSearch<CostasProblem>::
# advance_walk is meant to inline it, and the out-of-line call once cost
# 7-11% iterations/s (ROADMAP item 7). It also fails when a SIMD backend
# object (CMakeFiles/cas.dir/src/simd/kernels_*.cpp.o) defines a weak
# symbol: such a copy, compiled with the backend's target flags (-mavx2,
# -mavx512f ...), can be the one the linker keeps for the whole program and
# would fault on a host without that ISA (src/simd/backends.hpp). It also
# prints how far advance_walk starts past a 64-byte boundary. That line is
# information only: the function's placement is a suspect for
# iteration-rate swings between builds, not a finding.
set -euo pipefail

BUILD=$(cd "${1:?usage: $0 BUILD_DIR}" && pwd)
BIN="$BUILD/cas_run"
if [ ! -x "$BIN" ]; then
  echo "codegen: no cas_run in $BUILD"
  exit 2
fi
SYMBOLS=$(nm -C "$BIN")

if grep "cas::simd::pick_min" <<<"$SYMBOLS"; then
  echo "codegen: FAIL — cas_run has an out-of-line pick_min (above); the Costas culprit"
  echo "         scan in AdaptiveSearch<CostasProblem>::advance_walk no longer inlines it"
  exit 1
fi
echo "codegen: no out-of-line pick_min"

shopt -s nullglob
BACKENDS=("$BUILD"/CMakeFiles/cas.dir/src/simd/kernels_*.cpp.o)
if [ ${#BACKENDS[@]} -eq 0 ]; then
  echo "codegen: FAIL — no SIMD backend objects under $BUILD/CMakeFiles/cas.dir/src/simd"
  exit 1
fi
WEAK=$(for obj in "${BACKENDS[@]}"; do
         nm -C --defined-only "$obj" | awk -v obj="${obj##*/}" '$2 ~ /^[WVu]$/ {print obj ": " $0}'
       done)
if [ -n "$WEAK" ]; then
  echo "$WEAK"
  echo "codegen: FAIL — a SIMD backend object defines the weak symbols above; the linker may"
  echo "         keep that ISA-specific copy for every caller (keep library templates in"
  echo "         the kernel fronts, and backend scratch in fixed-size stack arrays)"
  exit 1
fi
echo "codegen: no weak symbol in the ${#BACKENDS[@]} SIMD backend objects"

ADDR=$(grep "AdaptiveSearch<cas::costas::CostasProblem>::advance_walk(" <<<"$SYMBOLS" |
       awk '{print $1}' | head -n 1)
if [ -z "$ADDR" ]; then
  echo "codegen: FAIL — no AdaptiveSearch<CostasProblem>::advance_walk symbol in cas_run"
  exit 1
fi
echo "codegen: AdaptiveSearch<CostasProblem>::advance_walk at 0x$ADDR," \
     "$((16#$ADDR % 64)) bytes past a 64-byte boundary (information only)"
