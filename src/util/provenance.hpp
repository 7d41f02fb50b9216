// Build/run provenance stamped into every machine-readable artifact
// (BENCH_*.json, cas_run reports): without the git SHA, compiler, flags,
// thread count, SIMD tier, and timestamp, perf numbers cannot be compared
// across PRs or machines.
#pragma once

#include "util/json.hpp"

namespace cas::util {

/// One provenance object: git_sha, compiler, cxx_flags, build_type,
/// hardware_threads, simd_isa (the kernel tier simd::active_isa() reports
/// at the call), timestamp_utc. Build-time fields come from compile
/// definitions CMake injects (see CMakeLists.txt); "unknown" when absent.
Json build_provenance();

}  // namespace cas::util
