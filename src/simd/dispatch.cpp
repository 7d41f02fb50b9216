#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cas::simd {

namespace {

/// Whether this build compiled `isa`'s backend AND this CPU can run it.
/// The backend macros (CAS_SIMD_AVX2 / CAS_SIMD_SSE42 / CAS_SIMD_NEON) are
/// set per translation unit by CMake exactly when the matching backend file
/// is compiled, so a tier with no code behind it, or one of another
/// architecture family, is never runnable. -DCAS_SIMD=OFF compiles no
/// backend and leaves only scalar.
bool runnable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(CAS_SIMD_AVX2)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
#endif
#if defined(CAS_SIMD_SSE42)
    case Isa::kSse42:
      return __builtin_cpu_supports("sse4.2");
#endif
#if defined(CAS_SIMD_NEON)
    case Isa::kNeon:
      return true;  // aarch64 baseline: always available when compiled
#endif
    default:
      return false;
  }
}

/// The tier installed for a request of `isa`: the request itself when it
/// is runnable; SSE4.2 for AVX2 on an x86 host without it; scalar for
/// anything else, a tier of another architecture family included.
Isa installable(Isa isa) {
  if (isa == Isa::kAvx2 && !runnable(isa)) isa = Isa::kSse42;
  return runnable(isa) ? isa : Isa::kScalar;
}

/// Strongest runnable tier.
Isa detect() {
  for (const Isa isa : {Isa::kAvx2, Isa::kSse42, Isa::kNeon})
    if (runnable(isa)) return isa;
  return Isa::kScalar;
}

/// The tier the CAS_SIMD environment variable asks for, or `best` when it
/// is unset, "auto" or unrecognized.
Isa apply_env(Isa best) {
  const char* env = std::getenv("CAS_SIMD");
  if (env == nullptr) return best;
  const auto is = [env](const char* v) { return std::strcmp(env, v) == 0; };
  if (is("off") || is("0") || is("scalar")) return Isa::kScalar;
  if (is("neon")) return installable(Isa::kNeon);
  if (is("sse42")) return installable(Isa::kSse42);
  if (is("avx2")) return installable(Isa::kAvx2);
  return best;
}

Isa best_cached() {
  static const Isa best = detect();
  return best;
}

std::atomic<Isa>& active_slot() {
  static std::atomic<Isa> active{apply_env(best_cached())};
  return active;
}

}  // namespace

Isa best_supported_isa() { return best_cached(); }

Isa active_isa() { return active_slot().load(std::memory_order_relaxed); }

Isa force_isa(Isa isa) {
  const Isa installed = installable(isa);
  active_slot().store(installed, std::memory_order_relaxed);
  return installed;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kNeon: return "neon";
    case Isa::kSse42: return "sse42";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace cas::simd
