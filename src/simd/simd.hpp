// Runtime ISA dispatch for the SIMD kernel layer (src/simd/).
//
// The kernels come in per-ISA backends (AVX-512 / AVX2 / SSE4.2 / NEON)
// compiled in separate translation units with the matching target flags, plus a scalar
// fallback that is always available. Which backend actually runs is decided
// ONCE at startup from the CPU's capabilities (cpuid on x86, compile-time
// on aarch64), so the hot loops pay one predictable branch per kernel call
// and never execute an instruction the machine does not have.
//
// Two override channels exist on top of the detection:
//   * force_isa() — programmatic, limited to the tiers this build compiled
//     and this CPU runs; used by the scalar-vs-SIMD micro benches and the
//     parity/trajectory tests to run every code path in one process.
//   * the CAS_SIMD environment variable ("scalar"/"off", "sse42", "avx2",
//     "avx512", "neon", "auto") — the no-rebuild kill switch for production
//     triage, resolved the same way as force_isa().
//
// Building with -DCAS_SIMD=OFF (CMake) compiles no backends at all and
// pins the dispatch to kScalar; every kernel keeps working through its
// scalar path, which is the bit-identical reference the SIMD paths are
// fuzzed against (see tests/test_simd_parity.cpp).
#pragma once

namespace cas::simd {

/// Instruction-set tiers, ordered weakest to strongest within an
/// architecture family. kScalar is always valid.
enum class Isa {
  kScalar = 0,
  kNeon = 1,   // aarch64 baseline
  kSse42 = 2,  // x86-64 + SSE4.2 (64-bit integer compares)
  kAvx2 = 3,   // x86-64 + AVX2 (256-bit integer ops + gathers)
  kAvx512 = 4, // x86-64 + AVX-512 F/BW/VBMI/VPOPCNTDQ (16-lane row fill and
               // reset pass up to n = 32; the rest runs the AVX2 code)
};

/// The backend the dispatch currently selects. Detected once (CPU caps
/// intersected with the compiled backends and the CAS_SIMD environment
/// variable), then stable unless force_isa() intervenes.
[[nodiscard]] Isa active_isa();

/// Strongest ISA this process could run (compiled backend AND CPU support).
[[nodiscard]] Isa best_supported_isa();

/// Force the dispatch to `isa` when this build compiled it and the CPU runs
/// it; otherwise install the strongest weaker tier of the same family
/// (AVX-512 -> AVX2 -> SSE4.2), or scalar for a tier of another family (NEON on
/// x86-64, an x86 tier on aarch64). Returns the ISA actually installed.
/// Used by benches ("measure the scalar path on this AVX2 machine") and by
/// the parity suites; call sites are expected to restore the previous
/// value (see ScopedIsa).
Isa force_isa(Isa isa);

[[nodiscard]] const char* isa_name(Isa isa);

/// RAII guard: force an ISA for a scope, restore on exit.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : previous_(active_isa()) { force_isa(isa); }
  ~ScopedIsa() { force_isa(previous_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa previous_;
};

}  // namespace cas::simd
