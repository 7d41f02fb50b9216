// Shared by the SIMD parity suites: the ISA tiers they loop over.
#pragma once

#include <vector>

#include "simd/simd.hpp"

namespace cas::test {

/// Whether `isa` belongs to the architecture family this file is compiled
/// for (scalar belongs to every family).
constexpr bool native_family(simd::Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
  return isa != simd::Isa::kNeon;
#elif defined(__aarch64__)
  return isa == simd::Isa::kScalar || isa == simd::Isa::kNeon;
#else
  return isa == simd::Isa::kScalar;
#endif
}

/// Every tier of the host's family that simd::force_isa() installs when
/// asked for it, scalar first: on an AVX-512 x86-64 host {scalar, sse42,
/// avx2, avx512}, on an AVX2 one {scalar, sse42, avx2}, on aarch64
/// {scalar, neon}, with -DCAS_SIMD=OFF {scalar}.
inline std::vector<simd::Isa> installable_isas() {
  std::vector<simd::Isa> tiers;
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kNeon, simd::Isa::kSse42,
                              simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    const simd::ScopedIsa guard(isa);
    if (native_family(isa) && simd::active_isa() == isa) tiers.push_back(isa);
  }
  return tiers;
}

/// installable_isas() without scalar: the tiers a test compares with a
/// scalar reference it has already computed.
inline std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> tiers = installable_isas();
  tiers.erase(tiers.begin());  // scalar is always first
  return tiers;
}

}  // namespace cas::test
