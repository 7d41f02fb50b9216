#include "simd/reduce.hpp"

#include <limits>

#include "simd/backends.hpp"

namespace cas::simd {

namespace {

int64_t min_value_scalar(const int64_t* v, int n) {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int k = 0; k < n; ++k)
    if (v[k] < best) best = v[k];
  return best;
}

int64_t max_value_where_le_scalar(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                  int n, bool* any) {
  int64_t best = std::numeric_limits<int64_t>::min();
  bool found = false;
  for (int k = 0; k < n; ++k) {
    if (gate[k] > bound) continue;
    found = true;
    if (v[k] > best) best = v[k];
  }
  if (any != nullptr) *any = found;
  return best;
}

}  // namespace

int64_t min_value(std::span<const int64_t> v) {
  const int n = static_cast<int>(v.size());
  switch (detail::avx2_for_avx512(active_isa())) {
#if defined(CAS_SIMD_AVX2)
    case Isa::kAvx2:
      if (n >= 8) return detail::min_value_avx2(v.data(), n);
      break;
#endif
#if defined(CAS_SIMD_SSE42)
    case Isa::kSse42:
      if (n >= 4) return detail::min_value_sse42(v.data(), n);
      break;
#endif
#if defined(CAS_SIMD_NEON)
    case Isa::kNeon:
      if (n >= 4) return detail::min_value_neon(v.data(), n);
      break;
#endif
    default:
      break;
  }
  return min_value_scalar(v.data(), n);
}

int64_t max_value_where_le(std::span<const int64_t> v, std::span<const uint64_t> gate,
                           uint64_t bound, bool* any) {
  const int n = static_cast<int>(v.size());
  switch (detail::avx2_for_avx512(active_isa())) {
#if defined(CAS_SIMD_AVX2)
    case Isa::kAvx2:
      if (n >= 8) return detail::max_value_where_le_avx2(v.data(), gate.data(), bound, n, any);
      break;
#endif
#if defined(CAS_SIMD_SSE42)
    case Isa::kSse42:
      if (n >= 4) return detail::max_value_where_le_sse42(v.data(), gate.data(), bound, n, any);
      break;
#endif
#if defined(CAS_SIMD_NEON)
    case Isa::kNeon:
      if (n >= 4) return detail::max_value_where_le_neon(v.data(), gate.data(), bound, n, any);
      break;
#endif
    default:
      break;
  }
  return max_value_where_le_scalar(v.data(), gate.data(), bound, n, any);
}

}  // namespace cas::simd
