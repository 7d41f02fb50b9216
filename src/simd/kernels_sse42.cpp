// SSE4.2 backend (2-lane int64 reductions — the widest integer-compare
// tier below AVX2 on x86). Compiled with -msse4.2 only when CMake enables
// it (CAS_SIMD_SSE42); a no-op otherwise.
#if defined(CAS_SIMD_SSE42)

#include <nmmintrin.h>
#include <smmintrin.h>

#include <cstdint>
#include <limits>

#include "simd/backends.hpp"

namespace cas::simd::detail {

int64_t min_value_sse42(const int64_t* v, int n) {
  __m128i best = _mm_set1_epi64x(std::numeric_limits<int64_t>::max());
  int k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + k));
    best = _mm_blendv_epi8(x, best, _mm_cmpgt_epi64(x, best));  // lane-wise min
  }
  const __m128i sw = _mm_unpackhi_epi64(best, best);
  best = _mm_blendv_epi8(best, sw, _mm_cmpgt_epi64(best, sw));
  int64_t out = _mm_cvtsi128_si64(best);
  for (; k < n; ++k)
    if (v[k] < out) out = v[k];
  return out;
}

int64_t max_value_where_le_sse42(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                 int n, bool* any) {
  const __m128i sign = _mm_set1_epi64x(static_cast<int64_t>(0x8000000000000000ull));
  const __m128i vbound = _mm_xor_si128(_mm_set1_epi64x(static_cast<int64_t>(bound)), sign);
  __m128i best = _mm_set1_epi64x(std::numeric_limits<int64_t>::min());
  __m128i anyv = _mm_setzero_si128();
  int k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128i g =
        _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(gate + k)), sign);
    const __m128i pass = _mm_andnot_si128(_mm_cmpgt_epi64(g, vbound), _mm_set1_epi64x(-1));
    anyv = _mm_or_si128(anyv, pass);
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + k));
    const __m128i cand = _mm_blendv_epi8(best, x, pass);
    best = _mm_blendv_epi8(cand, best, _mm_cmpgt_epi64(best, cand));  // lane-wise max
  }
  const __m128i sw = _mm_unpackhi_epi64(best, best);
  best = _mm_blendv_epi8(sw, best, _mm_cmpgt_epi64(best, sw));
  int64_t out = _mm_cvtsi128_si64(best);
  bool found = _mm_movemask_epi8(anyv) != 0;
  for (; k < n; ++k) {
    if (gate[k] > bound) continue;
    found = true;
    if (v[k] > out) out = v[k];
  }
  if (any != nullptr) *any = found;
  return out;
}

void batch_row_hits_sse42(const int32_t* base, size_t lane_stride, int n, int d,
                          int32_t* hits, int32_t* diff_scratch) {
  // SSE4.2 has no per-lane variable shift, so this leg keeps the pairwise
  // form: stage the row's per-lane differences, then count the positions
  // whose difference equals an earlier one, as two 4-lane halves over the
  // fixed 8-lane chunk.
  const int m = n - d;
  for (int a = 0; a < m; ++a) {
    for (int half = 0; half < 2; ++half) {
      const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          base + static_cast<size_t>(a) * lane_stride + half * 4));
      const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          base + static_cast<size_t>(a + d) * lane_stride + half * 4));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(diff_scratch + a * 8 + half * 4),
                       _mm_sub_epi32(hi, lo));
    }
  }
  for (int half = 0; half < 2; ++half) {
    __m128i acc = _mm_setzero_si128();
    for (int a = 1; a < m; ++a) {
      const __m128i da = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(diff_scratch + a * 8 + half * 4));
      __m128i match = _mm_setzero_si128();
      for (int b = 0; b < a; ++b) {
        match = _mm_or_si128(
            match, _mm_cmpeq_epi32(da, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                           diff_scratch + b * 8 + half * 4))));
      }
      acc = _mm_sub_epi32(acc, match);  // mask lanes are -1 per hit
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hits + half * 4), acc);
  }
}

}  // namespace cas::simd::detail

#endif  // CAS_SIMD_SSE42
