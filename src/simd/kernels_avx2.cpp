// AVX2 backend. Compiled with -mavx2 only when CMake enables it
// (CAS_SIMD_AVX2); the whole file is a no-op otherwise, so a GLOB build on
// a non-x86 host or with -DCAS_SIMD=OFF never sees an AVX2 instruction.
// It is the only unit built with -mavx2, so the culprit-row fill lives
// here whole (staging, blocks and scatter): one call per fill. It emits no
// weak symbol (see backends.hpp).
#if defined(CAS_SIMD_AVX2)

#include <immintrin.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "simd/backends.hpp"
#include "simd/costas_kernels.hpp"

namespace cas::simd::detail {

namespace {

[[nodiscard]] inline int64_t hmin_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i m1 = _mm_blendv_epi8(lo, hi, _mm_cmpgt_epi64(lo, hi));  // lane-wise min
  const __m128i sw = _mm_unpackhi_epi64(m1, m1);
  const __m128i m2 = _mm_blendv_epi8(m1, sw, _mm_cmpgt_epi64(m1, sw));
  return _mm_cvtsi128_si64(m2);
}

[[nodiscard]] inline int64_t hmax_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i m1 = _mm_blendv_epi8(hi, lo, _mm_cmpgt_epi64(lo, hi));  // lane-wise max
  const __m128i sw = _mm_unpackhi_epi64(m1, m1);
  const __m128i m2 = _mm_blendv_epi8(sw, m1, _mm_cmpgt_epi64(m1, sw));
  return _mm_cvtsi128_si64(m2);
}

/// Per lane, the number of distinct values of slot = diff + offset that
/// fall in the 64-slot window [0, 64), over one triangle row's m positions
/// (diff is a position's difference). Each lane keeps the window as two
/// bitset words and sets a position's bit with a per-lane variable shift;
/// a shift count outside 0..31 yields 0, so a slot outside a word (or a
/// padded lane's garbage) sets nothing and no lane ever addresses memory
/// by its data.
[[nodiscard]] __m256i window_distinct_slots(const int32_t* base, size_t lane_stride, int m,
                                            int d, int offset) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i v_offset = _mm256_set1_epi32(offset);
  const __m256i v_32 = _mm256_set1_epi32(32);
  __m256i seen_lo = _mm256_setzero_si256();
  __m256i seen_hi = _mm256_setzero_si256();
  for (int a = 0; a < m; ++a) {
    const __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(base + static_cast<size_t>(a) * lane_stride));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(base + static_cast<size_t>(a + d) * lane_stride));
    const __m256i slot = _mm256_add_epi32(_mm256_sub_epi32(hi, lo), v_offset);
    seen_lo = _mm256_or_si256(seen_lo, _mm256_sllv_epi32(one, slot));
    seen_hi = _mm256_or_si256(seen_hi, _mm256_sllv_epi32(one, _mm256_sub_epi32(slot, v_32)));
  }
  // Popcount: per-byte counts from a nibble lookup, summed over both words
  // (at most 16 per byte), then widened into the 32-bit lanes.
  const __m256i nibble_bits = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                               0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0f);
  const auto add_bit_counts = [&](__m256i bytes, __m256i word) {
    bytes = _mm256_add_epi8(bytes, _mm256_shuffle_epi8(nibble_bits, _mm256_and_si256(word, low4)));
    return _mm256_add_epi8(
        bytes,
        _mm256_shuffle_epi8(nibble_bits, _mm256_and_si256(_mm256_srli_epi16(word, 4), low4)));
  };
  const __m256i bytes = add_bit_counts(add_bit_counts(_mm256_setzero_si256(), seen_lo), seen_hi);
  return _mm256_madd_epi16(_mm256_maddubs_epi16(bytes, _mm256_set1_epi8(1)),
                           _mm256_set1_epi16(1));
}

}  // namespace

int64_t min_value_avx2(const int64_t* v, int n) {
  __m256i best = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + k));
    best = _mm256_blendv_epi8(x, best, _mm256_cmpgt_epi64(x, best));  // min(best, x)
  }
  int64_t out = hmin_epi64(best);
  for (; k < n; ++k)
    if (v[k] < out) out = v[k];
  return out;
}

int64_t max_value_where_le_avx2(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                int n, bool* any) {
  // Unsigned 64-bit compare gate[k] <= bound via the sign-flip trick:
  // a <=u b  ⇔  (a ^ 2^63) <=s (b ^ 2^63).
  const __m256i sign = _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ull));
  const __m256i vbound = _mm256_xor_si256(_mm256_set1_epi64x(static_cast<int64_t>(bound)), sign);
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  __m256i best = _mm256_set1_epi64x(kMin);
  __m256i anyv = _mm256_setzero_si256();
  int k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i g = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(gate + k)), sign);
    const __m256i pass = _mm256_andnot_si256(_mm256_cmpgt_epi64(g, vbound), _mm256_set1_epi64x(-1));
    anyv = _mm256_or_si256(anyv, pass);
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + k));
    // Gated lanes take x, others keep the running best's lane.
    const __m256i cand = _mm256_blendv_epi8(best, x, pass);
    best = _mm256_blendv_epi8(cand, best, _mm256_cmpgt_epi64(best, cand));  // max
  }
  int64_t out = hmax_epi64(best);
  bool found = _mm256_movemask_epi8(anyv) != 0;
  for (; k < n; ++k) {
    if (gate[k] > bound) continue;
    found = true;
    if (v[k] > out) out = v[k];
  }
  if (any != nullptr) *any = found;
  return out;
}

void costas_delta_row_avx2(const CostasCtx& ctx, int i, int64_t* out) {
  const int n = ctx.n;
  const int depth = ctx.depth;
  // Lane k scores the swap (i, j), j = k + (k >= i): the culprit's n - 1
  // swaps, compacted past i and filled 8 lanes per block. Lanes from
  // n - 1 up are masked.
  const int lanes = (n - 1 + 7) & ~7;
  // Padded copy of the permutation: a block's 8-wide loads start at
  // p[k0 + s + t], s in {0, 1} and t in [-depth, depth], so depth cells on
  // the left and depth + 1 past the last block on the right hold them all
  // (depth <= n - 1).
  constexpr int kMaxN = kDeltaRowMaxVectorN;
  alignas(32) int32_t padded[kMaxN + 2 * (kMaxN - 1) + 1];
  std::memset(padded, 0, static_cast<size_t>(lanes + 2 * depth + 1) * sizeof(int32_t));
  int32_t* const p = padded + depth;
  std::memcpy(p, ctx.perm, static_cast<size_t>(n) * sizeof(int32_t));
  const int vi = p[i];

  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lane0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i v_vi = _mm256_set1_epi32(vi);
  const __m256i v_im1 = _mm256_set1_epi32(i - 1);
  const __m256i v_nm1 = _mm256_set1_epi32(n - 1);

  // Indicator helpers over 0/-1 masks: adding a mask subtracts the
  // indicator from a count, subtracting it adds.
  const auto eq = [](__m256i a, __m256i b) { return _mm256_cmpeq_epi32(a, b); };
  const auto land = [](__m256i a, __m256i b) { return _mm256_and_si256(a, b); };
  const auto load = [](const int32_t* q) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
  };

  for (int k0 = 0; k0 < lanes; k0 += 8) {
    const __m256i kv = _mm256_add_epi32(lane0, _mm256_set1_epi32(k0));
    const __m256i past = _mm256_cmpgt_epi32(kv, v_im1);  // k >= i
    const __m256i live = _mm256_cmpgt_epi32(v_nm1, kv);  // k < n - 1
    const __m256i jv = _mm256_sub_epi32(kv, past);
    // p[j + t] for every lane: the loads at k0 + t and k0 + t + 1, blended
    // by the k >= i mask.
    const auto at = [&](int t) {
      return _mm256_blendv_epi8(load(p + k0 + t), load(p + k0 + t + 1), past);
    };
    const __m256i vj = at(0);
    const __m256i vd = _mm256_sub_epi32(vj, v_vi);
    __m256i sum = zero;

    for (int d = 1; d <= depth; ++d) {
      const int32_t* const row =
          ctx.occ + static_cast<size_t>(d - 1) * ctx.stride + static_cast<size_t>(n - 1);
      const bool eA = i - d >= 0;  // culprit pair A = (i-d, i)
      const bool eB = i + d < n;   // culprit pair B = (i, i+d)
      const int oldA = eA ? vi - p[i - d] : 0;
      const int oldB = eB ? p[i + d] - vi : 0;
      // Removal hits on the culprit's own pairs are lane-independent:
      // ledger order (A, B), with B's count adjusted when both pairs sit in
      // the same bucket.
      int base = 0;
      if (eA && row[oldA] >= 2) --base;
      if (eB && row[oldB] - static_cast<int32_t>(eA && oldB == oldA) >= 2) --base;

      const __m256i v_oldA = _mm256_set1_epi32(oldA);
      const __m256i v_oldB = _mm256_set1_epi32(oldB);
      const __m256i v_eA = _mm256_set1_epi32(eA ? -1 : 0);
      const __m256i v_eB = _mm256_set1_epi32(eB ? -1 : 0);
      const __m256i pjm = at(-d);
      const __m256i pjp = at(d);

      // The two lanes whose swap shares a triangle pair with the culprit in
      // this row: at j == i + d, C is the swapped pair (i, j) itself, so C
      // drops out and B's new difference is -vd; at j == i - d, D is the
      // pair (j, i), so D drops out and A's new difference is vd. Every
      // other lane takes the general formulas.
      const __m256i sA = eq(jv, _mm256_set1_epi32(i - d));
      const __m256i sB = eq(jv, _mm256_set1_epi32(i + d));
      const __m256i eC = _mm256_andnot_si256(
          sB, land(_mm256_cmpgt_epi32(jv, _mm256_set1_epi32(d - 1)), live));  // j - d >= 0
      const __m256i eD =
          _mm256_andnot_si256(sA, _mm256_cmpgt_epi32(_mm256_set1_epi32(n - d), jv));  // j + d < n
      const __m256i mA = land(v_eA, live);
      const __m256i mB = land(v_eB, live);

      const __m256i oldC = _mm256_sub_epi32(vj, pjm);
      const __m256i oldD = _mm256_sub_epi32(pjp, vj);
      const __m256i newA = _mm256_add_epi32(_mm256_andnot_si256(sA, v_oldA), vd);
      const __m256i newB = _mm256_sub_epi32(_mm256_andnot_si256(sB, v_oldB), vd);
      const __m256i newC = _mm256_sub_epi32(v_vi, pjm);
      const __m256i newD = _mm256_sub_epi32(pjp, v_vi);

      // Masked gathers: lanes outside their pair's existence mask read
      // nothing (their index may be built from padding).
      const auto gat = [&](__m256i idx, __m256i mask) {
        return _mm256_mask_i32gather_epi32(zero, row, idx, mask, 4);
      };
      const __m256i gOldC = gat(oldC, eC);
      const __m256i gOldD = gat(oldD, eD);
      const __m256i gNewA = gat(newA, mA);
      const __m256i gNewB = gat(newB, mB);
      const __m256i gNewC = gat(newC, eC);
      const __m256i gNewD = gat(newD, eD);

      __m256i hits = _mm256_set1_epi32(base);

      // Removals of the j-side pairs, counts adjusted for buckets already
      // drained by earlier removals in this row's ledger (order A, B, C, D).
      // A bucket's hits depend only on how many removals and additions land
      // in it, so this order serves j < i as well.
      __m256i cC = _mm256_add_epi32(gOldC, land(eq(oldC, v_oldA), v_eA));
      cC = _mm256_add_epi32(cC, land(eq(oldC, v_oldB), v_eB));
      hits = _mm256_add_epi32(hits, land(eC, _mm256_cmpgt_epi32(cC, one)));  // -1 per hit

      __m256i cD = _mm256_add_epi32(gOldD, land(eq(oldD, v_oldA), v_eA));
      cD = _mm256_add_epi32(cD, land(eq(oldD, v_oldB), v_eB));
      cD = _mm256_add_epi32(cD, land(eq(oldD, oldC), eC));
      hits = _mm256_add_epi32(hits, land(eD, _mm256_cmpgt_epi32(cD, one)));

      // Additions: each new diff sees the live count minus every removed
      // old diff in its bucket plus the earlier additions in ledger order.
      // Self-coincidence (newX == oldX) is impossible: vd != 0.
      __m256i cA = _mm256_add_epi32(gNewA, land(eq(newA, v_oldB), v_eB));
      cA = _mm256_add_epi32(cA, land(eq(newA, oldC), eC));
      cA = _mm256_add_epi32(cA, land(eq(newA, oldD), eD));
      hits = _mm256_sub_epi32(hits, land(mA, _mm256_cmpgt_epi32(cA, zero)));  // +1 per hit

      __m256i cB = _mm256_add_epi32(gNewB, land(eq(newB, v_oldA), v_eA));
      cB = _mm256_add_epi32(cB, land(eq(newB, oldC), eC));
      cB = _mm256_add_epi32(cB, land(eq(newB, oldD), eD));
      cB = _mm256_sub_epi32(cB, land(eq(newB, newA), v_eA));
      hits = _mm256_sub_epi32(hits, land(mB, _mm256_cmpgt_epi32(cB, zero)));

      __m256i cCn = _mm256_add_epi32(gNewC, land(eq(newC, v_oldA), v_eA));
      cCn = _mm256_add_epi32(cCn, land(eq(newC, v_oldB), v_eB));
      cCn = _mm256_add_epi32(cCn, land(eq(newC, oldD), eD));
      cCn = _mm256_sub_epi32(cCn, land(eq(newC, newA), v_eA));
      cCn = _mm256_sub_epi32(cCn, land(eq(newC, newB), v_eB));
      hits = _mm256_sub_epi32(hits, land(eC, _mm256_cmpgt_epi32(cCn, zero)));

      __m256i cDn = _mm256_add_epi32(gNewD, land(eq(newD, v_oldA), v_eA));
      cDn = _mm256_add_epi32(cDn, land(eq(newD, v_oldB), v_eB));
      cDn = _mm256_add_epi32(cDn, land(eq(newD, oldC), eC));
      cDn = _mm256_sub_epi32(cDn, land(eq(newD, newA), v_eA));
      cDn = _mm256_sub_epi32(cDn, land(eq(newD, newB), v_eB));
      cDn = _mm256_sub_epi32(cDn, land(eq(newD, newC), eC));
      hits = _mm256_sub_epi32(hits, land(eD, _mm256_cmpgt_epi32(cDn, zero)));

      const __m256i v_w = _mm256_set1_epi32(static_cast<int32_t>(ctx.errw[d]));
      sum = _mm256_add_epi32(sum, _mm256_mullo_epi32(hits, v_w));
    }
    // Scatter the block's live lanes to their j; masked lanes hold garbage.
    alignas(32) int32_t sums[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sums), sum);
    for (int k = k0; k < k0 + 8 && k < n - 1; ++k) out[k + (k >= i)] = sums[k - k0];
  }
  out[i] = kDeltaRowExcluded;
}

void batch_row_hits_avx2(const int32_t* base, size_t lane_stride, int n, int d,
                         int32_t* hits) {
  // A position collides iff its difference slot already appeared earlier in
  // the row, so the row's hits are m - (distinct slots), m = n - d. The
  // row's 2n - 1 slots are counted in 64-slot windows (one up to n = 32),
  // each window re-deriving the row's differences.
  const int m = n - d;
  __m256i distinct = _mm256_setzero_si256();
  for (int first = 0; first < 2 * n - 1; first += 64)
    distinct = _mm256_add_epi32(
        distinct, window_distinct_slots(base, lane_stride, m, d, n - 1 - first));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(hits),
                      _mm256_sub_epi32(_mm256_set1_epi32(m), distinct));
}

void costas_errors_row_avx2(const CostasCtx& ctx, int d, int64_t* errs) {
  const int n = ctx.n;
  const int m = n - d;  // pairs in this row
  const int32_t* const row =
      ctx.occ + static_cast<size_t>(d - 1) * ctx.stride + static_cast<size_t>(n - 1);
  const int64_t w = ctx.errw[d];
  const __m256i v_w64 = _mm256_set1_epi64x(w);
  const __m256i one = _mm256_set1_epi32(1);
  int a = 0;
  for (; a + 8 <= m; a += 8) {
    const __m256i lo_perm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctx.perm + a));
    const __m256i hi_perm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctx.perm + a + d));
    const __m256i diff = _mm256_sub_epi32(hi_perm, lo_perm);
    // All 8 lanes are in-row (a + 7 < m), so a plain gather is safe.
    const __m256i occ8 = _mm256_i32gather_epi32(row, diff, 4);
    const __m256i coll = _mm256_cmpgt_epi32(occ8, one);  // occ >= 2
    const __m256i add_lo =
        _mm256_and_si256(_mm256_cvtepi32_epi64(_mm256_castsi256_si128(coll)), v_w64);
    const __m256i add_hi =
        _mm256_and_si256(_mm256_cvtepi32_epi64(_mm256_extracti128_si256(coll, 1)), v_w64);
    // Both endpoints of a colliding pair take the weight. The four
    // read-modify-writes may overlap for small d; they are sequenced, so
    // each load observes the previous store.
    const auto bump = [&](int64_t* p, __m256i delta) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(p),
          _mm256_add_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), delta));
    };
    bump(errs + a, add_lo);
    bump(errs + a + 4, add_hi);
    bump(errs + a + d, add_lo);
    bump(errs + a + d + 4, add_hi);
  }
  for (; a < m; ++a) {
    const int diff = ctx.perm[a + d] - ctx.perm[a];
    if (row[diff] >= 2) {
      errs[a] += w;
      errs[a + d] += w;
    }
  }
}

}  // namespace cas::simd::detail

#endif  // CAS_SIMD_AVX2
