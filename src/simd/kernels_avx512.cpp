// AVX-512 backend (F, BW, VBMI, VPOPCNTDQ). Compiled with those target
// flags only when CMake enables it (CAS_SIMD_AVX512); the whole file is a
// no-op otherwise. It holds the tier's two kernels, the culprit-row fill
// and the reset's candidate pass, each one call for n <= kAvx512MaxN
// (32), where a triangle row's 2n - 1 difference slots fit 64 bytes;
// every other kernel of the tier, and these two past that size, is the
// AVX2 one. It emits no weak symbol (see backends.hpp).
#if defined(CAS_SIMD_AVX512)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "simd/backends.hpp"
#include "simd/costas_kernels.hpp"

namespace cas::simd::detail {

namespace {

// GCC 12's unmasked forms of several AVX-512 intrinsics start from
// _mm512_undefined_*, which its -Wmaybe-uninitialized misreports once
// inlined. Their all-lanes maskz forms compile to the same unmasked
// instructions without the warning, so this unit uses those.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;
constexpr __mmask64 kAll64 = ~__mmask64{0};

/// Int32 lanes 8 * kHalf .. 8 * kHalf + 7 of v, sign-extended to int64.
template <int kHalf>
[[nodiscard]] inline __m512i widen_half(__m512i v) {
  return _mm512_maskz_cvtepi32_epi64(kAll8, _mm512_maskz_extracti64x4_epi64(kAll8, v, kHalf));
}

/// The low `count` lanes of a 16-lane mask (none for count <= 0).
[[nodiscard]] inline __mmask16 low_lanes(int count) {
  if (count <= 0) return 0;
  return count >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << count) - 1);
}

/// Where the culprit-row fill's byte tables keep a row's counts: byte p
/// holds the count of difference slot (p + n - 1) & 63, i.e. of the
/// difference diff with diff & 63 == p. A row of n <= kAvx512MaxN has
/// 2n - 1 <= 63 slots, so every difference owns a byte. `pick` is the
/// vpermt2b index of each byte's slot (byte 0 of its count in the row's
/// int32 counts, slots 0-31 from the first register pair and 32-63 from
/// the second), `upper` the bytes whose slot sits in the second pair.
struct TableLayout {
  __m512i pick;
  __mmask64 upper;
};

[[nodiscard]] TableLayout table_layout(int n) {
  const __m512i slot = _mm512_and_si512(
      _mm512_add_epi8(_mm512_set_epi8(63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49,
                                      48, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34,
                                      33, 32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19,
                                      18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                                      1, 0),
                      _mm512_set1_epi8(static_cast<char>(n - 1))),
      _mm512_set1_epi8(63));
  const __m512i twice = _mm512_add_epi8(slot, slot);
  return {_mm512_add_epi8(twice, twice), _mm512_cmpge_epu8_mask(slot, _mm512_set1_epi8(32))};
}

/// The counts of triangle row `row` (2n - 1 slots) as a byte table (see
/// TableLayout); they fit a byte (at most n - d).
[[nodiscard]] __m512i byte_table(const int32_t* row, int n, const TableLayout& layout) {
  const int slots = 2 * n - 1;
  const auto counts = [&](int q) {
    return slots > 16 * q ? _mm512_maskz_loadu_epi32(low_lanes(slots - 16 * q), row + 16 * q)
                          : _mm512_setzero_si512();
  };
  const __m512i low = _mm512_permutex2var_epi8(counts(0), layout.pick, counts(1));
  if (slots <= 32) return low;
  return _mm512_mask_blend_epi8(layout.upper, low,
                                _mm512_permutex2var_epi8(counts(2), layout.pick, counts(3)));
}

}  // namespace

/// The culprit-row fill's 16-lane blocks. Lane layout, masks and ledger
/// are the AVX2 fill's (kernels_avx2.cpp), with compares into mask
/// registers, and one change: each row's counts are read from a byte table
/// with the culprit's own pairs A and B already removed. That folds the
/// ledger's corrections for a j-side difference equal to oldA or oldB into
/// the lookup (the corrections for oldA, oldB are exactly those removals),
/// so only the j-side differences are compared with each other.
void costas_delta_row_avx512(const CostasCtx& ctx, int i, int64_t* out) {
  const int n = ctx.n;
  const int depth = ctx.depth;  // <= n - 1
  // Lane k scores the swap (i, j), j = k + (k >= i), 16 lanes per block.
  const int lanes = (n - 1 + 15) & ~15;
  // Each row's byte table, built by the first block and kept for the
  // second (n >= 18).
  constexpr int kMaxN = kAvx512MaxN;
  alignas(64) int32_t tables[16 * (kMaxN - 1)];
  // Padded copy of the permutation, as in the AVX2 fill.
  alignas(64) int32_t padded[kMaxN + 2 * (kMaxN - 1) + 1];
  std::memset(padded, 0, static_cast<size_t>(lanes + 2 * depth + 1) * sizeof(int32_t));
  int32_t* const p = padded + depth;
  std::memcpy(p, ctx.perm, static_cast<size_t>(n) * sizeof(int32_t));
  const int vi = p[i];
  // Every difference is carried biased by 64: a biased difference (33..95)
  // is its own vpermb index with zero upper bytes, which read byte 0, the
  // count of the impossible difference 0, so a lookup needs no masking.
  // Equal differences stay equal.
  constexpr int kBias = 64;
  const TableLayout layout = table_layout(n);

  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i bias = _mm512_set1_epi32(kBias);
  const __m512i lane0 = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i vi_plus = _mm512_set1_epi32(vi + kBias);
  const __m512i vi_minus = _mm512_set1_epi32(vi - kBias);

  // Count updates: dec/inc move a count by one in the lanes of mask k.
  const auto dec = [&](__m512i c, __mmask16 k) { return _mm512_mask_sub_epi32(c, k, c, one); };
  const auto inc = [&](__m512i c, __mmask16 k) { return _mm512_mask_add_epi32(c, k, c, one); };
  const auto eq = [](__mmask16 k, __m512i a, __m512i b) {
    return _mm512_mask_cmpeq_epi32_mask(k, a, b);
  };
  const auto load = [](const int32_t* q) { return _mm512_loadu_si512(q); };

  for (int k0 = 0; k0 < lanes; k0 += 16) {
    const __m512i kv = _mm512_add_epi32(lane0, _mm512_set1_epi32(k0));
    const __mmask16 past = _mm512_cmpge_epi32_mask(kv, _mm512_set1_epi32(i));   // k >= i
    const __mmask16 live = _mm512_cmplt_epi32_mask(kv, _mm512_set1_epi32(n - 1));  // k < n - 1
    const __m512i jv = _mm512_mask_add_epi32(kv, past, kv, one);
    // p[j + t] for every lane: the loads at k0 + t and k0 + t + 1, blended
    // by the k >= i mask.
    const auto at = [&](int t) {
      return _mm512_mask_blend_epi32(past, load(p + k0 + t), load(p + k0 + t + 1));
    };
    const __m512i vj = at(0);
    const __m512i vd = _mm512_sub_epi32(vj, _mm512_set1_epi32(vi));
    const __m512i vj_plus = _mm512_add_epi32(vj, bias);
    const __m512i vj_minus = _mm512_sub_epi32(vj, bias);
    __m512i sum = zero;

    for (int d = 1; d <= depth; ++d) {
      const int32_t* const row = ctx.occ + static_cast<size_t>(d - 1) * ctx.stride;
      const bool eA = i - d >= 0;  // culprit pair A = (i-d, i)
      const bool eB = i + d < n;   // culprit pair B = (i, i+d)
      const int oldA = eA ? vi - p[i - d] : 0;
      const int oldB = eB ? p[i + d] - vi : 0;
      // Removal hits of A and B, in the ledger order A, B.
      int base = 0;
      if (eA && row[oldA + n - 1] >= 2) --base;
      if (eB && row[oldB + n - 1] - static_cast<int32_t>(eA && oldB == oldA) >= 2) --base;

      // The row's counts with A and B removed.
      int32_t* const kept = tables + 16 * (d - 1);
      __m512i table;
      if (k0 == 0) {
        const __m512i one_byte = _mm512_set1_epi8(1);
        table = byte_table(row, n, layout);
        if (eA) table = _mm512_mask_sub_epi8(table, __mmask64{1} << (oldA & 63), table, one_byte);
        if (eB) table = _mm512_mask_sub_epi8(table, __mmask64{1} << (oldB & 63), table, one_byte);
        if (lanes > 16) _mm512_store_si512(kept, table);
      } else {
        table = _mm512_load_si512(kept);
      }
      const auto count = [&](__m512i diff) {
        return _mm512_maskz_permutexvar_epi8(kAll64, diff, table);
      };

      const __mmask16 kA = eA ? 0xFFFF : 0;
      const __mmask16 kB = eB ? 0xFFFF : 0;
      const __m512i pjm = at(-d);
      const __m512i pjp = at(d);

      const __mmask16 sA = _mm512_cmpeq_epi32_mask(jv, _mm512_set1_epi32(i - d));
      const __mmask16 sB = _mm512_cmpeq_epi32_mask(jv, _mm512_set1_epi32(i + d));
      const __mmask16 eC = static_cast<__mmask16>(
          ~sB & live & _mm512_cmpgt_epi32_mask(jv, _mm512_set1_epi32(d - 1)));  // j - d >= 0
      const __mmask16 eD = static_cast<__mmask16>(
          ~sA & _mm512_cmplt_epi32_mask(jv, _mm512_set1_epi32(n - d)));  // j + d < n
      const __mmask16 mA = kA & live;
      const __mmask16 mB = kB & live;

      // The j-side differences, biased.
      const __m512i oldC = _mm512_sub_epi32(vj_plus, pjm);
      const __m512i oldD = _mm512_sub_epi32(pjp, vj_minus);
      const __m512i newA = _mm512_add_epi32(
          _mm512_mask_mov_epi32(bias, static_cast<__mmask16>(~sA),
                                _mm512_set1_epi32(oldA + kBias)),
          vd);
      const __m512i newB = _mm512_sub_epi32(
          _mm512_mask_mov_epi32(bias, static_cast<__mmask16>(~sB),
                                _mm512_set1_epi32(oldB + kBias)),
          vd);
      const __m512i newC = _mm512_sub_epi32(vi_plus, pjm);
      const __m512i newD = _mm512_sub_epi32(pjp, vi_minus);

      // Every count is only read in the lanes of its pair's existence mask.
      __m512i hits = _mm512_set1_epi32(base);

      // Removals of the j-side pairs, ledger order C, D.
      hits = dec(hits, _mm512_mask_cmpgt_epi32_mask(eC, count(oldC), one));
      const __m512i cD = dec(count(oldD), eq(eC, oldD, oldC));
      hits = dec(hits, _mm512_mask_cmpgt_epi32_mask(eD, cD, one));

      // Additions: the count after every removal, plus the earlier
      // additions in the ledger order A, B, C, D. A new difference never
      // equals its own pair's old one (vd != 0).
      __m512i cA = dec(count(newA), eq(eC, newA, oldC));
      cA = dec(cA, eq(eD, newA, oldD));
      hits = inc(hits, _mm512_mask_cmpgt_epi32_mask(mA, cA, zero));

      __m512i cB = dec(count(newB), eq(eC, newB, oldC));
      cB = dec(cB, eq(eD, newB, oldD));
      cB = inc(cB, eq(kA, newB, newA));
      hits = inc(hits, _mm512_mask_cmpgt_epi32_mask(mB, cB, zero));

      __m512i cC = dec(count(newC), eq(eD, newC, oldD));
      cC = inc(cC, eq(kA, newC, newA));
      cC = inc(cC, eq(kB, newC, newB));
      hits = inc(hits, _mm512_mask_cmpgt_epi32_mask(eC, cC, zero));

      __m512i cDn = dec(count(newD), eq(eC, newD, oldC));
      cDn = inc(cDn, eq(kA, newD, newA));
      cDn = inc(cDn, eq(kB, newD, newB));
      cDn = inc(cDn, eq(eC, newD, newC));
      hits = inc(hits, _mm512_mask_cmpgt_epi32_mask(eD, cDn, zero));

      const __m512i v_w = _mm512_set1_epi32(static_cast<int32_t>(ctx.errw[d]));
      sum = _mm512_add_epi32(sum, _mm512_mullo_epi32(hits, v_w));
    }
    // Scatter the block's live lanes to j = k (k < i) or j = k + 1 (k >= i)
    // with masked stores, widened to int64.
    const __m512i lo = widen_half<0>(sum);
    const __m512i hi = widen_half<1>(sum);
    const auto store = [&](int64_t* at_k0, __mmask16 k) {
      if (static_cast<__mmask8>(k) != 0)
        _mm512_mask_storeu_epi64(at_k0, static_cast<__mmask8>(k), lo);
      if (static_cast<__mmask8>(k >> 8) != 0)
        _mm512_mask_storeu_epi64(at_k0 + 8, static_cast<__mmask8>(k >> 8), hi);
    };
    store(out + k0, static_cast<__mmask16>(live & ~past));
    store(out + k0 + 1, static_cast<__mmask16>(live & past));
  }
  out[i] = kDeltaRowExcluded;
}

namespace {

/// The candidate pair pass's values, staged once per pass 16 lanes (64
/// bytes) per position so the row walks run on aligned plain loads: x[a]
/// holds the lanes' values at position a, lo[a] = x[a] - (n - 1) and
/// hi[a] = lo[a] + 32, so that x[a + d] - lo[a] is the slot (0..2n - 2,
/// under 64) of position a's difference in row d relative to the bitset's
/// low word and x[a + d] - hi[a] relative to its high word.
struct StagedPair {
  int n;
  alignas(64) int32_t x[16 * kAvx512MaxN];
  alignas(64) int32_t lo[16 * kAvx512MaxN];
  alignas(64) int32_t hi[16 * kAvx512MaxN];
};

/// Stages the lanes of `live` (the others read as zero) into `to`, whose
/// n is set.
void stage_pair(const int32_t* base, size_t lane_stride, __mmask16 live, StagedPair& to) {
  const __m512i offset = _mm512_set1_epi32(to.n - 1);
  const __m512i half = _mm512_set1_epi32(32);
  for (int a = 0; a < to.n; ++a) {
    const __m512i v = _mm512_maskz_loadu_epi32(live, base + static_cast<size_t>(a) * lane_stride);
    const __m512i lo = _mm512_sub_epi32(v, offset);
    _mm512_store_si512(to.x + 16 * a, v);
    _mm512_store_si512(to.lo + 16 * a, lo);
    _mm512_store_si512(to.hi + 16 * a, _mm512_add_epi32(lo, half));
  }
}

/// Triangle row d's hits for the 16 staged lanes (garbage in lanes staged
/// as zero): m minus the distinct differences over the row's m = n - d
/// positions, counted per lane with a two-word bitset of the row's slots,
/// as the AVX2 leg does 8 lanes wide. A shift count outside 0..31 sets no
/// bit, so no lane addresses memory by its data. Two positions per step
/// fold their bits in with one vpternlogd per word.
[[nodiscard]] __m512i row_hits(const StagedPair& staged, int d) {
  const int m = staged.n - d;
  const __m512i one = _mm512_set1_epi32(1);
  const auto at = [](const int32_t* column, int a) { return _mm512_load_si512(column + 16 * a); };
  const auto bit = [&](__m512i x, const int32_t* column, int a) {
    return _mm512_maskz_sllv_epi32(kAll16, one, _mm512_sub_epi32(x, at(column, a)));
  };
  __m512i seen_lo = _mm512_setzero_si512();
  __m512i seen_hi = _mm512_setzero_si512();
  int a = 0;
  for (; a + 1 < m; a += 2) {
    const __m512i x0 = at(staged.x, a + d);
    const __m512i x1 = at(staged.x, a + 1 + d);
    seen_lo = _mm512_ternarylogic_epi32(seen_lo, bit(x0, staged.lo, a),
                                        bit(x1, staged.lo, a + 1), 0xFE);
    seen_hi = _mm512_ternarylogic_epi32(seen_hi, bit(x0, staged.hi, a),
                                        bit(x1, staged.hi, a + 1), 0xFE);
  }
  if (a < m) {
    const __m512i x0 = at(staged.x, a + d);
    seen_lo = _mm512_or_si512(seen_lo, bit(x0, staged.lo, a));
    seen_hi = _mm512_or_si512(seen_hi, bit(x0, staged.hi, a));
  }
  const __m512i distinct =
      _mm512_add_epi32(_mm512_popcnt_epi32(seen_lo), _mm512_popcnt_epi32(seen_hi));
  return _mm512_sub_epi32(_mm512_set1_epi32(m), distinct);
}

/// w * h for the 8 int64 lanes of h (0 <= h < 2^32) and any int64 w,
/// exact as the scalar int64 product: w's low and high words multiplied
/// separately (vpmuludq), the high product shifted into place.
[[nodiscard]] inline __m512i weigh(__m512i h, __m512i w, __m512i w_high) {
  return _mm512_add_epi64(
      _mm512_maskz_mul_epu32(kAll8, h, w),
      _mm512_maskz_slli_epi64(kAll8, _mm512_maskz_mul_epu32(kAll8, h, w_high), 32));
}

}  // namespace

void evaluate_chunk_pair_avx512(const CostasCtx& ctx, const int32_t* base, size_t lane_stride,
                                int lanes, int64_t bound, int64_t* partial, bool* aborted) {
  const __mmask16 live = low_lanes(lanes);
  // Chunk 1's partial-sum snapshot per row (depth <= n - 1).
  alignas(64) int64_t snapshots[8 * (kAvx512MaxN - 1)];
  StagedPair staged;
  staged.n = ctx.n;
  stage_pair(base, lane_stride, live, staged);
  const __mmask8 live0 = static_cast<__mmask8>(live);
  const __mmask8 live1 = static_cast<__mmask8>(live >> 8);
  const __m512i v_bound = _mm512_set1_epi64(bound);
  // Whether every live lane of a chunk's partial sums has reached a bound.
  const auto reached = [](__mmask8 k, __m512i sums, __m512i at) {
    return _mm512_mask_cmpge_epi64_mask(k, sums, at) == k;
  };
  __m512i sum0 = _mm512_setzero_si512();
  __m512i sum1 = _mm512_setzero_si512();
  bool walk0 = true, walk1 = live1 != 0;
  bool stop0 = false, stop1 = false;
  int rows1 = 0;  // rows chunk 1 walked, one snapshot each
  for (int d = 1; d <= ctx.depth && (walk0 || walk1); ++d) {
    const __m512i hits = row_hits(staged, d);
    const __m512i w = _mm512_set1_epi64(ctx.errw[d]);
    const __m512i w_high =
        _mm512_set1_epi64(static_cast<int64_t>(static_cast<uint64_t>(ctx.errw[d]) >> 32));
    if (walk0) {
      sum0 = _mm512_add_epi64(sum0, weigh(widen_half<0>(hits), w, w_high));
      stop0 = reached(live0, sum0, v_bound);
      walk0 = !stop0;
    }
    if (walk1) {
      sum1 = _mm512_add_epi64(sum1, weigh(widen_half<1>(hits), w, w_high));
      _mm512_store_si512(snapshots + 8 * rows1++, sum1);
      stop1 = reached(live1, sum1, v_bound);
      walk1 = !stop1;
    }
  }
  _mm512_storeu_si512(partial, sum0);
  if (!stop0 && live1 != 0) {
    // Chunk 0 completed, so chunk 1's bound is chunk 0's best exact cost:
    // its abort row is the first snapshot with every live lane at or past
    // it (partials only grow). With none, chunk 1 completed too.
    int64_t best0 = partial[0];
    for (int l = 1; l < lanes && l < 8; ++l) best0 = partial[l] < best0 ? partial[l] : best0;
    const __m512i v_best0 = _mm512_set1_epi64(best0);
    stop1 = false;
    for (int r = 0; r < rows1 && !stop1; ++r) {
      const __m512i snapshot = _mm512_load_si512(snapshots + 8 * r);
      if (reached(live1, snapshot, v_best0)) {
        sum1 = snapshot;
        stop1 = true;
      }
    }
  }
  _mm512_storeu_si512(partial + 8, sum1);
  aborted[0] = stop0;
  aborted[1] = stop1;
}

}  // namespace cas::simd::detail

#endif  // CAS_SIMD_AVX512
