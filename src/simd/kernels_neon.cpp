// NEON backend (aarch64 baseline; 2-lane int64 reductions). NEON has no
// 64-bit integer min/max instruction, so lanes are selected through
// compare + bit-select. Compiled only when CMake enables it
// (CAS_SIMD_NEON); a no-op otherwise.
#if defined(CAS_SIMD_NEON)

#include <arm_neon.h>

#include <cstdint>
#include <limits>

#include "simd/backends.hpp"
#include "simd/costas_kernels.hpp"

namespace cas::simd::detail {

int64_t min_value_neon(const int64_t* v, int n) {
  int64x2_t best = vdupq_n_s64(std::numeric_limits<int64_t>::max());
  int k = 0;
  for (; k + 2 <= n; k += 2) {
    const int64x2_t x = vld1q_s64(v + k);
    best = vbslq_s64(vcgtq_s64(x, best), best, x);  // lane-wise min
  }
  int64_t out = vgetq_lane_s64(best, 0);
  const int64_t out1 = vgetq_lane_s64(best, 1);
  if (out1 < out) out = out1;
  for (; k < n; ++k)
    if (v[k] < out) out = v[k];
  return out;
}

int64_t max_value_where_le_neon(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                int n, bool* any) {
  const uint64x2_t vbound = vdupq_n_u64(bound);
  int64x2_t best = vdupq_n_s64(std::numeric_limits<int64_t>::min());
  uint64x2_t anyv = vdupq_n_u64(0);
  int k = 0;
  for (; k + 2 <= n; k += 2) {
    const uint64x2_t pass = vcleq_u64(vld1q_u64(gate + k), vbound);
    anyv = vorrq_u64(anyv, pass);
    const int64x2_t x = vld1q_s64(v + k);
    const int64x2_t cand = vbslq_s64(pass, x, best);
    best = vbslq_s64(vcgtq_s64(best, cand), best, cand);  // lane-wise max
  }
  int64_t out = vgetq_lane_s64(best, 0);
  const int64_t out1 = vgetq_lane_s64(best, 1);
  if (out1 > out) out = out1;
  bool found = (vgetq_lane_u64(anyv, 0) | vgetq_lane_u64(anyv, 1)) != 0;
  for (; k < n; ++k) {
    if (gate[k] > bound) continue;
    found = true;
    if (v[k] > out) out = v[k];
  }
  if (any != nullptr) *any = found;
  return out;
}

void batch_row_hits_neon(const int32_t* base, size_t lane_stride, int n, int d,
                         int32_t* hits, int32_t* diff_scratch) {
  // Same pairwise-compare formulation as the SSE4.2 leg, run as two 4-lane
  // halves over the fixed 8-lane chunk: stage the row's per-lane
  // differences, then count positions whose difference already appeared
  // earlier in the row (exact integer counts — bit-identical to the scalar
  // histogram).
  const int m = n - d;
  for (int a = 0; a < m; ++a) {
    for (int half = 0; half < 2; ++half) {
      const int32x4_t lo =
          vld1q_s32(base + static_cast<size_t>(a) * lane_stride + half * 4);
      const int32x4_t hi =
          vld1q_s32(base + static_cast<size_t>(a + d) * lane_stride + half * 4);
      vst1q_s32(diff_scratch + a * 8 + half * 4, vsubq_s32(hi, lo));
    }
  }
  for (int half = 0; half < 2; ++half) {
    int32x4_t acc = vdupq_n_s32(0);
    for (int a = 1; a < m; ++a) {
      const int32x4_t da = vld1q_s32(diff_scratch + a * 8 + half * 4);
      uint32x4_t match = vdupq_n_u32(0);
      for (int b = 0; b < a; ++b)
        match = vorrq_u32(match, vceqq_s32(da, vld1q_s32(diff_scratch + b * 8 + half * 4)));
      acc = vsubq_s32(acc, vreinterpretq_s32_u32(match));  // mask lanes are -1 per hit
    }
    vst1q_s32(hits + half * 4, acc);
  }
}

int costas_delta_row_block_neon(const CostasCtx& ctx, int i, int d, const int32_t* padded_perm,
                                int pad, int32_t* acc) {
  // The gather-free aarch64 leg of the batched culprit-row fill. Lane l
  // of a block is j = j0 + l: lanes j == i and j == i +- d are masked out
  // for the driver's scalar pass (delta_row_vectorized), as is the block
  // tail, and every other lane's ledger is resolved exactly. (The AVX2
  // fill instead compacts j past i and folds the i +- d lanes into its
  // ledger; see kernels_avx2.cpp.) NEON has no gather, so the
  // kernel runs in three phases per 4-lane block — vector arithmetic for
  // the difference/mask table, a transposed spill of that table through
  // which the occ-row counts are fetched with per-lane scalar loads, and
  // a vector finish for the ledger compare chains (the bulk of the work).
  const int n = ctx.n;
  const int vec_end = n & ~3;
  const int* const perm = ctx.perm;
  const int32_t* const row =
      ctx.occ + static_cast<size_t>(d - 1) * ctx.stride + static_cast<size_t>(n - 1);
  const int vi = perm[i];
  const bool eA = i - d >= 0;  // culprit pair (i-d, i)
  const bool eB = i + d < n;   // culprit pair (i, i+d)
  const int oldA = eA ? vi - perm[i - d] : 0;
  const int oldB = eB ? perm[i + d] - vi : 0;

  // Removal hits on the culprit's own pairs are lane-independent: ledger
  // order (A, B), with B's count adjusted when both pairs share a bucket.
  int base = 0;
  if (eA && row[oldA] >= 2) --base;
  if (eB && row[oldB] - static_cast<int32_t>(eA && oldB == oldA) >= 2) --base;

  const int32x4_t zero = vdupq_n_s32(0);
  const int32x4_t one = vdupq_n_s32(1);
  const int32x4_t v_vi = vdupq_n_s32(vi);
  const int32x4_t v_oldA = vdupq_n_s32(oldA);
  const int32x4_t v_oldB = vdupq_n_s32(oldB);
  const uint32x4_t v_eA = vdupq_n_u32(eA ? 0xffffffffu : 0u);
  const uint32x4_t v_eB = vdupq_n_u32(eB ? 0xffffffffu : 0u);
  const int32x4_t v_i = vdupq_n_s32(i);
  const int32x4_t v_im = vdupq_n_s32(i - d);
  const int32x4_t v_ip = vdupq_n_s32(i + d);
  const int32x4_t v_base = vdupq_n_s32(base);
  const int32x4_t v_w = vdupq_n_s32(static_cast<int32_t>(ctx.errw[d]));
  const int32x4_t v_dm1 = vdupq_n_s32(d - 1);
  const int32x4_t v_nmd = vdupq_n_s32(n - d);
  const int32_t lane_init[4] = {0, 1, 2, 3};
  const int32x4_t lane0 = vld1q_s32(lane_init);

  // Indicator helpers over 0/-1 masks (as in the AVX2 leg): adding a mask
  // subtracts the indicator from a count, subtracting it adds.
  const auto m2s = [](uint32x4_t m) { return vreinterpretq_s32_u32(m); };

  for (int j0 = 0; j0 < vec_end; j0 += 4) {
    const int32x4_t jv = vaddq_s32(lane0, vdupq_n_s32(j0));
    const int32x4_t vj = vld1q_s32(perm + j0);
    const int32x4_t pjm = vld1q_s32(padded_perm + pad + j0 - d);
    const int32x4_t pjp = vld1q_s32(padded_perm + pad + j0 + d);

    // Lane classification: the culprit's own lane and the two lanes whose
    // swap shares a triangle pair with the culprit in THIS row are handled
    // scalar by the caller.
    const uint32x4_t special = vorrq_u32(
        vceqq_s32(jv, v_i), vorrq_u32(vceqq_s32(jv, v_im), vceqq_s32(jv, v_ip)));
    const uint32x4_t normal = vmvnq_u32(special);
    const uint32x4_t eC = vandq_u32(vcgtq_s32(jv, v_dm1), normal);  // j - d >= 0
    const uint32x4_t eD = vandq_u32(vcgtq_s32(v_nmd, jv), normal);  // j + d < n

    const int32x4_t vd = vsubq_s32(vj, v_vi);
    const int32x4_t oldC = vsubq_s32(vj, pjm);
    const int32x4_t oldD = vsubq_s32(pjp, vj);
    const int32x4_t newA = vaddq_s32(v_oldA, vd);
    const int32x4_t newB = vsubq_s32(v_oldB, vd);
    const int32x4_t newC = vsubq_s32(v_vi, pjm);
    const int32x4_t newD = vsubq_s32(pjp, v_vi);

    const uint32x4_t mA = vandq_u32(normal, v_eA);
    const uint32x4_t mB = vandq_u32(normal, v_eB);

    // Transposed spill: indices and masks per lane, occ-row counts fetched
    // scalar (lanes whose pair does not exist read nothing — their index
    // may be built from padding garbage).
    int32_t idx_oldC[4], idx_oldD[4], idx_newA[4], idx_newB[4], idx_newC[4], idx_newD[4];
    uint32_t msk_eC[4], msk_eD[4], msk_mA[4], msk_mB[4];
    vst1q_s32(idx_oldC, oldC);
    vst1q_s32(idx_oldD, oldD);
    vst1q_s32(idx_newA, newA);
    vst1q_s32(idx_newB, newB);
    vst1q_s32(idx_newC, newC);
    vst1q_s32(idx_newD, newD);
    vst1q_u32(msk_eC, eC);
    vst1q_u32(msk_eD, eD);
    vst1q_u32(msk_mA, mA);
    vst1q_u32(msk_mB, mB);
    int32_t cnt_oldC[4], cnt_oldD[4], cnt_newA[4], cnt_newB[4], cnt_newC[4], cnt_newD[4];
    for (int l = 0; l < 4; ++l) {
      cnt_oldC[l] = msk_eC[l] != 0 ? row[idx_oldC[l]] : 0;
      cnt_oldD[l] = msk_eD[l] != 0 ? row[idx_oldD[l]] : 0;
      cnt_newA[l] = msk_mA[l] != 0 ? row[idx_newA[l]] : 0;
      cnt_newB[l] = msk_mB[l] != 0 ? row[idx_newB[l]] : 0;
      cnt_newC[l] = msk_eC[l] != 0 ? row[idx_newC[l]] : 0;
      cnt_newD[l] = msk_eD[l] != 0 ? row[idx_newD[l]] : 0;
    }
    const int32x4_t gOldC = vld1q_s32(cnt_oldC);
    const int32x4_t gOldD = vld1q_s32(cnt_oldD);
    const int32x4_t gNewA = vld1q_s32(cnt_newA);
    const int32x4_t gNewB = vld1q_s32(cnt_newB);
    const int32x4_t gNewC = vld1q_s32(cnt_newC);
    const int32x4_t gNewD = vld1q_s32(cnt_newD);

    int32x4_t hits = v_base;

    // Removals of the j-side pairs, counts adjusted for buckets already
    // drained by earlier removals in this row's ledger (order A, B, C, D).
    int32x4_t cC = vaddq_s32(gOldC, m2s(vandq_u32(vceqq_s32(oldC, v_oldA), v_eA)));
    cC = vaddq_s32(cC, m2s(vandq_u32(vceqq_s32(oldC, v_oldB), v_eB)));
    hits = vaddq_s32(hits, m2s(vandq_u32(eC, vcgtq_s32(cC, one))));  // -1 per hit

    int32x4_t cD = vaddq_s32(gOldD, m2s(vandq_u32(vceqq_s32(oldD, v_oldA), v_eA)));
    cD = vaddq_s32(cD, m2s(vandq_u32(vceqq_s32(oldD, v_oldB), v_eB)));
    cD = vaddq_s32(cD, m2s(vandq_u32(vceqq_s32(oldD, oldC), eC)));
    hits = vaddq_s32(hits, m2s(vandq_u32(eD, vcgtq_s32(cD, one))));

    // Additions: each new diff sees the live count minus every removed old
    // diff in its bucket plus the earlier additions in ledger order.
    int32x4_t cA = vaddq_s32(gNewA, m2s(vandq_u32(vceqq_s32(newA, v_oldB), v_eB)));
    cA = vaddq_s32(cA, m2s(vandq_u32(vceqq_s32(newA, oldC), eC)));
    cA = vaddq_s32(cA, m2s(vandq_u32(vceqq_s32(newA, oldD), eD)));
    hits = vsubq_s32(hits, m2s(vandq_u32(mA, vcgtq_s32(cA, zero))));  // +1 per hit

    int32x4_t cB = vaddq_s32(gNewB, m2s(vandq_u32(vceqq_s32(newB, v_oldA), v_eA)));
    cB = vaddq_s32(cB, m2s(vandq_u32(vceqq_s32(newB, oldC), eC)));
    cB = vaddq_s32(cB, m2s(vandq_u32(vceqq_s32(newB, oldD), eD)));
    cB = vsubq_s32(cB, m2s(vandq_u32(vceqq_s32(newB, newA), v_eA)));
    hits = vsubq_s32(hits, m2s(vandq_u32(mB, vcgtq_s32(cB, zero))));

    int32x4_t cCn = vaddq_s32(gNewC, m2s(vandq_u32(vceqq_s32(newC, v_oldA), v_eA)));
    cCn = vaddq_s32(cCn, m2s(vandq_u32(vceqq_s32(newC, v_oldB), v_eB)));
    cCn = vaddq_s32(cCn, m2s(vandq_u32(vceqq_s32(newC, oldD), eD)));
    cCn = vsubq_s32(cCn, m2s(vandq_u32(vceqq_s32(newC, newA), v_eA)));
    cCn = vsubq_s32(cCn, m2s(vandq_u32(vceqq_s32(newC, newB), v_eB)));
    hits = vsubq_s32(hits, m2s(vandq_u32(eC, vcgtq_s32(cCn, zero))));

    int32x4_t cDn = vaddq_s32(gNewD, m2s(vandq_u32(vceqq_s32(newD, v_oldA), v_eA)));
    cDn = vaddq_s32(cDn, m2s(vandq_u32(vceqq_s32(newD, v_oldB), v_eB)));
    cDn = vaddq_s32(cDn, m2s(vandq_u32(vceqq_s32(newD, oldC), eC)));
    cDn = vsubq_s32(cDn, m2s(vandq_u32(vceqq_s32(newD, newA), v_eA)));
    cDn = vsubq_s32(cDn, m2s(vandq_u32(vceqq_s32(newD, newB), v_eB)));
    cDn = vsubq_s32(cDn, m2s(vandq_u32(vceqq_s32(newD, newC), eC)));
    hits = vsubq_s32(hits, m2s(vandq_u32(eD, vcgtq_s32(cDn, zero))));

    // Zero the scalar-handled lanes (they must not even see `base`), then
    // bank the weighted hits.
    hits = m2s(vandq_u32(vreinterpretq_u32_s32(hits), normal));
    vst1q_s32(acc + j0, vmlaq_s32(vld1q_s32(acc + j0), hits, v_w));
  }
  return vec_end;
}

}  // namespace cas::simd::detail

#endif  // CAS_SIMD_NEON
