#include "simd/costas_kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simd/backends.hpp"

namespace cas::simd {

namespace {

[[nodiscard]] inline const int32_t* row_ptr(const CostasCtx& ctx, int d) {
  // Offset by n - 1 so the row is indexable by a (possibly negative)
  // difference value, mirroring the scalar delta.
  return ctx.occ + static_cast<size_t>(d - 1) * ctx.stride + static_cast<size_t>(ctx.n - 1);
}

/// Net collision-hit change (unweighted) of swapping x < y within triangle
/// row d — the per-row ledger of the scalar delta (costas/model.cpp),
/// exact for every endpoint/bucket coincidence. Multiply by errw[d] for
/// the cost change.
[[nodiscard]] int row_delta_hits(const CostasCtx& ctx, const int32_t* row, int d, int x, int y) {
  const int* const perm = ctx.perm;
  const int n = ctx.n;
  const int vx = perm[x], vy = perm[y];
  const int vd = vy - vx;
  int oldd[4], newd[4];
  int np = 0;
  if (x - d >= 0) {
    oldd[np] = vx - perm[x - d];
    newd[np] = oldd[np] + vd;
    ++np;
  }
  if (x + d < n) {
    if (x + d == y) {  // the (x, y) pair itself: both endpoints swap
      oldd[np] = vd;
      newd[np] = -vd;
    } else {
      oldd[np] = perm[x + d] - vx;
      newd[np] = oldd[np] - vd;
    }
    ++np;
  }
  if (y - d >= 0 && y - d != x) {
    oldd[np] = vy - perm[y - d];
    newd[np] = oldd[np] - vd;
    ++np;
  }
  if (y + d < n) {
    oldd[np] = perm[y + d] - vy;
    newd[np] = oldd[np] + vd;
    ++np;
  }
  int hits = 0;
  for (int t = 0; t < np; ++t) {
    int32_t c = row[oldd[t]];
    for (int u = 0; u < t; ++u) c -= static_cast<int32_t>(oldd[u] == oldd[t]);
    if (c >= 2) --hits;
  }
  for (int t = 0; t < np; ++t) {
    int32_t c = row[newd[t]];
    for (int u = 0; u < np; ++u) c -= static_cast<int32_t>(oldd[u] == newd[t]);
    for (int u = 0; u < t; ++u) c += static_cast<int32_t>(newd[u] == newd[t]);
    if (c >= 1) ++hits;
  }
  return hits;
}

[[nodiscard]] inline int64_t lane_delta(const CostasCtx& ctx, const int32_t* row, int d, int i,
                                        int j) {
  return row_delta_hits(ctx, row, d, std::min(i, j), std::max(i, j));
}

#if defined(CAS_SIMD_NEON)
/// Signature of the NEON culprit-row block kernel.
using DeltaRowBlockFn = int (*)(const CostasCtx&, int, int, const int32_t*, int, int32_t*);

/// Driver for the NEON culprit-row fill (the AVX2 fill is one call of its
/// own, detail::costas_delta_row_avx2): stages the padded permutation copy
/// (so the block kernel's shifted loads perm[j - d] / perm[j + d] stay in
/// bounds at the row edges), runs the block kernel per triangle row, then
/// finishes the block tail and the two lanes the vector pass masked out
/// because they share a triangle pair with the culprit in that row.
void delta_row_vectorized(const CostasCtx& ctx, int i, int32_t* acc, DeltaRowBlockFn block) {
  const int n = ctx.n;
  thread_local std::vector<int32_t> padded;
  const int pad = ctx.depth;
  padded.assign(static_cast<size_t>(n + 2 * pad), 0);
  for (int k = 0; k < n; ++k) padded[static_cast<size_t>(pad + k)] = ctx.perm[k];
  for (int d = 1; d <= ctx.depth; ++d) {
    const int32_t* row = row_ptr(ctx, d);
    const int32_t w32 = static_cast<int32_t>(ctx.errw[d]);
    const int vec_end = block(ctx, i, d, padded.data(), pad, acc);
    for (int j = vec_end; j < n; ++j)
      if (j != i)
        acc[j] += w32 * static_cast<int32_t>(lane_delta(ctx, row, d, i, j));
    for (const int j : {i - d, i + d})
      if (j >= 0 && j < vec_end)
        acc[j] += w32 * static_cast<int32_t>(lane_delta(ctx, row, d, i, j));
  }
}
#endif

}  // namespace

void costas_delta_row(const CostasCtx& ctx, int i, int64_t* out) {
  const int n = ctx.n;
  // The batched paths accumulate weighted hits in int32 lanes; |delta| is
  // bounded by 4 * depth * max_w <= 4 * (n - 1) * n^2 (quadratic weights,
  // no Chang cut), which stays inside int32 for n <= 812. Costas search
  // sizes sit two orders of magnitude under that; a synthetic giant
  // instance falls back to direct int64 accumulation.
  if (n > detail::kDeltaRowMaxVectorN) {
    for (int j = 0; j < n; ++j) {
      if (j == i) {
        out[j] = kDeltaRowExcluded;
        continue;
      }
      int64_t delta = 0;
      for (int d = 1; d <= ctx.depth; ++d)
        delta += ctx.errw[d] * lane_delta(ctx, row_ptr(ctx, d), d, i, j);
      out[j] = delta;
    }
    return;
  }

  const Isa isa = active_isa();
#if defined(CAS_SIMD_AVX512)
  if (isa == Isa::kAvx512 && n <= detail::kAvx512MaxN) {
    detail::costas_delta_row_avx512(ctx, i, out);
    return;
  }
#endif
#if defined(CAS_SIMD_AVX2)
  if (detail::avx2_for_avx512(isa) == Isa::kAvx2) {
    detail::costas_delta_row_avx2(ctx, i, out);
    return;
  }
#endif
  thread_local std::vector<int32_t> acc;
  acc.assign(static_cast<size_t>(n), 0);
  bool vectorized = false;
#if defined(CAS_SIMD_NEON)
  if (isa == Isa::kNeon && n >= 4) {
    // The NEON block kernel has no gather: it fetches the occ counts with
    // per-lane scalar loads through a transposed index/mask spill (see
    // kernels_neon.cpp).
    delta_row_vectorized(ctx, i, acc.data(), detail::costas_delta_row_block_neon);
    vectorized = true;
  }
#endif
  if (!vectorized) {
    // Scalar batch: same triangle walk, row setup amortized over all j.
    for (int d = 1; d <= ctx.depth; ++d) {
      const int32_t* row = row_ptr(ctx, d);
      const int32_t w32 = static_cast<int32_t>(ctx.errw[d]);
      for (int j = 0; j < n; ++j)
        if (j != i)
          acc[static_cast<size_t>(j)] +=
              w32 * static_cast<int32_t>(lane_delta(ctx, row, d, i, j));
    }
  }
  for (int j = 0; j < n; ++j)
    out[j] = (j == i) ? kDeltaRowExcluded : static_cast<int64_t>(acc[static_cast<size_t>(j)]);
}

namespace {

/// Scalar reference for one candidate chunk's triangle row: per lane, walk
/// the row's differences through a touched-slot histogram (the
/// evaluate_bounded trick: clear only what was written) and count the
/// positions whose difference was already present. Bit-identical to the
/// vector backends by construction — a collision count is exact integer
/// data, not an approximation.
void batch_row_hits_scalar(const int32_t* base, size_t lane_stride, int n, int d,
                           int lanes, int32_t* hits, int32_t* seen) {
  // seen is a caller-provided all-zero scratch of 2n-1 slots, returned
  // all-zero (diff + n - 1 indexing, mirroring the occ rows).
  const int m = n - d;
  for (int l = 0; l < lanes; ++l) {
    int32_t h = 0;
    for (int a = 0; a < m; ++a) {
      const int32_t diff =
          base[static_cast<size_t>(a + d) * lane_stride + static_cast<size_t>(l)] -
          base[static_cast<size_t>(a) * lane_stride + static_cast<size_t>(l)];
      int32_t& c = seen[diff + n - 1];
      h += static_cast<int32_t>(++c >= 2);
    }
    for (int a = 0; a < m; ++a) {
      const int32_t diff =
          base[static_cast<size_t>(a + d) * lane_stride + static_cast<size_t>(l)] -
          base[static_cast<size_t>(a) * lane_stride + static_cast<size_t>(l)];
      seen[diff + n - 1] = 0;
    }
    hits[l] = h;
  }
}

}  // namespace

int costas_evaluate_batch(const CostasCtx& ctx, const int32_t* values, size_t lane_stride,
                          int count, int64_t bound, int64_t* out, int64_t escape_below,
                          int* escaped_chunks) {
  constexpr int kChunk = 8;
  int aborted_chunks = 0;
  const int n = ctx.n;
  // One row pass per call, whatever force_isa() does meanwhile.
  const Isa isa = active_isa();

  // Settles a walked chunk, in chunk order: reports its partials, counts
  // an abort, and otherwise tightens the shared bound to its best exact
  // cost. True when the walk stops there: the caller is hunting the FIRST
  // candidate below escape_below, and later ones can never be it.
  const auto settle = [&](int c0, int lanes, const int64_t* partial, bool aborted) {
    int64_t chunk_best = INT64_MAX;
    for (int l = 0; l < lanes; ++l) {
      out[c0 + l] = partial[l];
      chunk_best = std::min(chunk_best, partial[l]);
    }
    if (aborted) {
      ++aborted_chunks;
      return false;
    }
    bound = std::min(bound, chunk_best);
    return chunk_best < escape_below;
  };
  const auto filled = [&](int leading) {
    if (escaped_chunks != nullptr) *escaped_chunks = aborted_chunks;
    return leading;
  };

#if defined(CAS_SIMD_AVX512)
  if (isa == Isa::kAvx512 && n <= detail::kAvx512MaxN) {
    // Two chunks per pass; the pass resolves the second one under the
    // bound the first leaves, so settling them in order is the 8-lane walk.
    for (int c0 = 0; c0 < count; c0 += 2 * kChunk) {
      const int lanes = std::min(2 * kChunk, count - c0);
      int64_t partial[2 * kChunk];
      bool aborted[2];
      detail::evaluate_chunk_pair_avx512(ctx, values + c0, lane_stride, lanes, bound, partial,
                                         aborted);
      for (int h = 0; h * kChunk < lanes; ++h) {
        const int first = c0 + h * kChunk;
        const int chunk_lanes = std::min(kChunk, lanes - h * kChunk);
        if (settle(first, chunk_lanes, partial + h * kChunk, aborted[h]))
          return filled(first + chunk_lanes);
      }
    }
    return filled(count);
  }
#endif

  // Scratches, grown once per thread so hot reset loops stay
  // allocation-free: the pairwise legs stage one row's per-lane difference
  // columns; the scalar reference keeps a touched-slot histogram. Both are
  // sized whatever the tier, so the switch's scalar fallback can never run
  // on an unsized histogram.
  thread_local std::vector<int32_t> diff_scratch;
  thread_local std::vector<int32_t> seen_scratch;
  if (seen_scratch.size() < static_cast<size_t>(2 * n - 1))
    seen_scratch.assign(static_cast<size_t>(2 * n - 1), 0);
  if (diff_scratch.size() < static_cast<size_t>(n) * kChunk)
    diff_scratch.resize(static_cast<size_t>(n) * kChunk);

  for (int c0 = 0; c0 < count; c0 += kChunk) {
    const int lanes = std::min(kChunk, count - c0);
    const int32_t* const chunk_base = values + c0;
    int64_t partial[kChunk] = {0, 0, 0, 0, 0, 0, 0, 0};
    int32_t hits[kChunk];
    bool aborted = false;
    for (int d = 1; d <= ctx.depth; ++d) {
      // Per-ISA row pass; every variant produces the same exact counts.
      switch (detail::avx2_for_avx512(isa)) {
#if defined(CAS_SIMD_AVX2)
        case Isa::kAvx2:
          detail::batch_row_hits_avx2(chunk_base, lane_stride, n, d, hits);
          break;
#endif
#if defined(CAS_SIMD_SSE42)
        case Isa::kSse42:
          detail::batch_row_hits_sse42(chunk_base, lane_stride, n, d, hits,
                                       diff_scratch.data());
          break;
#endif
#if defined(CAS_SIMD_NEON)
        case Isa::kNeon:
          detail::batch_row_hits_neon(chunk_base, lane_stride, n, d, hits,
                                      diff_scratch.data());
          break;
#endif
        default:
          batch_row_hits_scalar(chunk_base, lane_stride, n, d, lanes, hits,
                                seen_scratch.data());
          break;
      }
      const int64_t w = ctx.errw[d];
      int64_t min_partial = INT64_MAX;
      for (int l = 0; l < lanes; ++l) {
        partial[l] += w * hits[l];
        min_partial = std::min(min_partial, partial[l]);
      }
      // Shared-bound pruning: once every live lane has reached the bound,
      // no candidate in this chunk can beat the best-so-far — stop walking
      // rows and report the (truncated) partials.
      if (min_partial >= bound) {
        aborted = true;
        break;
      }
    }
    if (settle(c0, lanes, partial, aborted)) return filled(c0 + lanes);
  }
  return filled(count);
}

void costas_errors(const CostasCtx& ctx, int64_t* errs) {
  const int n = ctx.n;
  std::fill(errs, errs + n, int64_t{0});
  for (int d = 1; d <= ctx.depth; ++d) {
#if defined(CAS_SIMD_AVX2)
    if (detail::avx2_for_avx512(active_isa()) == Isa::kAvx2 && n - d >= 8) {
      detail::costas_errors_row_avx2(ctx, d, errs);
      continue;
    }
#endif
    const int32_t* row = row_ptr(ctx, d);
    const int64_t w = ctx.errw[d];
    for (int a = 0; a + d < n; ++a) {
      const int diff = ctx.perm[a + d] - ctx.perm[a];
      if (row[diff] >= 2) {
        errs[a] += w;
        errs[a + d] += w;
      }
    }
  }
}

}  // namespace cas::simd
