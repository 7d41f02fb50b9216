// Internal contract between the dispatching kernel fronts (reduce.cpp,
// costas_kernels.cpp) and the per-ISA backend translation units. Each
// backend TU is compiled with its target flags (-mavx2 / -msse4.2) and
// ONLY when CMake enabled it, so every declaration here may be missing at
// link time — call sites must guard with the same CAS_SIMD_* macros CMake
// sets on the dispatch-aware sources.
//
// Backend functions implement exactly the semantics documented on their
// public fronts (reduce.hpp, costas_kernels.hpp) and must be bit-identical
// to the scalar reference: the parity fuzz suite holds every backend to
// that bar, and trajectory identity of SIMD-on vs SIMD-off search runs
// depends on it.
#pragma once

#include <cstdint>
#include <cstddef>

namespace cas::simd {

struct CostasCtx;  // costas_kernels.hpp

namespace detail {

// Candidate-batch row walk (costas_evaluate_batch): count, for each of the
// 8 candidate lanes starting at `base` (column-major, stride lane_stride),
// the number of colliding pairs triangle row d contributes — i.e. the
// positions whose difference already appeared earlier in the row, which is
// m - (distinct differences) for the row's m = n - d positions. All 8 lanes
// are computed unconditionally (padded lanes carry garbage the caller
// discards, and must never make a kernel address memory by their data).
// The AVX2 leg counts the distinct differences with a per-lane bitset over
// the row's 2n - 1 slots and needs no scratch; the SSE4.2 and NEON legs
// compare every difference with the earlier ones, staging the row's
// per-lane difference columns in `diff_scratch` (at least n * 8 int32).
#if defined(CAS_SIMD_AVX2)
int64_t min_value_avx2(const int64_t* v, int n);
int64_t max_value_where_le_avx2(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                int n, bool* any);
/// Accumulates the weighted delta hits of the vectorizable ("no pair shared
/// with the culprit") lanes of triangle row d into acc, leaving masked
/// lanes (j == i, j == i +- d) and the block tail untouched. Returns the
/// first j the caller must finish scalar (the vectorized prefix length).
int costas_delta_row_block_avx2(const CostasCtx& ctx, int i, int d, const int32_t* padded_perm,
                                int pad, int32_t* acc);
void costas_errors_row_avx2(const CostasCtx& ctx, int d, int64_t* errs);
void batch_row_hits_avx2(const int32_t* base, size_t lane_stride, int n, int d,
                         int32_t* hits);
#endif

#if defined(CAS_SIMD_SSE42)
int64_t min_value_sse42(const int64_t* v, int n);
int64_t max_value_where_le_sse42(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                 int n, bool* any);
void batch_row_hits_sse42(const int32_t* base, size_t lane_stride, int n, int d,
                          int32_t* hits, int32_t* diff_scratch);
#endif

#if defined(CAS_SIMD_NEON)
int64_t min_value_neon(const int64_t* v, int n);
int64_t max_value_where_le_neon(const int64_t* v, const uint64_t* gate, uint64_t bound,
                                int n, bool* any);
/// NEON leg of the batched culprit-row fill: the per-lane difference and
/// ledger arithmetic runs 4 lanes wide; the occ-row lookups (NEON has no
/// gather) drop to per-lane scalar loads between the two vector halves.
int costas_delta_row_block_neon(const CostasCtx& ctx, int i, int d, const int32_t* padded_perm,
                                int pad, int32_t* acc);
void batch_row_hits_neon(const int32_t* base, size_t lane_stride, int n, int d,
                         int32_t* hits, int32_t* diff_scratch);
#endif

}  // namespace detail
}  // namespace cas::simd
