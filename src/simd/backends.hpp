// Internal contract between the dispatching kernel fronts (reduce.cpp,
// costas_kernels.cpp) and the per-ISA backend translation units. Each
// backend TU is compiled with its target flags (-mavx512f ... / -mavx2 /
// -msse4.2) and ONLY when CMake enabled it, so every declaration here may
// be missing at link time — call sites must guard with the same CAS_SIMD_*
// macros CMake sets on the dispatch-aware sources.
//
// Backend functions implement exactly the semantics documented on their
// public fronts (reduce.hpp, costas_kernels.hpp) and must be bit-identical
// to the scalar reference: the parity fuzz suite holds every backend to
// that bar, and trajectory identity of SIMD-on vs SIMD-off search runs
// depends on it.
//
// A backend unit emits no weak symbol: its helpers live in an anonymous
// namespace and it instantiates no library template (no std::vector, no
// std::min). A weak symbol compiled with a backend's target flags could be
// the copy the linker keeps for the whole program, and would fault on a
// host without that ISA. The kernels keep their scratch in fixed-size
// stack arrays; tools/ci/codegen.sh fails on a weak symbol in a backend
// object.
#pragma once

#include <cstdint>
#include <cstddef>

#include "simd/simd.hpp"

namespace cas::simd {

struct CostasCtx;  // costas_kernels.hpp

namespace detail {

/// The tier whose code a front without an AVX-512 kernel of its own runs:
/// the AVX-512 tier brings only the culprit-row fill and the reset's
/// candidate pass, and sends every other kernel to its AVX2 code.
[[nodiscard]] constexpr Isa avx2_for_avx512(Isa isa) {
  return isa == Isa::kAvx512 ? Isa::kAvx2 : isa;
}

/// The largest n the culprit-row fill runs on a vector backend: its int32
/// lanes hold |delta| up to there (see costas_delta_row).
inline constexpr int kDeltaRowMaxVectorN = 768;

/// The largest n the AVX-512 tier's two kernels take: a triangle row's
/// 2n - 1 difference slots fit one 64-byte table and one 64-slot bitset.
/// Under that tier larger sizes run the AVX2 kernels.
inline constexpr int kAvx512MaxN = 32;

#if defined(CAS_SIMD_AVX512)
/// The culprit-row fill (costas_delta_row, n <= kAvx512MaxN) in one call:
/// the AVX2 fill's lane layout and ledger run 16 lanes wide, one block at
/// n <= 17 and two up to n = 32. Each row's 2n - 1 counts, without the
/// culprit's own two pairs, sit in a 64-byte table read with vpermb.
void costas_delta_row_avx512(const CostasCtx& ctx, int i, int64_t* out);
/// costas_evaluate_batch's walk (n <= kAvx512MaxN) over the `lanes`
/// (1..16) candidates at base as two 8-lane chunks in one pass, each row's
/// hits counted 16 lanes wide with vpopcntd. Fills partial[0, lanes) and
/// aborted[0..1] exactly as the 8-lane walk would: chunk 0 under `bound`,
/// chunk 1 under the bound chunk 0 leaves (its best exact cost when it
/// completed). Chunk 1 walks alongside chunk 0 under `bound` and keeps a
/// partial-sum snapshot per row, from which its abort row is re-read when
/// chunk 0 completes and tightens the bound.
void evaluate_chunk_pair_avx512(const CostasCtx& ctx, const int32_t* base, size_t lane_stride,
                                int lanes, int64_t bound, int64_t* partial, bool* aborted);
#endif

// Candidate-batch row walk (costas_evaluate_batch; the AVX-512 tier walks
// two chunks per pass with evaluate_chunk_pair_avx512 above up to
// kAvx512MaxN, and the AVX2 leg past it): count, for each of the 8
// candidate lanes starting at `base` (column-major, stride lane_stride),
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
/// The whole culprit-row fill (costas_delta_row up to
/// kDeltaRowMaxVectorN) in one call: it stages a padded copy of the
/// permutation, runs 8-lane blocks over the culprit's n - 1 swaps
/// compacted past i in every triangle row (the two swaps that share a pair
/// with the culprit in that row included), and scatters the sums to out
/// with the sentinel at out[i]. No lane is left to a scalar pass.
void costas_delta_row_avx2(const CostasCtx& ctx, int i, int64_t* out);
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
