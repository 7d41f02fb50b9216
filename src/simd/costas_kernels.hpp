// Batched Costas-model kernels: the difference-triangle walks behind
// CostasProblem::delta_costs_row (fill the move deltas of a culprit
// against every other variable in one pass over the triangle rows) and
// CostasProblem::compute_errors (the from-scratch per-variable error
// projection).
//
// The model hands its internal tables over through CostasCtx — raw
// pointers, no ownership — so the intrinsics stay out of src/costas/ and
// the kernels stay testable on synthetic tables. Both kernels are exact:
// every count interaction a swap's removals/additions can have inside one
// triangle row is resolved with the same ledger arithmetic the scalar
// delta uses, and the parity fuzz suite pins batched == per-j scalar for
// every lane.
#pragma once

#include <cstdint>
#include <cstddef>

#include "simd/simd.hpp"

namespace cas::simd {

/// Read-only view of the CostasProblem tables a kernel needs.
struct CostasCtx {
  const int* perm;        // permutation, n entries, values 1..n
  const int32_t* occ;     // difference-triangle occurrence counts,
                          // depth rows x stride slots (diff + n - 1)
  const int64_t* errw;    // errw[d], d = 1..depth (index 0 unused)
  int n = 0;
  int depth = 0;          // checked triangle rows
  size_t stride = 0;      // 2n - 1
};

/// Sentinel parked in out[i] (the self-swap lane) by costas_delta_row, so
/// a plain minimum over the filled row can never pick the culprit itself.
/// Mirrors core::kExcludedDelta; redeclared here to keep src/simd/ free of
/// core dependencies (static_asserted equal in the model).
inline constexpr int64_t kDeltaRowExcluded = INT64_MAX;

/// Fill out[j] with the exact cost delta of swapping variables i and j for
/// every j != i; out[i] = kDeltaRowExcluded. Exactly equivalent to calling
/// the scalar per-j delta n - 1 times, but walks each triangle row once.
void costas_delta_row(const CostasCtx& ctx, int i, int64_t* out);

/// From-scratch per-variable error projection into errs (n entries): each
/// colliding checked pair adds its row weight to both endpoints.
void costas_errors(const CostasCtx& ctx, int64_t* errs);

/// Batched stateless evaluation of `count` candidate permutations stored
/// COLUMN-MAJOR in `values` (values[i * lane_stride + c] = candidate c's
/// value at position i; lane_stride a multiple of 8, padded lanes hold
/// initialized garbage). Uses ctx only for n / depth / errw — the live occ
/// tables play no part in a from-scratch evaluation.
///
/// Candidates are processed in fixed 8-lane chunks, each chunk walking the
/// difference triangle row by row with all lanes in flight. A row's hits
/// are m - (distinct differences) over its m positions: AVX2 counts the
/// distinct differences with a per-lane bitset over the 2n - 1 difference
/// slots (linear in m); SSE4.2 and NEON compare each difference with the
/// earlier ones (quadratic in m); with no vector backend active, a scalar
/// touched-slot histogram per lane is the bit-identical reference. One
/// best-so-far bound is shared across chunks:
///   * a chunk aborts once EVERY lane's partial cost has reached the
///     bound (costs only grow row by row, so none of its candidates can
///     win any more); aborted lanes report their partial sums;
///   * a completed chunk tightens the bound to its best exact cost.
/// The chunking, row order, and abort points are ISA-independent, so the
/// filled out[] is bit-identical under every backend.
///
/// `escape_below` (optional, INT64_MIN disables): stop after the first
/// chunk that completed with some exact cost < escape_below — the caller
/// is hunting the FIRST such candidate (the custom reset's early-escape
/// rule) and anything past its chunk is dead work. Returns the number of
/// leading candidates whose out[] entries were filled (== count unless an
/// escape stopped the walk early).
///
/// `escaped_chunks` (optional): set to the number of chunks whose triangle
/// walk aborted before the last row because every live lane had reached
/// the shared bound — the dead work the pruning avoided. The count is
/// ISA-independent (chunking and abort points are part of the contract),
/// so it is usable as trajectory-stable telemetry.
int costas_evaluate_batch(const CostasCtx& ctx, const int32_t* values, size_t lane_stride,
                          int count, int64_t bound, int64_t* out,
                          int64_t escape_below = INT64_MIN, int* escaped_chunks = nullptr);

}  // namespace cas::simd
