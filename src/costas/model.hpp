// The Costas Array Problem modeled for Adaptive Search — the paper's
// Sec. IV with all three published optimizations:
//
//   * error weight ERR(d) = n^2 - d^2 penalizing collisions in the long
//     (small-d) rows of the difference triangle (Sec. IV-B, ~17% faster
//     than ERR(d) = 1),
//   * Chang's remark: only rows d <= floor((n-1)/2) need checking
//     (Sec. IV-B, ~30% faster) — a collision in a longer-distance row
//     always implies one in a shorter-distance row,
//   * the custom reset procedure with three perturbation families
//     (Sec. IV-B, ~3.7x speedup over the generic percentage reset).
//
// Incremental evaluation: per difference-triangle row d we keep occurrence
// counts occ[d][diff]. A swap of two positions touches at most 4*D triangle
// cells (D = number of checked rows), so delta_cost/apply_swap are O(D):
//
//   * delta_cost(i, j) is PURE — it walks the affected triangle cells of
//     both the old and the new permutation against the live occ[] counters
//     plus a small scratch ledger for intra-move interactions, without
//     touching any state (no do/undo),
//   * apply_swap additionally maintains the per-variable error table errs_
//     in place: each occ[] bucket also tracks the sum of the start indices
//     of the pairs it holds, so when a bucket crosses the collision
//     threshold (count 1 <-> 2) the formerly/newly lone pair is recovered
//     in O(1) and its endpoints' errors adjusted. errors() is therefore
//     always fresh at zero per-iteration cost for the engines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/problem.hpp"
#include "core/rng.hpp"

namespace cas::costas {

using core::Cost;

enum class ErrFunction {
  kUnit,       // ERR(d) = 1 (the paper's "basic model")
  kQuadratic,  // ERR(d) = n^2 - d^2 (the paper's tuned model)
};

struct CostasOptions {
  ErrFunction err = ErrFunction::kQuadratic;
  bool use_chang = true;  // check only rows d <= floor((n-1)/2)
};

class CostasProblem {
 public:
  explicit CostasProblem(int n, CostasOptions opts = {});

  // --- LocalSearchProblem interface ---
  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)]; }
  void randomize(core::Rng& rng);
  [[nodiscard]] Cost delta_cost(int i, int j) const;
  /// Batched move evaluation: out[j] = delta_cost(i, j) for every j != i
  /// (out[i] = core::kExcludedDelta), walking each difference-triangle row
  /// ONCE and filling all j lanes of it. Under AVX2 every one of the n - 1
  /// swaps runs in 8-lane blocks (masked gathers over the occ rows, no
  /// scalar lane); NEON runs 4-lane blocks and finishes a few lanes per
  /// row scalar; otherwise an amortized scalar batch. Exactly equal to
  /// n - 1 scalar delta_cost calls; the parity fuzz suite pins that lane
  /// by lane.
  void delta_costs_row(int i, std::span<Cost> out) const;
  void apply_swap(int i, int j);
  [[nodiscard]] std::span<const Cost> errors() const { return {errs_.data(), errs_.size()}; }
  void compute_errors(std::span<Cost> errs) const;

  /// Batched candidate evaluation (the HasBatchEval member): score every
  /// candidate permutation in `batch` in fixed 8-lane chunks that walk each
  /// difference-triangle row once for all lanes (vectorized under an active
  /// SIMD backend, bit-identical scalar batch otherwise), sharing one
  /// best-so-far bound across candidates for pruning. out[c] follows the
  /// core::HasBatchEval contract: exact for every candidate that could
  /// still win, a partial sum >= the tightest bound for pruned ones.
  void evaluate_batch(const core::CandidateBatch& batch, Cost bound,
                      std::span<Cost> out) const;

  /// The paper's dedicated reset (Sec. IV-B). Tries, in order:
  ///  1. circular shifts (left and right) of every sub-array starting or
  ///     ending at the most erroneous variable,
  ///  2. adding a constant in {1, 2, n-2, n-3} to all values, modulo n,
  ///  3. left-shifting the prefix that ends at a randomly chosen erroneous
  ///     variable (up to 3 candidates).
  /// Accepts the first perturbation that strictly improves on the entry
  /// cost (returns true: "escaped"); otherwise evaluates all and adopts the
  /// best one (returns false). The candidate families are written straight
  /// into a reusable CandidateBatch — each family's copies of the
  /// permutation one column of all its lanes at a time, then each lane's
  /// rotated window or modular shift (no integer %) — and scored through
  /// the chunked kernel walk of evaluate_batch — same first-found / strict-improvement semantics as
  /// the historical serial loop, bit-identical trajectories and RNG
  /// stream, allocation-free after warmup. Under the paper's RL = 1 a walk
  /// resets on about half its iterations at n = 17, so this is the engine's
  /// hot path (perfbench's core.reset_share).
  bool custom_reset(core::Rng& rng);

  // --- model introspection / utilities ---
  [[nodiscard]] const std::vector<int>& permutation() const { return perm_; }
  void set_permutation(std::span<const int> perm);  // validates; rebuilds state
  [[nodiscard]] int checked_rows() const { return depth_; }
  [[nodiscard]] const CostasOptions& options() const { return opts_; }

  /// Stateless cost of an arbitrary permutation under these options.
  [[nodiscard]] Cost evaluate(std::span<const int> perm) const;

  /// Stateless evaluation with early abort once the partial cost reaches
  /// `bound` (row contributions are non-negative, so the total only
  /// grows). The serial reference the batched reset pipeline is measured
  /// and fuzzed against.
  [[nodiscard]] Cost evaluate_bounded(std::span<const int> perm, Cost bound) const;

  /// Worst-case number of candidate configurations one custom reset can
  /// examine (used by tests and the reset ablation bench).
  [[nodiscard]] int reset_candidate_count() const;

  /// Append the deterministic reset candidate families for anchor variable
  /// m to `batch` (family 1: sub-array rotations anchored at m, left then
  /// right for each window; family 2: modular constant shifts) — the exact
  /// set, in the exact order, custom_reset scores before its RNG-dependent
  /// family 3. The 2(n - 1) + 4 lanes start as copies of the permutation
  /// written one column at a time (CandidateBatch::append_copies), then
  /// each rewrites its window or shift; `batch` must hold size-n candidates
  /// (std::invalid_argument otherwise) and have room for them
  /// (std::length_error otherwise). Shared with the reset micro bench and
  /// perfbench so the measured candidate shape can never drift from the
  /// real one.
  void append_reset_families_1_2(int m, core::CandidateBatch& batch) const;

  /// Candidates the LAST custom_reset actually evaluated — smaller than
  /// reset_candidate_count() when the batched walk stopped at an escaping
  /// chunk or tiny-n degeneracies dropped family members. Feeds the
  /// engines' reset_candidates stat.
  [[nodiscard]] int reset_candidates_evaluated() const { return reset_evaluated_; }

  /// Kernel chunks the LAST custom_reset aborted early because every lane
  /// had reached the shared best-so-far bound — how much dead work the
  /// batched walk pruned. ISA-independent; feeds the engines'
  /// reset_escape_chunks stat (and, via the report,
  /// winner_reset_escape_chunks).
  [[nodiscard]] int reset_chunks_escaped() const { return reset_escaped_chunks_; }

 private:
  void rebuild();

  [[nodiscard]] size_t bucket(int d, int diff) const {
    // diff in [-(n-1), n-1] -> [0, 2n-2]
    return static_cast<size_t>(d - 1) * stride_ + static_cast<size_t>(diff + n_ - 1);
  }

  // add_pair/remove_pair maintain cost_ AND the per-variable error table
  // errs_ (a pair contributes errw_[d] to both endpoints iff its bucket
  // holds >= 2 pairs). pair_start_sum_[bucket] tracks the sum of the start
  // indices of the pairs in the bucket, so when a removal leaves exactly
  // one pair (or an addition joins exactly one), that lone pair's start is
  // recovered in O(1) and its endpoints' errors adjusted.
  void add_pair(int a, int b) {  // pair (a, b) under the current perm_
    const int d = b - a;
    const size_t bk = bucket(d, perm_[static_cast<size_t>(b)] - perm_[static_cast<size_t>(a)]);
    int32_t& c = occ_[bk];
    if (c >= 1) {
      const Cost w = errw_[static_cast<size_t>(d)];
      cost_ += w;
      errs_[static_cast<size_t>(a)] += w;
      errs_[static_cast<size_t>(b)] += w;
      if (c == 1) {  // the formerly lone pair starts colliding too
        const int s = pair_start_sum_[bk];
        errs_[static_cast<size_t>(s)] += w;
        errs_[static_cast<size_t>(s + d)] += w;
      }
    }
    ++c;
    pair_start_sum_[bk] += a;
  }
  void remove_pair(int a, int b) {
    const int d = b - a;
    const size_t bk = bucket(d, perm_[static_cast<size_t>(b)] - perm_[static_cast<size_t>(a)]);
    int32_t& c = occ_[bk];
    --c;
    pair_start_sum_[bk] -= a;
    if (c >= 1) {
      const Cost w = errw_[static_cast<size_t>(d)];
      cost_ -= w;
      errs_[static_cast<size_t>(a)] -= w;
      errs_[static_cast<size_t>(b)] -= w;
      if (c == 1) {  // the now-lone survivor stops colliding
        const int s = pair_start_sum_[bk];
        errs_[static_cast<size_t>(s)] -= w;
        errs_[static_cast<size_t>(s + d)] -= w;
      }
    }
  }

  /// Invoke fn(a, b) for every checked triangle pair (a, b), b - a <= depth,
  /// that has an endpoint in {i, j}; each affected pair exactly once.
  template <typename Fn>
  void for_each_affected_pair(int i, int j, Fn&& fn) const {
    if (i > j) std::swap(i, j);
    for (int d = 1; d <= depth_; ++d) {
      if (i - d >= 0) fn(i - d, i);
      if (i + d < n_) fn(i, i + d);
      if (j - d >= 0 && j - d != i) fn(j - d, j);
      if (j + d < n_) fn(j, j + d);
    }
  }

  int n_;
  CostasOptions opts_;
  int depth_;      // number of difference-triangle rows checked
  size_t stride_;  // 2n-1 diff slots per row
  std::vector<int> perm_;
  std::vector<int32_t> occ_;
  std::vector<int32_t> pair_start_sum_;  // per bucket: sum of pair start indices
  std::vector<Cost> errw_;  // errw_[d], d = 1..depth (index 0 unused)
  std::vector<Cost> errs_;  // per-variable errors, maintained by add/remove_pair
  Cost cost_ = 0;

  // custom_reset scratch (reused to keep resets allocation-free after
  // warmup): the SoA candidate buffer, its per-candidate cost row, and the
  // erroneous-position list for family 3.
  core::CandidateBatch reset_batch_;
  std::vector<Cost> reset_costs_;
  std::vector<int> scratch_;
  int reset_evaluated_ = 0;
  int reset_escaped_chunks_ = 0;
};

/// Engine configuration tuned for CAP (paper Sec. IV-B: RL=1, RP=5%,
/// custom reset on).
core::AsConfig recommended_config(int n, uint64_t seed = 42);

}  // namespace cas::costas
