// The LocalSearchProblem concept: the contract between the search engines
// (AdaptiveSearch, TabuSearch, DialecticSearch, HillClimber, ...) and the
// problem models (Costas, N-Queens, All-Interval, Magic Square, ...).
//
// A problem owns a *configuration* (for all our models: a permutation laid
// out over `size()` variables), a cached global cost, and enough internal
// bookkeeping to evaluate candidate swap moves incrementally. Cost 0 means
// every constraint is satisfied.
//
// Incremental evaluation API
// --------------------------
// The engines' hot loop is "score O(n) candidate swaps, pick one, apply
// it". Two members carry that loop:
//
//   delta_cost(i, j)  — PURE: the cost change of swapping variables i and
//                       j, computed without mutating any state. This
//                       replaces the historical do/undo probe (apply the
//                       swap, read cost(), undo it), which wrote to shared
//                       state mid-probe and paid for two applications per
//                       candidate.
//   errors()          — the per-variable error projection, maintained
//                       across apply_swap/randomize by the problem itself
//                       (either truly incrementally, like the Costas
//                       model, or via a lazily refreshed cache — see
//                       LazyErrors below). Engines read it once per
//                       iteration instead of re-projecting from scratch.
//
// The oracles the tests pin the incremental members against are applying
// the swap (on a copy) and reading cost(), the stateless full evaluation
// where a model has one, and the from-scratch compute_errors(errs)
// projection for the errors() table.
//
// The engines are templates over this concept: the per-iteration hot path
// (error read + move scan) compiles with no virtual dispatch.
#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/candidate_batch.hpp"
#include "core/rng.hpp"

namespace cas::core {

using Cost = int64_t;

template <typename P>
concept LocalSearchProblem = requires(P p, const P& cp, int i, int j, Rng& rng,
                                      std::span<Cost> errs) {
  // Number of decision variables.
  { cp.size() } -> std::convertible_to<int>;
  // Cached global cost of the current configuration (0 == solved).
  { cp.cost() } -> std::convertible_to<Cost>;
  // Current value of variable i (presentation only; engines never interpret it).
  { cp.value(i) } -> std::convertible_to<int>;
  // Draw a fresh uniform random configuration and rebuild internal state.
  { p.randomize(rng) };
  // Cost change the configuration would see after swapping variables i and
  // j. Pure: no mutation, no do/undo; safe to call from concurrent readers.
  { cp.delta_cost(i, j) } -> std::convertible_to<Cost>;
  // Swap variables i and j, updating cost and bookkeeping incrementally.
  { p.apply_swap(i, j) };
  // Per-variable error projection, maintained by the problem across
  // apply_swap/randomize. Higher error == variable more responsible for
  // constraint violations. The span stays valid until the next mutation.
  { cp.errors() } -> std::convertible_to<std::span<const Cost>>;
  // From-scratch error projection into errs (size() entries) — the oracle
  // that errors() is validated against.
  { cp.compute_errors(errs) };
};

/// Sentinel the batched row fill parks in out[i] (the self-swap lane): the
/// engines take a plain minimum over the filled row, and INT64_MAX can
/// never win it unless every lane holds it (n == 1).
inline constexpr Cost kExcludedDelta = std::numeric_limits<Cost>::max();

/// Optional batched evaluation member: problems that can score one
/// variable against ALL others cheaper than n calls to delta_cost
/// (CostasProblem walks each difference-triangle row once and fills every
/// j lane of it in one pass, vectorized when a SIMD backend is active)
/// expose delta_costs_row(i, out) and the engines pick it up through
/// delta_costs_row() below.
template <typename P>
concept HasDeltaRow = requires(const P& cp, int i, std::span<Cost> out) {
  { cp.delta_costs_row(i, out) };
};

/// Fill out[j] = delta_cost(i, j) for every j != i, and out[i] =
/// kExcludedDelta. Uses the problem's native batched member when it has
/// one; every other model (the six side problems, DoUndoAdapter, test
/// problems) gets this correct per-j loop. out.size() == p.size().
template <LocalSearchProblem P>
inline void delta_costs_row(const P& p, int i, std::span<Cost> out) {
  if constexpr (HasDeltaRow<P>) {
    p.delta_costs_row(i, out);
  } else {
    const int n = p.size();
    for (int j = 0; j < n; ++j)
      out[static_cast<size_t>(j)] = (j == i) ? kExcludedDelta : p.delta_cost(i, j);
  }
}

/// Optional batched candidate evaluation: problems that can score a whole
/// CandidateBatch of configurations cheaper than one full evaluation per
/// candidate expose evaluate_batch(batch, bound, out). CostasProblem walks
/// each difference-triangle row once per 8-candidate block, vectorized
/// when a SIMD backend is active, sharing one best-so-far bound across
/// candidates for pruning. Contract for out[c] (one entry per candidate):
///   * out[c] is the EXACT cost whenever that cost is strictly below every
///     bound the implementation could have pruned against — in particular
///     for every candidate whose cost is strictly below `bound` and below
///     all exactly-computed costs of earlier candidates;
///   * a pruned candidate reports a partial cost p with p <= true cost and
///     p >= the tightest bound in effect for it (which is >= the true
///     minimum over the batch), so "first candidate with out[c] < X" and
///     "first candidate achieving min(out)" match the serial
///     evaluate-in-order-with-running-bound loop exactly.
template <typename P>
concept HasBatchEval = requires(const P& cp, const CandidateBatch& b, Cost bound,
                                std::span<Cost> out) {
  { cp.evaluate_batch(b, bound, out) };
};

/// Evaluate every candidate in `batch` against problem `p`, filling out[c]
/// per the HasBatchEval contract. Problems with a native batched member use
/// it; every other model gets a serial reference: a scratch copy of the
/// problem is morphed into each candidate by swaps (candidates must be
/// value-rearrangements of the current configuration, which reset
/// perturbations always are) and its cached cost read back — exact costs,
/// `bound` unused. out.size() >= batch.count().
template <LocalSearchProblem P>
  requires(HasBatchEval<P> || std::copy_constructible<P>)
inline void evaluate_batch(const P& p, const CandidateBatch& batch, Cost bound,
                           std::span<Cost> out) {
  if constexpr (HasBatchEval<P>) {
    p.evaluate_batch(batch, bound, out);
  } else {
    (void)bound;
    const int n = p.size();
    P scratch(p);
    for (int c = 0; c < batch.count(); ++c) {
      // Selection-style sync: position i takes the candidate's value via a
      // swap with whichever later position currently holds it.
      for (int i = 0; i < n; ++i) {
        const int want = static_cast<int>(batch.get(c, i));
        if (scratch.value(i) == want) continue;
        int j = i + 1;
        while (j < n && scratch.value(j) != want) ++j;
        if (j == n)
          throw std::invalid_argument(
              "evaluate_batch: candidate is not a rearrangement of the configuration");
        scratch.apply_swap(i, j);
      }
      out[static_cast<size_t>(c)] = scratch.cost();
    }
  }
}

/// Problems may provide a hand-tuned reset ("diversification") procedure,
/// like the paper's Costas reset (Sec. IV-B). The engine calls it at local
/// minima instead of the generic percentage reset. Returns true if the
/// chosen perturbation strictly improved on the entry cost ("escaped
/// early" — the paper reports this happens ~32% of the time for Costas).
template <typename P>
concept HasCustomReset = requires(P p, Rng& rng) {
  { p.custom_reset(rng) } -> std::convertible_to<bool>;
};

/// Lazily refreshed per-variable error cache — the shared building block
/// for problems whose error projection is cheapest recomputed in bulk
/// (O(n) anyway, e.g. N-Queens reading its diagonal counters). It gives
/// such models the errors() accessor of the incremental API: mutations call
/// invalidate(), and the next errors() query refreshes the cache once via
/// the problem's own compute_errors. Models with a genuinely incremental
/// error table (the Costas model) do not need this.
class LazyErrors {
 public:
  template <typename P>
  [[nodiscard]] std::span<const Cost> get(const P& problem) const {
    if (dirty_) {
      cache_.resize(static_cast<size_t>(problem.size()));
      problem.compute_errors(std::span<Cost>(cache_.data(), cache_.size()));
      dirty_ = false;
    }
    return {cache_.data(), cache_.size()};
  }
  void invalidate() { dirty_ = true; }

 private:
  mutable std::vector<Cost> cache_;
  mutable bool dirty_ = true;
};

/// Tiny fixed-capacity (slot -> pending count adjustment) ledger for pure
/// delta_cost implementations over occupancy-counter models: it stages the
/// counter updates a hypothetical swap would make, so coinciding slots
/// among the affected counters are resolved exactly without touching the
/// real tables. N bounds the number of distinct slots one swap can touch
/// (queens: 4 per diagonal family; all-interval: 8). Lives on the stack —
/// construction is free and lookups are a handful of register compares.
template <int N>
class ScratchCounterLedger {
 public:
  [[nodiscard]] int32_t pending(size_t slot) const {
    int32_t c = 0;
    for (int t = 0; t < n_; ++t)
      if (slots_[t] == slot) c += adj_[t];
    return c;
  }
  void bump(size_t slot, int32_t d) {
    for (int t = 0; t < n_; ++t)
      if (slots_[t] == slot) {
        adj_[t] += d;
        return;
      }
    slots_[static_cast<size_t>(n_)] = slot;
    adj_[static_cast<size_t>(n_)] = d;
    ++n_;
  }

 private:
  std::array<size_t, N> slots_{};
  std::array<int32_t, N> adj_{};
  int n_ = 0;
};

/// Cooperative cancellation for parallel multi-walk: walkers poll this every
/// `probe_interval` iterations (the paper's non-blocking MPI test every c
/// iterations). Backed by either an atomic flag (thread multi-walk) or an
/// arbitrary predicate (e.g. an MPI-style mailbox probe).
class StopToken {
 public:
  StopToken() = default;
  explicit StopToken(const std::atomic<bool>* flag) : flag_(flag) {}
  explicit StopToken(const std::function<bool()>* predicate) : predicate_(predicate) {}
  [[nodiscard]] bool stop_requested() const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) return true;
    return predicate_ != nullptr && (*predicate_)();
  }

 private:
  const std::atomic<bool>* flag_ = nullptr;
  const std::function<bool()>* predicate_ = nullptr;
};

}  // namespace cas::core
