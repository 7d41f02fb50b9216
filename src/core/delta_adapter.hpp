// DoUndoAdapter — the shared fallback that lifts a "legacy" swap problem
// (apply_swap + cached cost + from-scratch compute_errors, but no pure
// delta_cost and no maintained error table) onto the full incremental
// LocalSearchProblem API:
//
//   delta_cost(i, j)  := apply the swap, read the cost, undo the swap
//   errors()          := recompute the projection on every query
//
// The adapter deliberately does NOT expose a native delta_costs_row even
// when its base has one: engines reach it through the core
// delta_costs_row() default loop (n - 1 do/undo probes), which is exactly
// the historical evaluation strategy the adapter exists to measure.
//
// Two uses:
//   1. migration aid — a new problem model becomes engine-compatible the
//      moment it has the legacy surface, and can adopt true deltas later;
//   2. the measured baseline — wrapping a model that DOES implement true
//      deltas (e.g. DoUndoAdapter<costas::CostasProblem>) reproduces the
//      historical do/undo evaluation strategy on identical model code, so
//      bench_micro_engine can report the incremental-vs-do/undo speedup
//      instead of asserting it.
//
// The do/undo probe mutates the wrapped problem and restores it before
// returning (swap-undo restores both the permutation and every counter the
// models keep), so delta_cost is logically const but NOT safe for
// concurrent readers — exactly the footgun the incremental API removes.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/rng.hpp"

namespace cas::core {

/// The legacy problem surface the adapter can lift: everything in
/// LocalSearchProblem except delta_cost/errors.
template <typename B>
concept SwapRevertibleProblem = requires(B b, const B& cb, int i, int j, Rng& rng,
                                         std::span<Cost> errs) {
  { cb.size() } -> std::convertible_to<int>;
  { cb.cost() } -> std::convertible_to<Cost>;
  { cb.value(i) } -> std::convertible_to<int>;
  { b.randomize(rng) };
  { b.apply_swap(i, j) };
  { cb.compute_errors(errs) };
};

template <SwapRevertibleProblem Base>
class DoUndoAdapter {
 public:
  explicit DoUndoAdapter(Base base) : base_(std::move(base)) {}

  // --- LocalSearchProblem interface ---
  [[nodiscard]] int size() const { return base_.size(); }
  [[nodiscard]] Cost cost() const { return base_.cost(); }
  [[nodiscard]] int value(int i) const { return base_.value(i); }
  void randomize(Rng& rng) { base_.randomize(rng); }
  void apply_swap(int i, int j) { base_.apply_swap(i, j); }

  /// Do/undo probe: apply, read, undo. Restores the wrapped problem
  /// exactly (swap application is an involution on all our models), but
  /// transiently mutates it — single-threaded use only.
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    Base& b = const_cast<Base&>(base_);
    const Cost before = base_.cost();
    b.apply_swap(i, j);
    const Cost after = base_.cost();
    b.apply_swap(i, j);
    return after - before;
  }

  /// Baseline semantics: a full from-scratch projection per query (what
  /// every engine paid per iteration before the incremental API).
  [[nodiscard]] std::span<const Cost> errors() const {
    errs_.resize(static_cast<size_t>(base_.size()));
    base_.compute_errors(std::span<Cost>(errs_.data(), errs_.size()));
    return {errs_.data(), errs_.size()};
  }
  void compute_errors(std::span<Cost> errs) const { base_.compute_errors(errs); }

  bool custom_reset(Rng& rng)
    requires HasCustomReset<Base>
  {
    return base_.custom_reset(rng);
  }

  [[nodiscard]] Base& base() { return base_; }
  [[nodiscard]] const Base& base() const { return base_; }

 private:
  Base base_;
  mutable std::vector<Cost> errs_;
};

}  // namespace cas::core
