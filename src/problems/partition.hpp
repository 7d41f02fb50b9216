// Number partitioning (CSPLib prob049) — the "partit" benchmark of Diaz's
// reference Adaptive Search library: split {1, ..., N} into two groups of
// N/2 numbers such that both groups have the same sum AND the same sum of
// squares. Nontrivial solutions exist for N = 8, 12, 16, ... (N must be a
// multiple of 4, and N = 4 itself is infeasible).
//
// Permutation model (exactly the reference library's): a permutation of
// {1..N} whose first half is group A. The cost combines the absolute
// deviations of group A's sum and sum of squares from their targets; a
// swap across the halves changes both in O(1).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class PartitionProblem {
 public:
  explicit PartitionProblem(int n) : n_(n) {
    if (n < 4 || n % 4 != 0)
      throw std::invalid_argument("PartitionProblem: n must be a positive multiple of 4");
    const int64_t total = static_cast<int64_t>(n) * (n + 1) / 2;
    const int64_t total_sq = static_cast<int64_t>(n) * (n + 1) * (2 * n + 1) / 6;
    target_sum_ = total / 2;
    target_sq_ = total_sq / 2;
    if (total % 2 != 0 || total_sq % 2 != 0)
      throw std::invalid_argument("PartitionProblem: totals not even (infeasible n)");
    perm_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i + 1;
    rebuild();
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)]; }

  void randomize(core::Rng& rng) {
    rng.shuffle(perm_);
    rebuild();
  }

  /// Pure swap delta: a cross-half swap shifts group A's sum and sum of
  /// squares by a closed-form amount; same-half swaps are free. O(1).
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    const auto [ds, dq] = swap_delta(i, j);
    return cost_of(sum_a_ + ds, sq_a_ + dq) - cost_;
  }

  void apply_swap(int i, int j) {
    const auto [ds, dq] = swap_delta(i, j);
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    sum_a_ += ds;
    sq_a_ += dq;
    cost_ = cost_of(sum_a_, sq_a_);
    lazy_errors_.invalidate();
  }

  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }

  void compute_errors(std::span<Cost> errs) const {
    // Every variable participates in the same two global constraints; the
    // reference model biases the repair toward values whose move would
    // reduce the deviation most, approximated by the value magnitude on
    // the heavier side.
    const Cost dev = cost_;
    std::fill(errs.begin(), errs.end(), Cost{0});
    if (dev == 0) return;
    const bool a_heavy =
        (sum_a_ - target_sum_) + (sq_a_ - target_sq_) > 0;
    for (int i = 0; i < n_; ++i) {
      const bool in_a = i < n_ / 2;
      if (in_a == a_heavy) errs[static_cast<size_t>(i)] = perm_[static_cast<size_t>(i)];
    }
  }

  [[nodiscard]] std::vector<int> group_a() const {
    return {perm_.begin(), perm_.begin() + n_ / 2};
  }
  [[nodiscard]] std::vector<int> group_b() const {
    return {perm_.begin() + n_ / 2, perm_.end()};
  }

  /// Independent validity check: equal cardinality (by construction),
  /// equal sums, equal sums of squares.
  [[nodiscard]] bool valid() const {
    int64_t s = 0, q = 0;
    for (int i = 0; i < n_ / 2; ++i) {
      const int64_t v = perm_[static_cast<size_t>(i)];
      s += v;
      q += v * v;
    }
    return s == target_sum_ && q == target_sq_;
  }

  [[nodiscard]] int64_t target_sum() const { return target_sum_; }
  [[nodiscard]] int64_t target_sum_of_squares() const { return target_sq_; }

 private:
  [[nodiscard]] Cost cost_of(int64_t sum_a, int64_t sq_a) const {
    return std::abs(sum_a - target_sum_) + std::abs(sq_a - target_sq_);
  }

  /// (delta sum_A, delta sq_A) of swapping slots i and j.
  [[nodiscard]] std::pair<int64_t, int64_t> swap_delta(int i, int j) const {
    const bool ia = i < n_ / 2, ja = j < n_ / 2;
    if (ia == ja) return {0, 0};
    const int64_t vi = perm_[static_cast<size_t>(i)];
    const int64_t vj = perm_[static_cast<size_t>(j)];
    // The value moving INTO group A minus the one leaving it.
    const int64_t in = ia ? vj : vi;
    const int64_t out = ia ? vi : vj;
    return {in - out, in * in - out * out};
  }

  void rebuild() {
    sum_a_ = 0;
    sq_a_ = 0;
    for (int i = 0; i < n_ / 2; ++i) {
      const int64_t v = perm_[static_cast<size_t>(i)];
      sum_a_ += v;
      sq_a_ += v * v;
    }
    cost_ = cost_of(sum_a_, sq_a_);
    lazy_errors_.invalidate();
  }

  int n_;
  int64_t target_sum_ = 0, target_sq_ = 0;
  std::vector<int> perm_;
  int64_t sum_a_ = 0, sq_a_ = 0;
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
