// N-Queens as a permutation problem for the Adaptive Search engine.
// perm[i] = row of the queen in column i; rows are all-different by
// construction, so only the two diagonal families constrain the search.
// The paper (Sec. III-A) cites N-Queens as a classic Adaptive Search
// showcase (AS ~40x faster than Comet for N = 10000..50000).
//
// Incremental state: occupancy counters for the 2n-1 "up" diagonals
// (i + perm[i]) and 2n-1 "down" diagonals (i - perm[i]).
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class QueensProblem {
 public:
  explicit QueensProblem(int n) : n_(n) {
    if (n < 1) throw std::invalid_argument("QueensProblem: n must be >= 1");
    perm_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i + 1;
    up_.assign(static_cast<size_t>(2 * n), 0);
    down_.assign(static_cast<size_t>(2 * n), 0);
    rebuild();
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)]; }

  void randomize(core::Rng& rng) {
    rng.shuffle(perm_);
    rebuild();
  }

  void apply_swap(int i, int j) {
    remove_queen(i);
    remove_queen(j);
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    add_queen(i);
    add_queen(j);
    lazy_errors_.invalidate();
  }

  /// Pure swap delta: simulates the eight diagonal-counter updates of
  /// apply_swap on a tiny ledger, so coinciding diagonals among the four
  /// (column, row) endpoints are handled exactly. O(1), no mutation.
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    if (i == j) return 0;
    using Ledger = core::ScratchCounterLedger<4>;
    Ledger up, down;
    Cost delta = 0;
    const auto remove_from = [&](Ledger& led, const std::vector<int32_t>& arr, size_t k) {
      if (arr[k] + led.pending(k) >= 2) --delta;
      led.bump(k, -1);
    };
    const auto add_to = [&](Ledger& led, const std::vector<int32_t>& arr, size_t k) {
      if (arr[k] + led.pending(k) >= 1) ++delta;
      led.bump(k, +1);
    };
    remove_from(up, up_, up_index(i));
    remove_from(down, down_, down_index(i));
    remove_from(up, up_, up_index(j));
    remove_from(down, down_, down_index(j));
    const int vi = perm_[static_cast<size_t>(i)], vj = perm_[static_cast<size_t>(j)];
    add_to(up, up_, static_cast<size_t>(i + vj));
    add_to(down, down_, static_cast<size_t>(i - vj + n_));
    add_to(up, up_, static_cast<size_t>(j + vi));
    add_to(down, down_, static_cast<size_t>(j - vi + n_));
    return delta;
  }

  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }

  void compute_errors(std::span<Cost> errs) const {
    for (int i = 0; i < n_; ++i) {
      Cost e = 0;
      if (up_[up_index(i)] >= 2) e += up_[up_index(i)] - 1;
      if (down_[down_index(i)] >= 2) e += down_[down_index(i)] - 1;
      errs[static_cast<size_t>(i)] = e;
    }
  }

  [[nodiscard]] const std::vector<int>& permutation() const { return perm_; }

  /// True if the configuration is a valid N-Queens placement.
  [[nodiscard]] bool valid() const { return cost_ == 0; }

 private:
  [[nodiscard]] size_t up_index(int i) const {
    return static_cast<size_t>(i + perm_[static_cast<size_t>(i)]);  // in [1, 2n-1]
  }
  [[nodiscard]] size_t down_index(int i) const {
    return static_cast<size_t>(i - perm_[static_cast<size_t>(i)] + n_);  // in [0, 2n-2]
  }

  // Row-occupancy is constant (permutation); each diagonal with k queens
  // contributes k-1 conflicts.
  void add_queen(int i) {
    if (++up_[up_index(i)] >= 2) ++cost_;
    if (++down_[down_index(i)] >= 2) ++cost_;
  }
  void remove_queen(int i) {
    if (up_[up_index(i)]-- >= 2) --cost_;
    if (down_[down_index(i)]-- >= 2) --cost_;
  }

  void rebuild() {
    std::fill(up_.begin(), up_.end(), 0);
    std::fill(down_.begin(), down_.end(), 0);
    cost_ = 0;
    for (int i = 0; i < n_; ++i) add_queen(i);
    lazy_errors_.invalidate();
  }

  int n_;
  std::vector<int> perm_;
  std::vector<int32_t> up_, down_;
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
