// All-Interval Series (CSPLib prob007), cited by the paper's introduction
// as one of the classic CSPs conceptually related to Costas arrays.
//
// Find a permutation s of {0..n-1} such that the absolute differences
// |s[i+1] - s[i]| are a permutation of {1..n-1}. Cost counts duplicated
// difference values; a swap touches at most 4 adjacent differences.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class AllIntervalProblem {
 public:
  explicit AllIntervalProblem(int n) : n_(n) {
    if (n < 2) throw std::invalid_argument("AllIntervalProblem: n must be >= 2");
    perm_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i;
    occ_.assign(static_cast<size_t>(n), 0);  // interval values 1..n-1
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
    for_each_affected_interval(i, j, [&](int k) { remove_interval(k); });
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    for_each_affected_interval(i, j, [&](int k) { add_interval(k); });
    lazy_errors_.invalidate();
  }

  /// Pure swap delta: at most 4 adjacent intervals change value; stage the
  /// occupancy adjustments on a tiny ledger (affected intervals can land in
  /// the same occupancy slot) and read collisions off it. No mutation.
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    if (i == j) return 0;
    core::ScratchCounterLedger<8> led;
    Cost delta = 0;
    for_each_affected_interval(i, j, [&](int k) {
      const size_t v = static_cast<size_t>(interval(k));
      if (occ_[v] + led.pending(v) >= 2) --delta;
      led.bump(v, -1);
    });
    const auto val = [&](int x) {
      return x == i   ? perm_[static_cast<size_t>(j)]
             : x == j ? perm_[static_cast<size_t>(i)]
                      : perm_[static_cast<size_t>(x)];
    };
    for_each_affected_interval(i, j, [&](int k) {
      const size_t v = static_cast<size_t>(std::abs(val(k + 1) - val(k)));
      if (occ_[v] + led.pending(v) >= 1) ++delta;
      led.bump(v, +1);
    });
    return delta;
  }

  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }

  void compute_errors(std::span<Cost> errs) const {
    std::fill(errs.begin(), errs.end(), Cost{0});
    for (int k = 0; k + 1 < n_; ++k) {
      if (occ_[static_cast<size_t>(interval(k))] >= 2) {
        ++errs[static_cast<size_t>(k)];
        ++errs[static_cast<size_t>(k + 1)];
      }
    }
  }

  [[nodiscard]] const std::vector<int>& series() const { return perm_; }

  /// Independent validity check (no incremental state).
  [[nodiscard]] bool valid() const {
    std::vector<bool> seen(static_cast<size_t>(n_), false);
    for (int k = 0; k + 1 < n_; ++k) {
      const int d = interval(k);
      if (d < 1 || d >= n_ || seen[static_cast<size_t>(d)]) return false;
      seen[static_cast<size_t>(d)] = true;
    }
    return true;
  }

 private:
  [[nodiscard]] int interval(int k) const {
    return std::abs(perm_[static_cast<size_t>(k + 1)] - perm_[static_cast<size_t>(k)]);
  }

  /// Intervals adjacent to positions i or j, deduplicated.
  template <typename Fn>
  void for_each_affected_interval(int i, int j, Fn&& fn) const {
    if (i > j) std::swap(i, j);
    if (i - 1 >= 0) fn(i - 1);
    if (i + 1 < n_) fn(i);
    if (j - 1 >= 0 && j - 1 != i && j - 1 != i - 1) fn(j - 1);
    if (j + 1 < n_ && j != i) fn(j);
  }

  void add_interval(int k) {
    if (++occ_[static_cast<size_t>(interval(k))] >= 2) ++cost_;
  }
  void remove_interval(int k) {
    if (occ_[static_cast<size_t>(interval(k))]-- >= 2) --cost_;
  }

  void rebuild() {
    std::fill(occ_.begin(), occ_.end(), 0);
    cost_ = 0;
    for (int k = 0; k + 1 < n_; ++k) add_interval(k);
    lazy_errors_.invalidate();
  }

  int n_;
  std::vector<int> perm_;
  std::vector<int32_t> occ_;
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
