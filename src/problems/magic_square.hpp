// Magic Square (CSPLib prob019) on the Adaptive Search engine. The paper
// (Sec. III) uses Magic Square as the showcase for plateau tuning (an order
// of magnitude gain) and for the AS-vs-Dialectic-Search comparison.
//
// Configuration: the numbers 1..N^2 on an N x N grid (a permutation over
// N^2 variables). Constraint errors are |line_sum - magic_constant| for
// every row, column and the two main diagonals; a variable's error is the
// sum of the errors of the lines through its cell.
#pragma once

#include <algorithm>
#include <array>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class MagicSquareProblem {
 public:
  explicit MagicSquareProblem(int order) : order_(order), n_(order * order) {
    if (order < 3) throw std::invalid_argument("MagicSquareProblem: order must be >= 3");
    magic_ = static_cast<Cost>(order_) * (static_cast<Cost>(n_) + 1) / 2;
    perm_.resize(static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) perm_[static_cast<size_t>(i)] = i + 1;
    row_sum_.assign(static_cast<size_t>(order_), 0);
    col_sum_.assign(static_cast<size_t>(order_), 0);
    rebuild();
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)]; }
  [[nodiscard]] Cost magic_constant() const { return magic_; }

  void randomize(core::Rng& rng) {
    rng.shuffle(perm_);
    rebuild();
  }

  void apply_swap(int i, int j) {
    const Cost delta =
        perm_[static_cast<size_t>(j)] - perm_[static_cast<size_t>(i)];  // change at cell i
    adjust_cell(i, delta);
    adjust_cell(j, -delta);
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    lazy_errors_.invalidate();
  }

  /// Pure swap delta: collect the net sum change of every line through the
  /// two cells (merging shared lines, whose net change is then zero) and
  /// compare |sum' - magic| against |sum - magic| per line. No mutation.
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    if (i == j) return 0;
    struct Ledger {
      std::array<const Cost*, 6> line{};
      std::array<Cost, 6> d{};
      int n = 0;
      void bump(const Cost* s, Cost dd) {
        for (int t = 0; t < n; ++t)
          if (line[t] == s) {
            d[t] += dd;
            return;
          }
        line[static_cast<size_t>(n)] = s;
        d[static_cast<size_t>(n)] = dd;
        ++n;
      }
    };
    Ledger led;
    const auto collect = [&](int cell_idx, Cost dd) {
      const int r = cell_idx / order_, c = cell_idx % order_;
      led.bump(&row_sum_[static_cast<size_t>(r)], dd);
      led.bump(&col_sum_[static_cast<size_t>(c)], dd);
      if (r == c) led.bump(&diag_sum_, dd);
      if (r + c == order_ - 1) led.bump(&anti_sum_, dd);
    };
    const Cost dv = perm_[static_cast<size_t>(j)] - perm_[static_cast<size_t>(i)];
    collect(i, dv);
    collect(j, -dv);
    Cost delta = 0;
    for (int t = 0; t < led.n; ++t)
      delta += std::abs(*led.line[t] + led.d[t] - magic_) - std::abs(*led.line[t] - magic_);
    return delta;
  }

  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }

  void compute_errors(std::span<Cost> errs) const {
    for (int i = 0; i < n_; ++i) {
      const int r = i / order_, c = i % order_;
      Cost e = std::abs(row_sum_[static_cast<size_t>(r)] - magic_) +
               std::abs(col_sum_[static_cast<size_t>(c)] - magic_);
      if (r == c) e += std::abs(diag_sum_ - magic_);
      if (r + c == order_ - 1) e += std::abs(anti_sum_ - magic_);
      errs[static_cast<size_t>(i)] = e;
    }
  }

  /// Independent validity check.
  [[nodiscard]] bool valid() const {
    for (int r = 0; r < order_; ++r) {
      Cost s = 0;
      for (int c = 0; c < order_; ++c) s += perm_[cell(r, c)];
      if (s != magic_) return false;
    }
    for (int c = 0; c < order_; ++c) {
      Cost s = 0;
      for (int r = 0; r < order_; ++r) s += perm_[cell(r, c)];
      if (s != magic_) return false;
    }
    Cost d1 = 0, d2 = 0;
    for (int r = 0; r < order_; ++r) {
      d1 += perm_[cell(r, r)];
      d2 += perm_[cell(r, order_ - 1 - r)];
    }
    return d1 == magic_ && d2 == magic_;
  }

 private:
  [[nodiscard]] size_t cell(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(order_) + static_cast<size_t>(c);
  }

  /// Apply a value change at cell i to the sums of its lines, updating the
  /// cached cost (cost = sum over lines of |line_sum - magic|).
  void adjust_cell(int i, Cost delta) {
    const int r = i / order_, c = i % order_;
    adjust_line(row_sum_[static_cast<size_t>(r)], delta);
    adjust_line(col_sum_[static_cast<size_t>(c)], delta);
    if (r == c) adjust_line(diag_sum_, delta);
    if (r + c == order_ - 1) adjust_line(anti_sum_, delta);
  }

  void adjust_line(Cost& sum, Cost delta) {
    cost_ -= std::abs(sum - magic_);
    sum += delta;
    cost_ += std::abs(sum - magic_);
  }

  void rebuild() {
    std::fill(row_sum_.begin(), row_sum_.end(), Cost{0});
    std::fill(col_sum_.begin(), col_sum_.end(), Cost{0});
    diag_sum_ = anti_sum_ = 0;
    for (int r = 0; r < order_; ++r) {
      for (int c = 0; c < order_; ++c) {
        const Cost v = perm_[cell(r, c)];
        row_sum_[static_cast<size_t>(r)] += v;
        col_sum_[static_cast<size_t>(c)] += v;
        if (r == c) diag_sum_ += v;
        if (r + c == order_ - 1) anti_sum_ += v;
      }
    }
    cost_ = 0;
    for (Cost s : row_sum_) cost_ += std::abs(s - magic_);
    for (Cost s : col_sum_) cost_ += std::abs(s - magic_);
    cost_ += std::abs(diag_sum_ - magic_) + std::abs(anti_sum_ - magic_);
    lazy_errors_.invalidate();
  }

  int order_;
  int n_;
  Cost magic_;
  std::vector<int> perm_;
  std::vector<Cost> row_sum_, col_sum_;
  Cost diag_sum_ = 0, anti_sum_ = 0;
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
