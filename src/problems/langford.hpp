// Langford's number problem L(2, n) (CSPLib prob024) — one of the
// permutation benchmarks shipped with Diaz's reference Adaptive Search
// library (langford.c), modeled here on the same engine the paper uses for
// the CAP.
//
// Arrange the multiset {1, 1, 2, 2, ..., n, n} in a row of 2n slots so
// that the two copies of k are exactly k + 1 slots apart (k numbers sit
// between them). Configurations are permutations of 2n *items*: items 2k
// and 2k+1 are the two copies of value k + 1. The error of value k is
// | |pos(first copy) - pos(second copy)| - (k + 1) |, projected onto the
// two slots holding the copies. Solutions exist iff n = 0 or 3 (mod 4).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class LangfordProblem {
 public:
  explicit LangfordProblem(int n) : n_(n) {
    if (n < 1) throw std::invalid_argument("LangfordProblem: n must be >= 1");
    perm_.resize(static_cast<size_t>(2 * n));
    pos_.resize(static_cast<size_t>(2 * n));
    for (int i = 0; i < 2 * n; ++i) perm_[static_cast<size_t>(i)] = i;
    rebuild();
  }

  /// Whether L(2, n) has solutions at all (n = 0 or 3 mod 4); useful for
  /// examples and tests choosing instances.
  [[nodiscard]] static bool solvable(int n) { return n % 4 == 0 || n % 4 == 3; }

  [[nodiscard]] int size() const { return 2 * n_; }
  [[nodiscard]] Cost cost() const { return cost_; }
  /// Presented value: the number (1..n) whose copy occupies slot i.
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)] / 2 + 1; }

  void randomize(core::Rng& rng) {
    rng.shuffle(perm_);
    rebuild();
  }

  /// Pure swap delta: only the values owning the two swapped items change
  /// their separation error; re-derive it under the hypothetical positions.
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    if (i == j) return 0;
    const int a = perm_[static_cast<size_t>(i)];
    const int b = perm_[static_cast<size_t>(j)];
    const auto pos_after = [&](int item) {
      return item == a ? j : item == b ? i : pos_[static_cast<size_t>(item)];
    };
    const auto error_after = [&](int k) {
      const int d = std::abs(pos_after(2 * k) - pos_after(2 * k + 1));
      return static_cast<Cost>(std::abs(d - (k + 2)));
    };
    Cost delta = error_after(a / 2) - value_error(a / 2);
    if (b / 2 != a / 2) delta += error_after(b / 2) - value_error(b / 2);
    return delta;
  }

  void apply_swap(int i, int j) {
    const int a = perm_[static_cast<size_t>(i)];
    const int b = perm_[static_cast<size_t>(j)];
    cost_ -= value_error(a / 2) + (b / 2 != a / 2 ? value_error(b / 2) : 0);
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    pos_[static_cast<size_t>(a)] = j;
    pos_[static_cast<size_t>(b)] = i;
    cost_ += value_error(a / 2) + (b / 2 != a / 2 ? value_error(b / 2) : 0);
    lazy_errors_.invalidate();
  }

  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }

  void compute_errors(std::span<Cost> errs) const {
    std::fill(errs.begin(), errs.end(), Cost{0});
    for (int k = 0; k < n_; ++k) {
      const Cost e = value_error(k);
      if (e == 0) continue;
      errs[static_cast<size_t>(pos_[static_cast<size_t>(2 * k)])] += e;
      errs[static_cast<size_t>(pos_[static_cast<size_t>(2 * k + 1)])] += e;
    }
  }

  /// The row as the numbers it displays, e.g. {2,3,1,2,1,3} for n = 3.
  [[nodiscard]] std::vector<int> sequence() const {
    std::vector<int> out(static_cast<size_t>(2 * n_));
    for (int i = 0; i < 2 * n_; ++i) out[static_cast<size_t>(i)] = value(i);
    return out;
  }

  /// Independent validity check against the Langford property.
  [[nodiscard]] bool valid() const {
    for (int k = 0; k < n_; ++k)
      if (value_error(k) != 0) return false;
    return true;
  }

  /// Static checker for an arbitrary displayed sequence.
  static bool is_langford(std::span<const int> seq) {
    const int len = static_cast<int>(seq.size());
    if (len % 2 != 0) return false;
    const int n = len / 2;
    std::vector<int> first(static_cast<size_t>(n) + 1, -1);
    std::vector<int> count(static_cast<size_t>(n) + 1, 0);
    for (int i = 0; i < len; ++i) {
      const int v = seq[static_cast<size_t>(i)];
      if (v < 1 || v > n) return false;
      ++count[static_cast<size_t>(v)];
      if (first[static_cast<size_t>(v)] < 0) {
        first[static_cast<size_t>(v)] = i;
      } else if (i - first[static_cast<size_t>(v)] != v + 1) {
        return false;
      }
    }
    for (int v = 1; v <= n; ++v)
      if (count[static_cast<size_t>(v)] != 2) return false;
    return true;
  }

 private:
  /// | separation(copies of value k+1) - (k+2) | ... with the convention
  /// that value v = k + 1 requires |pos difference| == v + 1.
  [[nodiscard]] Cost value_error(int k) const {
    const int d = std::abs(pos_[static_cast<size_t>(2 * k)] - pos_[static_cast<size_t>(2 * k + 1)]);
    return std::abs(d - (k + 2));
  }

  void rebuild() {
    for (int i = 0; i < 2 * n_; ++i) pos_[static_cast<size_t>(perm_[static_cast<size_t>(i)])] = i;
    cost_ = 0;
    for (int k = 0; k < n_; ++k) cost_ += value_error(k);
    lazy_errors_.invalidate();
  }

  int n_;
  std::vector<int> perm_;  // slot -> item (items 2k, 2k+1 are copies of k+1)
  std::vector<int> pos_;   // item -> slot
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
