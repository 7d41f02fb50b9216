// The "alpha cipher" puzzle — the alpha.c benchmark of Diaz's reference
// Adaptive Search library (originally from rec.puzzles): assign the
// numbers 1..26 to the letters A..Z (a bijection) so that twenty
// word-sum equations hold simultaneously, e.g. B+A+L+L+E+T = 45. A linear
// system over a permutation — exactly the kind of symbolic+arithmetic mix
// Adaptive Search was designed for.
//
// Incremental model: each equation's current sum is cached; a swap of two
// letters' values changes equation e by (coef_e[i] - coef_e[j]) * (vj - vi),
// so move evaluation is O(#equations). The per-variable error projects each
// equation's absolute deviation onto its letters, weighted by multiplicity.
#pragma once

#include <array>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/problem.hpp"

namespace cas::problems {

using core::Cost;

class AlphaProblem {
 public:
  static constexpr int kLetters = 26;

  struct Equation {
    std::string word;
    int target = 0;
  };

  /// The classic twenty-equation instance.
  static const std::vector<Equation>& default_equations();

  AlphaProblem() : AlphaProblem(default_equations()) {}
  explicit AlphaProblem(std::vector<Equation> equations);

  [[nodiscard]] int size() const { return kLetters; }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return val_[static_cast<size_t>(i)]; }

  void randomize(core::Rng& rng);
  /// Pure swap delta: only equations where the two letters' multiplicities
  /// differ move; O(#equations) with an early skip for untouched ones.
  [[nodiscard]] Cost delta_cost(int i, int j) const;
  void apply_swap(int i, int j);
  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }
  void compute_errors(std::span<Cost> errs) const;

  /// Value currently assigned to a letter ('A'..'Z' or 'a'..'z').
  [[nodiscard]] int value_of(char letter) const;

  /// Sum of a word under the current assignment.
  [[nodiscard]] int word_sum(std::string_view word) const;

  [[nodiscard]] const std::vector<Equation>& equations() const { return eqs_; }

  /// Independent validity check: every equation satisfied and the values
  /// form a permutation of 1..26.
  [[nodiscard]] bool valid() const;

  /// Engine parameters tuned for this benchmark (the reference AS library
  /// also ships per-benchmark settings): longer tabu tenure and a high
  /// reset threshold work much better than the CAP values here.
  static core::AsConfig recommended_config(uint64_t seed = 42);

 private:
  void rebuild();

  std::vector<Equation> eqs_;
  std::vector<std::array<int8_t, kLetters>> coef_;  // per-equation letter counts
  std::vector<int> targets_;
  std::vector<int> val_;       // letter index -> assigned number
  std::vector<int64_t> sums_;  // cached equation sums
  Cost cost_ = 0;
  core::LazyErrors lazy_errors_;
};

}  // namespace cas::problems
