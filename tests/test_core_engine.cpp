// Adaptive Search engine mechanics: culprit selection, min-conflict moves,
// plateau policy, tabu/reset bookkeeping, budgets, stop tokens,
// determinism. Uses small synthetic problems whose landscapes are fully
// understood, plus N-Queens as an easy structured instance.
#include "core/adaptive_search.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "problems/queens.hpp"

namespace cas::core {
namespace {

/// Toy problem: configuration is a permutation of 1..n; cost is the number
/// of positions where perm[i] != i+1 (Hamming distance to the identity).
/// Unique global optimum, smooth landscape, trivially verifiable.
class SortProblem {
 public:
  explicit SortProblem(int n) : perm_(static_cast<size_t>(n)) {
    std::iota(perm_.begin(), perm_.end(), 1);
  }

  [[nodiscard]] int size() const { return static_cast<int>(perm_.size()); }
  [[nodiscard]] Cost cost() const { return cost_; }
  [[nodiscard]] int value(int i) const { return perm_[static_cast<size_t>(i)]; }

  void randomize(Rng& rng) {
    rng.shuffle(perm_);
    recompute();
  }
  void apply_swap(int i, int j) {
    std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
    recompute();
  }
  [[nodiscard]] Cost delta_cost(int i, int j) const {
    if (i == j) return 0;
    const auto mism = [](int pos, int v) { return v != pos + 1 ? 1 : 0; };
    const int vi = perm_[static_cast<size_t>(i)], vj = perm_[static_cast<size_t>(j)];
    return mism(i, vj) + mism(j, vi) - mism(i, vi) - mism(j, vj);
  }
  [[nodiscard]] std::span<const Cost> errors() const { return lazy_errors_.get(*this); }
  void compute_errors(std::span<Cost> errs) const {
    for (int i = 0; i < size(); ++i)
      errs[static_cast<size_t>(i)] = perm_[static_cast<size_t>(i)] != i + 1 ? 1 : 0;
  }

 private:
  void recompute() {
    cost_ = 0;
    for (int i = 0; i < size(); ++i) cost_ += perm_[static_cast<size_t>(i)] != i + 1;
    lazy_errors_.invalidate();
  }
  std::vector<int> perm_;
  Cost cost_ = 0;
  LazyErrors lazy_errors_;
};
static_assert(LocalSearchProblem<SortProblem>);

/// Problem with a custom reset that records invocations: cost is distance
/// to identity as above, but the landscape is made "sticky" by only
/// counting the first k mismatches — creating plateaus and local minima.
class CustomResetProbe {
 public:
  explicit CustomResetProbe(int n) : inner_(n) {}
  [[nodiscard]] int size() const { return inner_.size(); }
  [[nodiscard]] Cost cost() const { return inner_.cost(); }
  [[nodiscard]] int value(int i) const { return inner_.value(i); }
  void randomize(Rng& rng) { inner_.randomize(rng); }
  void apply_swap(int i, int j) { inner_.apply_swap(i, j); }
  [[nodiscard]] Cost delta_cost(int i, int j) const { return inner_.delta_cost(i, j); }
  [[nodiscard]] std::span<const Cost> errors() const { return inner_.errors(); }
  void compute_errors(std::span<Cost> errs) const { inner_.compute_errors(errs); }
  bool custom_reset(Rng& rng) {
    ++reset_calls;
    // Perturb: one random transposition (may or may not improve).
    const int n = inner_.size();
    const Cost before = inner_.cost();
    const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
    int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
    if (j == i) j = (j + 1) % n;
    inner_.apply_swap(i, j);
    return inner_.cost() < before;
  }
  int reset_calls = 0;

 private:
  SortProblem inner_;
};
static_assert(LocalSearchProblem<CustomResetProbe>);
static_assert(HasCustomReset<CustomResetProbe>);
static_assert(!HasCustomReset<SortProblem>);

AsConfig toy_config(uint64_t seed) {
  AsConfig cfg;
  cfg.seed = seed;
  cfg.tabu_tenure = 3;
  cfg.reset_limit = 2;
  cfg.reset_fraction = 0.2;
  cfg.max_iterations = 200000;
  return cfg;
}

TEST(AdaptiveSearch, SolvesSortProblem) {
  SortProblem p(12);
  AdaptiveSearch<SortProblem> engine(p, toy_config(1));
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_EQ(st.final_cost, 0);
  for (int i = 0; i < p.size(); ++i) EXPECT_EQ(p.value(i), i + 1);
}

TEST(AdaptiveSearch, SolutionVectorMatchesProblemState) {
  SortProblem p(10);
  AdaptiveSearch<SortProblem> engine(p, toy_config(2));
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  ASSERT_EQ(static_cast<int>(st.solution.size()), p.size());
  for (int i = 0; i < p.size(); ++i) EXPECT_EQ(st.solution[static_cast<size_t>(i)], p.value(i));
}

TEST(AdaptiveSearch, DeterministicForFixedSeed) {
  SortProblem p1(14), p2(14);
  AdaptiveSearch<SortProblem> e1(p1, toy_config(77)), e2(p2, toy_config(77));
  const auto s1 = e1.solve();
  const auto s2 = e2.solve();
  EXPECT_EQ(s1.iterations, s2.iterations);
  EXPECT_EQ(s1.swaps, s2.swaps);
  EXPECT_EQ(s1.local_minima, s2.local_minima);
  EXPECT_EQ(s1.solution, s2.solution);
}

TEST(AdaptiveSearch, DifferentSeedsDifferentTrajectories) {
  SortProblem p1(14), p2(14);
  AdaptiveSearch<SortProblem> e1(p1, toy_config(1)), e2(p2, toy_config(2));
  const auto s1 = e1.solve();
  const auto s2 = e2.solve();
  // Both solve; trajectories almost surely differ.
  EXPECT_TRUE(s1.solved && s2.solved);
  EXPECT_TRUE(s1.iterations != s2.iterations || s1.solution != s2.solution);
}

TEST(AdaptiveSearch, RespectsIterationBudget) {
  SortProblem p(30);
  auto cfg = toy_config(3);
  cfg.max_iterations = 5;  // far too small to solve n=30
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_FALSE(st.solved);
  EXPECT_LE(st.iterations, 5u);
  EXPECT_GT(st.final_cost, 0);
}

TEST(AdaptiveSearch, StopTokenPreemptsSearch) {
  SortProblem p(30);
  auto cfg = toy_config(4);
  cfg.probe_interval = 1;
  std::atomic<bool> stop{true};  // already stopped before starting
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve(StopToken(&stop));
  EXPECT_FALSE(st.solved);
  EXPECT_LE(st.iterations, 2u);
}

TEST(AdaptiveSearch, PredicateStopToken) {
  SortProblem p(30);
  auto cfg = toy_config(5);
  cfg.probe_interval = 1;
  int polls = 0;
  const std::function<bool()> pred = [&polls] { return ++polls >= 10; };
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve(StopToken(&pred));
  EXPECT_FALSE(st.solved);
  EXPECT_GE(polls, 10);
  EXPECT_LE(st.iterations, 16u);
}

TEST(AdaptiveSearch, AccountingIdentity) {
  // Every counted iteration either applies a swap or records a local
  // minimum (diversification itself does not consume an iteration).
  SortProblem p(16);
  AdaptiveSearch<SortProblem> engine(p, toy_config(6));
  const auto st = engine.solve();
  EXPECT_EQ(st.iterations, st.swaps + st.local_minima);
  EXPECT_GE(st.swaps, 1u);
}

TEST(AdaptiveSearch, PlateauProbabilityZeroTakesNoPlateauMoves) {
  SortProblem p(16);
  auto cfg = toy_config(7);
  cfg.plateau_probability = 0.0;
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_EQ(st.plateau_moves, 0u);
}

TEST(AdaptiveSearch, PlateauProbabilityOneNeverRefuses) {
  SortProblem p(16);
  auto cfg = toy_config(8);
  cfg.plateau_probability = 1.0;
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_EQ(st.plateau_refused, 0u);
}

TEST(AdaptiveSearch, RestartIntervalTriggersRestarts) {
  SortProblem p(40);
  auto cfg = toy_config(9);
  cfg.restart_interval = 50;
  cfg.max_iterations = 500;
  AdaptiveSearch<SortProblem> engine(p, cfg);
  const auto st = engine.solve();
  if (!st.solved) EXPECT_GE(st.restarts, 1u);
}

TEST(AdaptiveSearch, CustomResetInvokedWhenEnabled) {
  CustomResetProbe p(10);
  auto cfg = toy_config(10);
  cfg.use_custom_reset = true;
  cfg.reset_limit = 1;
  AdaptiveSearch<CustomResetProbe> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_TRUE(st.solved);
  EXPECT_EQ(static_cast<uint64_t>(p.reset_calls), st.resets);
}

TEST(AdaptiveSearch, CustomResetSkippedWhenDisabled) {
  CustomResetProbe p(10);
  auto cfg = toy_config(11);
  cfg.use_custom_reset = false;
  AdaptiveSearch<CustomResetProbe> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_TRUE(st.solved);
  EXPECT_EQ(p.reset_calls, 0);
}

TEST(AdaptiveSearch, EscapeCountNeverExceedsResets) {
  CustomResetProbe p(12);
  auto cfg = toy_config(12);
  AdaptiveSearch<CustomResetProbe> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_LE(st.custom_reset_escapes, st.resets);
}

TEST(AdaptiveSearch, SolvesQueens) {
  for (int n : {8, 16, 64}) {
    problems::QueensProblem p(n);
    AsConfig cfg;
    cfg.seed = 100 + static_cast<uint64_t>(n);
    cfg.tabu_tenure = 4;
    cfg.reset_limit = 4;
    cfg.max_iterations = 500000;
    AdaptiveSearch<problems::QueensProblem> engine(p, cfg);
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved) << "n=" << n;
    EXPECT_TRUE(p.valid());
  }
}

TEST(AdaptiveSearch, WallSecondsPopulated) {
  SortProblem p(10);
  AdaptiveSearch<SortProblem> engine(p, toy_config(13));
  const auto st = engine.solve();
  EXPECT_GE(st.wall_seconds, 0.0);
  EXPECT_LT(st.wall_seconds, 60.0);
}

TEST(AdaptiveSearch, SolveFromCurrentDoesNotRandomize) {
  SortProblem p(8);  // starts at the identity = already solved
  AdaptiveSearch<SortProblem> engine(p, toy_config(14));
  const auto st = engine.solve_from_current();
  EXPECT_TRUE(st.solved);
  EXPECT_EQ(st.iterations, 0u);
}

TEST(AdaptiveSearch, MoveEvaluationsCounted) {
  SortProblem p(12);
  AdaptiveSearch<SortProblem> engine(p, toy_config(15));
  const auto st = engine.solve();
  // Each iteration scans n-1 candidate swaps.
  EXPECT_EQ(st.move_evaluations, st.iterations * 11);
}

}  // namespace
}  // namespace cas::core
