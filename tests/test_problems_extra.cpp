// The three extra CSPLib benchmarks from the reference AS library
// (langford.c, partit.c, alpha.c): model correctness, incremental-cost
// consistency, known solutions, and engine solvability.
#include <gtest/gtest.h>

#include "core/adaptive_search.hpp"
#include "core/rng.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/partition.hpp"

namespace cas::problems {
namespace {

// ---------- Langford ----------

TEST(Langford, SolvabilityRule) {
  EXPECT_FALSE(LangfordProblem::solvable(1));
  EXPECT_FALSE(LangfordProblem::solvable(2));
  EXPECT_TRUE(LangfordProblem::solvable(3));
  EXPECT_TRUE(LangfordProblem::solvable(4));
  EXPECT_FALSE(LangfordProblem::solvable(5));
  EXPECT_FALSE(LangfordProblem::solvable(6));
  EXPECT_TRUE(LangfordProblem::solvable(7));
  EXPECT_TRUE(LangfordProblem::solvable(8));
}

TEST(Langford, KnownSolutionScoresZero) {
  // The classic L(2,3) arrangement 2 3 1 2 1 3 and L(2,4) 4 1 3 1 2 4 3 2.
  EXPECT_TRUE(LangfordProblem::is_langford(std::vector<int>{2, 3, 1, 2, 1, 3}));
  EXPECT_TRUE(LangfordProblem::is_langford(std::vector<int>{4, 1, 3, 1, 2, 4, 3, 2}));
}

TEST(Langford, CheckerRejectsBadSequences) {
  EXPECT_FALSE(LangfordProblem::is_langford(std::vector<int>{1, 1, 2, 2, 3, 3}));
  EXPECT_FALSE(LangfordProblem::is_langford(std::vector<int>{2, 3, 1, 2, 1}));   // odd length
  EXPECT_FALSE(LangfordProblem::is_langford(std::vector<int>{2, 3, 1, 2, 1, 4}));  // bad values
  EXPECT_FALSE(LangfordProblem::is_langford(std::vector<int>{1, 2, 1, 2, 3, 3}));  // 3s adjacent
}

TEST(Langford, RejectsBadOrder) {
  EXPECT_THROW(LangfordProblem(0), std::invalid_argument);
}

TEST(Langford, IncrementalCostMatchesRebuild) {
  LangfordProblem p(6);
  core::Rng rng(3);
  p.randomize(rng);
  for (int t = 0; t < 2000; ++t) {
    const int i = static_cast<int>(rng.below(12));
    const int j = static_cast<int>(rng.below(12));
    if (i == j) continue;
    const auto pred = p.cost() + p.delta_cost(i, j);
    p.apply_swap(i, j);
    ASSERT_EQ(p.cost(), pred) << "t=" << t;
    // Independent recomputation through a fresh problem.
    LangfordProblem q(6);
    // Drive q to p's configuration by matching displayed sequences is
    // nontrivial; instead verify cost consistency via valid().
    ASSERT_EQ(p.cost() == 0, p.valid());
  }
}

class LangfordSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(LangfordSolveSweep, AdaptiveSearchSolves) {
  const int n = GetParam();
  LangfordProblem p(n);
  core::AsConfig cfg;
  cfg.seed = static_cast<uint64_t>(n);
  core::AdaptiveSearch<LangfordProblem> engine(p, cfg);
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_TRUE(p.valid());
  EXPECT_TRUE(LangfordProblem::is_langford(p.sequence()));
}

INSTANTIATE_TEST_SUITE_P(SolvableOrders, LangfordSolveSweep,
                         ::testing::Values(3, 4, 7, 8, 11, 12, 15, 16, 19, 20),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST(Langford, UnsolvableOrderNeverReachesZero) {
  // n = 5 has no solution; a budgeted run must end with positive cost.
  LangfordProblem p(5);
  core::AsConfig cfg;
  cfg.seed = 9;
  cfg.max_iterations = 30000;
  core::AdaptiveSearch<LangfordProblem> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_FALSE(st.solved);
  EXPECT_GT(st.final_cost, 0);
}

// ---------- Number partitioning ----------

TEST(Partition, RejectsBadOrders) {
  EXPECT_THROW(PartitionProblem(6), std::invalid_argument);   // not multiple of 4
  EXPECT_THROW(PartitionProblem(0), std::invalid_argument);
  EXPECT_THROW(PartitionProblem(-8), std::invalid_argument);
}

TEST(Partition, TargetsMatchClosedForms) {
  PartitionProblem p(8);
  EXPECT_EQ(p.target_sum(), 18);              // 36 / 2
  EXPECT_EQ(p.target_sum_of_squares(), 102);  // 204 / 2
}

TEST(Partition, KnownSolutionForN8) {
  // {1,4,6,7} vs {2,3,5,8}: sums 18/18, squares 102/102.
  PartitionProblem p(8);
  core::Rng rng(1);
  // Drive to the known grouping via swaps.
  const std::vector<int> want{1, 4, 6, 7, 2, 3, 5, 8};
  for (int i = 0; i < 8; ++i) {
    for (int j = i; j < 8; ++j) {
      if (p.value(j) == want[static_cast<size_t>(i)]) {
        if (i != j) p.apply_swap(i, j);
        break;
      }
    }
  }
  EXPECT_EQ(p.cost(), 0);
  EXPECT_TRUE(p.valid());
}

TEST(Partition, IncrementalCostMatchesPrediction) {
  PartitionProblem p(16);
  core::Rng rng(7);
  p.randomize(rng);
  for (int t = 0; t < 2000; ++t) {
    const int i = static_cast<int>(rng.below(16));
    const int j = static_cast<int>(rng.below(16));
    if (i == j) continue;
    const auto pred = p.cost() + p.delta_cost(i, j);
    p.apply_swap(i, j);
    ASSERT_EQ(p.cost(), pred) << "t=" << t;
  }
}

TEST(Partition, WithinGroupSwapsAreCostNeutral) {
  PartitionProblem p(12);
  core::Rng rng(5);
  p.randomize(rng);
  const auto before = p.cost();
  EXPECT_EQ(p.cost() + p.delta_cost(0, 3), before);   // both in group A
  EXPECT_EQ(p.cost() + p.delta_cost(7, 11), before);  // both in group B
}

class PartitionSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSolveSweep, AdaptiveSearchSolves) {
  const int n = GetParam();
  PartitionProblem p(n);
  core::AsConfig cfg;
  cfg.seed = static_cast<uint64_t>(100 + n);
  core::AdaptiveSearch<PartitionProblem> engine(p, cfg);
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_TRUE(p.valid());
  // Group invariants, rechecked from scratch.
  const auto a = p.group_a();
  const auto b = p.group_b();
  ASSERT_EQ(a.size(), b.size());
  int64_t sa = 0, sb = 0, qa = 0, qb = 0;
  for (int v : a) { sa += v; qa += static_cast<int64_t>(v) * v; }
  for (int v : b) { sb += v; qb += static_cast<int64_t>(v) * v; }
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(qa, qb);
}

INSTANTIATE_TEST_SUITE_P(Orders, PartitionSolveSweep,
                         ::testing::Values(8, 12, 16, 24, 40, 80),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

TEST(Partition, N4IsInfeasible) {
  // {1,4}/{2,3} balances sums but no 2+2 split balances squares.
  PartitionProblem p(4);
  core::AsConfig cfg;
  cfg.seed = 3;
  cfg.max_iterations = 20000;
  core::AdaptiveSearch<PartitionProblem> engine(p, cfg);
  const auto st = engine.solve();
  EXPECT_FALSE(st.solved);
}

// ---------- Alpha cipher ----------

TEST(Alpha, CanonicalSolutionSatisfiesEverything) {
  AlphaProblem p;
  // Published solution of the rec.puzzles instance (A..Z).
  const int sol[26] = {5, 13, 9, 16, 20, 4,  24, 21, 25, 17, 23, 2,  8,
                       12, 10, 19, 7, 11, 15, 3,  1,  26, 6,  22, 14, 18};
  for (int i = 0; i < 26; ++i) {
    for (int j = i; j < 26; ++j) {
      if (p.value(j) == sol[i]) {
        if (i != j) p.apply_swap(i, j);
        break;
      }
    }
  }
  EXPECT_EQ(p.cost(), 0);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.value_of('E'), 20);
  EXPECT_EQ(p.value_of('z'), 18);  // lower case accepted
  EXPECT_EQ(p.word_sum("BALLET"), 45);
  EXPECT_EQ(p.word_sum("SAXOPHONE"), 134);
  EXPECT_EQ(p.word_sum("JAZZ"), 58);
}

TEST(Alpha, IncrementalCostMatchesPrediction) {
  AlphaProblem p;
  core::Rng rng(11);
  p.randomize(rng);
  for (int t = 0; t < 3000; ++t) {
    const int i = static_cast<int>(rng.below(26));
    const int j = static_cast<int>(rng.below(26));
    if (i == j) continue;
    const auto pred = p.cost() + p.delta_cost(i, j);
    p.apply_swap(i, j);
    ASSERT_EQ(p.cost(), pred) << "t=" << t;
  }
}

TEST(Alpha, RejectsBadEquations) {
  EXPECT_THROW(AlphaProblem(std::vector<AlphaProblem::Equation>{}), std::invalid_argument);
  EXPECT_THROW(AlphaProblem({{"B4D", 10}}), std::invalid_argument);
}

TEST(Alpha, AdaptiveSearchSolvesWithTunedConfig) {
  // The unique solution means the engine must reproduce the canonical
  // assignment exactly.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    AlphaProblem p;
    core::AdaptiveSearch<AlphaProblem> engine(p, AlphaProblem::recommended_config(seed));
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved) << "seed=" << seed;
    EXPECT_TRUE(p.valid());
    EXPECT_EQ(p.value_of('A'), 5);
    EXPECT_EQ(p.value_of('V'), 26);
    EXPECT_EQ(p.value_of('U'), 1);
  }
}

TEST(Alpha, CustomTinyInstance) {
  // A 26-letter assignment constrained by two tiny equations; feasible and
  // quickly solvable (many solutions).
  AlphaProblem p({{"AB", 3}, {"ABC", 6}});
  core::AdaptiveSearch<AlphaProblem> engine(p, AlphaProblem::recommended_config(4));
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_EQ(p.word_sum("AB"), 3);
  EXPECT_EQ(p.word_sum("ABC"), 6);
}

}  // namespace
}  // namespace cas::problems
