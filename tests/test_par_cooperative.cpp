// Cooperative (dependent) multi-walk — the paper's future-work scheme:
// blackboard semantics, adoption/publication behaviour, and end-to-end
// solving.
#include "par/cooperative.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "costas/checker.hpp"
#include "costas/model.hpp"

namespace cas::par {
namespace {

TEST(Blackboard, KeepsBestOffer) {
  Blackboard b;
  EXPECT_FALSE(b.best().has_value());
  EXPECT_TRUE(b.offer(10, {1, 2, 3}));
  EXPECT_FALSE(b.offer(12, {3, 2, 1}));  // worse: rejected
  EXPECT_TRUE(b.offer(5, {2, 1, 3}));    // better: adopted
  const auto best = b.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 5);
  EXPECT_EQ(best->second, (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(b.offers(), 3u);
  EXPECT_EQ(b.improvements(), 2u);
}

TEST(Blackboard, EqualCostRejected) {
  Blackboard b;
  b.offer(7, {1});
  EXPECT_FALSE(b.offer(7, {2}));
  EXPECT_EQ(b.best()->second, (std::vector<int>{1}));
}

TEST(Blackboard, ConcurrentOffersKeepMinimum) {
  Blackboard b;
  std::vector<std::jthread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&b, t] {
      for (int i = 100; i >= 1; --i) {
        b.offer(static_cast<core::Cost>(i * 4 + t), {i, t});
      }
    });
  }
  threads.clear();
  ASSERT_TRUE(b.best().has_value());
  EXPECT_EQ(b.best()->first, 4);  // min over all offers: i=1, t=0
  EXPECT_EQ(b.offers(), 400u);
}

TEST(CooperativeProblem, PublishesImprovements) {
  Blackboard board;
  costas::CostasProblem inner(10);
  CooperativeProblem<costas::CostasProblem> p(std::move(inner), &board, 0.0);
  core::Rng rng(3);
  p.randomize(rng);
  // Apply a few swaps; any improvement must reach the board. The swapped
  // positions must be distinct — apply_swap(i, i) is outside the
  // LocalSearchProblem contract (engines never produce it).
  for (int t = 0; t < 20; ++t) {
    const int i = static_cast<int>(rng.below(10));
    const int j = (i + 1 + static_cast<int>(rng.below(9))) % 10;
    p.apply_swap(i, j);
  }
  EXPECT_GE(p.publishes(), 1u);
  EXPECT_TRUE(board.best().has_value());
}

TEST(CooperativeProblem, AdoptsSharedConfigurationOnReset) {
  Blackboard board;
  // Seed the board with a configuration advertised at a cost every random
  // configuration exceeds, so the adoption branch must fire.
  costas::CostasProblem donor(10);
  core::Rng rng(4);
  donor.randomize(rng);
  board.offer(1, donor.permutation());

  costas::CostasProblem inner(10);
  CooperativeProblem<costas::CostasProblem> p(std::move(inner), &board, 1.0);
  p.randomize(rng);
  int guard = 0;
  while (p.adoptions() == 0 && ++guard < 50) p.custom_reset(rng);
  EXPECT_GT(p.adoptions(), 0u);
  EXPECT_TRUE(costas::is_permutation(p.permutation()));
  // Adoption re-derives the true cost from the configuration, regardless of
  // the advertised blackboard cost.
  EXPECT_EQ(p.cost(), costas::CostasProblem(10).evaluate(p.permutation()));
}

TEST(CooperativeProblem, ZeroAdoptProbabilityFallsBackToInnerReset) {
  Blackboard board;
  board.offer(1, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  costas::CostasProblem inner(10);
  CooperativeProblem<costas::CostasProblem> p(std::move(inner), &board, 0.0);
  core::Rng rng(5);
  p.randomize(rng);
  for (int t = 0; t < 30; ++t) p.custom_reset(rng);
  EXPECT_EQ(p.adoptions(), 0u);
}

TEST(CooperativeMultiWalk, SolvesCostas) {
  Blackboard board;
  const auto result = run_multiwalk_cooperative<costas::CostasProblem>(
      4, 2012, [](int) { return costas::CostasProblem(13); },
      [](int, uint64_t seed) { return costas::recommended_config(13, seed); },
      /*adopt_probability=*/0.3, {}, &board);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
  EXPECT_GT(board.offers(), 0u);
}

TEST(CooperativeMultiWalk, AdoptProbabilityZeroStillSolves) {
  const auto result = run_multiwalk_cooperative<costas::CostasProblem>(
      3, 99, [](int) { return costas::CostasProblem(12); },
      [](int, uint64_t seed) { return costas::recommended_config(12, seed); },
      /*adopt_probability=*/0.0);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
}

TEST(CooperativeProblem, SatisfiesConcepts) {
  static_assert(core::LocalSearchProblem<CooperativeProblem<costas::CostasProblem>>);
  static_assert(core::HasCustomReset<CooperativeProblem<costas::CostasProblem>>);
  static_assert(SharableProblem<costas::CostasProblem>);
  SUCCEED();
}

}  // namespace
}  // namespace cas::par
