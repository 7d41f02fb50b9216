// Single-walk parallel engine (ParallelNeighborhoodSearch): the exact
// sequential AS walk at every scan width, consistency under resets,
// budget/stop handling, and scan partitioning.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <utility>
#include <vector>

#include "core/adaptive_search.hpp"
#include "costas/checker.hpp"
#include "costas/model.hpp"
#include "par/neighborhood.hpp"

namespace cas::par {
namespace {

/// Everything in RunStats but the clocks: the walk itself.
auto walk_of(const core::RunStats& s) {
  return std::tuple(s.solved, s.final_cost, s.iterations, s.swaps, s.local_minima,
                    s.plateau_moves, s.plateau_refused, s.resets, s.custom_reset_escapes,
                    s.restarts, s.move_evaluations, s.reset_candidates, s.reset_escape_chunks,
                    s.solution);
}

TEST(ParallelNeighborhood, SolvesSmallCostasWithOneThread) {
  costas::CostasProblem p(10);
  ParallelNeighborhoodSearch<costas::CostasProblem> engine(
      p, costas::recommended_config(10, 3), 1);
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_TRUE(costas::is_costas(st.solution));
}

class ParallelNeighborhoodThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParallelNeighborhoodThreads, SolvesAcrossThreadCounts) {
  const int threads = GetParam();
  for (int n : {10, 12}) {
    costas::CostasProblem p(n);
    ParallelNeighborhoodSearch<costas::CostasProblem> engine(
        p, costas::recommended_config(n, static_cast<uint64_t>(n + threads)), threads);
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved) << "n=" << n << " threads=" << threads;
    EXPECT_TRUE(costas::is_costas(st.solution));
    EXPECT_EQ(st.final_cost, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelNeighborhoodThreads, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(ParallelNeighborhood, DeterministicForFixedSeedAndThreads) {
  costas::CostasProblem p1(11), p2(11);
  const auto cfg = costas::recommended_config(11, 9);
  ParallelNeighborhoodSearch<costas::CostasProblem> e1(p1, cfg, 3), e2(p2, cfg, 3);
  const auto s1 = e1.solve();
  const auto s2 = e2.solve();
  ASSERT_TRUE(s1.solved);
  EXPECT_EQ(s1.solution, s2.solution);
  EXPECT_EQ(s1.iterations, s2.iterations);
  EXPECT_EQ(s1.move_evaluations, s2.move_evaluations);
}

TEST(ParallelNeighborhood, ScansTheFullNeighborhoodEachIteration) {
  // Move evaluations must equal (n - 1) per iteration regardless of the
  // thread partitioning (no j skipped, none double-counted).
  const int n = 13;
  for (int threads : {1, 2, 5}) {
    costas::CostasProblem p(n);
    auto cfg = costas::recommended_config(n, 21);
    cfg.max_iterations = 50;
    ParallelNeighborhoodSearch<costas::CostasProblem> engine(p, cfg, threads);
    const auto st = engine.solve();
    EXPECT_EQ(st.move_evaluations, st.iterations * static_cast<uint64_t>(n - 1))
        << "threads=" << threads;
  }
}

TEST(ParallelNeighborhood, BudgetRespected) {
  costas::CostasProblem p(16);
  auto cfg = costas::recommended_config(16, 4);
  cfg.max_iterations = 25;
  ParallelNeighborhoodSearch<costas::CostasProblem> engine(p, cfg, 2);
  const auto st = engine.solve();
  if (!st.solved) EXPECT_LE(st.iterations, 25u);
}

TEST(ParallelNeighborhood, StopTokenHonored) {
  costas::CostasProblem p(17);
  auto cfg = costas::recommended_config(17, 5);
  cfg.probe_interval = 1;
  std::atomic<bool> flag{true};
  ParallelNeighborhoodSearch<costas::CostasProblem> engine(p, cfg, 2);
  const auto st = engine.solve(core::StopToken(&flag));
  EXPECT_FALSE(st.solved);
  EXPECT_LE(st.iterations, 2u);
}

TEST(ParallelNeighborhood, SurvivesManyResets) {
  // A small instance forces many custom resets between split scans; the
  // run must stay consistent (a scanner reading a stale configuration
  // would return move costs inconsistent with the engine thread's, which would
  // show up as a non-decreasing-cost crash or a wrong solution).
  costas::CostasProblem p(14);
  auto cfg = costas::recommended_config(14, 6);
  ParallelNeighborhoodSearch<costas::CostasProblem> engine(p, cfg, 4);
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_TRUE(costas::is_costas(st.solution));
  EXPECT_GE(st.resets, 1u);  // n = 14 never solves reset-free in practice
}

TEST(ParallelNeighborhood, ReplaysSequentialAsExactly) {
  // The split row equals the native row lane for lane, so the walk is the
  // one core::AdaptiveSearch takes on the same config, at any scan width —
  // restarts and kept tabu marks included.
  auto restarting = costas::recommended_config(15, 77);
  restarting.restart_interval = 300;
  restarting.keep_tabu_on_reset = true;
  const std::vector<std::pair<int, core::AsConfig>> cases = {
      {10, costas::recommended_config(10, 100)},
      {12, costas::recommended_config(12, 101)},
      {13, costas::recommended_config(13, 102)},
      {15, restarting},
  };
  for (const auto& [n, cfg] : cases) {
    costas::CostasProblem ps(n);
    const auto seq = core::AdaptiveSearch<costas::CostasProblem>(ps, cfg).solve();
    ASSERT_TRUE(seq.solved) << "n=" << n;
    if (n == 15) {
      EXPECT_GT(seq.restarts, 0u);  // the restarting config
    }
    for (int threads : {1, 2, 3, 5}) {
      costas::CostasProblem pp(n);
      const auto par = ParallelNeighborhoodSearch<costas::CostasProblem>(pp, cfg, threads).solve();
      EXPECT_EQ(walk_of(par), walk_of(seq)) << "n=" << n << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace cas::par
