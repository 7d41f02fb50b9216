// End-to-end integration: the full pipeline the paper describes — model +
// engine + parallel multi-walk + run-time-distribution analysis — wired
// together exactly as the bench harness uses it.
#include <gtest/gtest.h>

#include "analysis/ecdf.hpp"
#include "analysis/exponential_fit.hpp"
#include "analysis/order_stats.hpp"
#include "analysis/ttt.hpp"
#include "core/adaptive_search.hpp"
#include "core/dialectic_search.hpp"
#include "costas/checker.hpp"
#include "costas/construction.hpp"
#include "costas/enumerate.hpp"
#include "costas/model.hpp"
#include "par/multiwalk.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/platform.hpp"
#include "sim/sample_bank.hpp"

namespace cas {
namespace {

TEST(Integration, SequentialSolvesAreAlwaysValidCostasArrays) {
  for (int n = 5; n <= 15; ++n) {
    costas::CostasProblem p(n);
    core::AdaptiveSearch<costas::CostasProblem> engine(
        p, costas::recommended_config(n, 7000 + static_cast<uint64_t>(n)));
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved) << "n=" << n;
    EXPECT_TRUE(costas::is_costas(st.solution))
        << "n=" << n << ": " << costas::explain_violation(st.solution);
  }
}

TEST(Integration, SearchFindsOnlyEnumeratedArrays) {
  // Every array the engine returns for n=9 must be in the exhaustive set.
  const auto all = costas::all_costas(9);
  const std::set<std::vector<int>> all_set(all.begin(), all.end());
  for (int rep = 0; rep < 10; ++rep) {
    costas::CostasProblem p(9);
    core::AdaptiveSearch<costas::CostasProblem> engine(
        p, costas::recommended_config(9, 31 + static_cast<uint64_t>(rep)));
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved);
    EXPECT_TRUE(all_set.count(st.solution));
  }
}

TEST(Integration, DifferentSeedsReachDifferentSolutions) {
  // Multi-start diversity: across seeds the engine should not collapse to
  // one array (n=10 has 2160 solutions).
  std::set<std::vector<int>> found;
  for (int rep = 0; rep < 12; ++rep) {
    costas::CostasProblem p(10);
    core::AdaptiveSearch<costas::CostasProblem> engine(
        p, costas::recommended_config(10, 100 + static_cast<uint64_t>(rep)));
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved);
    found.insert(st.solution);
  }
  EXPECT_GE(found.size(), 4u);
}

TEST(Integration, MultiWalkMatchesSequentialSolutionQuality) {
  const int n = 13;
  auto walker = [n](int, uint64_t seed, core::StopToken stop) {
    costas::CostasProblem problem(n);
    core::AdaptiveSearch<costas::CostasProblem> engine(problem,
                                                       costas::recommended_config(n, seed));
    return engine.solve(stop);
  };
  for (int walkers : {1, 2, 8}) {
    const auto result = par::run_multiwalk(walkers, 555, walker);
    ASSERT_TRUE(result.solved) << walkers;
    EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
  }
}

TEST(Integration, ConstructionSeedsVerifyAgainstSearchModel) {
  // Algebraic arrays must have zero cost under every model option set.
  for (int n : {10, 12, 16, 21}) {
    const auto c = costas::construct_any(n);
    ASSERT_TRUE(c.has_value()) << n;
    for (bool chang : {true, false}) {
      for (auto err : {costas::ErrFunction::kUnit, costas::ErrFunction::kQuadratic}) {
        costas::CostasProblem p(n, {err, chang});
        EXPECT_EQ(p.evaluate(*c), 0);
      }
    }
  }
}

TEST(Integration, RunLengthDistributionIsHeavyTailed) {
  // The property that motivates the whole paper (Sec. V-A): min run length
  // across restarts is much smaller than the mean. Collect a small bank at
  // n=12 and check max/min spread and mean/min ratio.
  sim::BankOptions opts;
  opts.num_samples = 30;
  opts.num_threads = 2;
  const auto bank = sim::collect_costas_bank(12, costas::recommended_config(12), opts);
  const analysis::Ecdf F(bank.iterations);
  EXPECT_GT(F.mean() / std::max(F.min(), 1.0), 2.0);
}

TEST(Integration, SimulatedSpeedupShapeFromRealBank) {
  // Full pipeline of Tables III-V at a laptop-scale instance: real bank ->
  // order-statistics simulator -> near-linear speedup shape.
  sim::BankOptions opts;
  opts.num_samples = 40;
  opts.num_threads = 2;
  const auto bank = sim::collect_costas_bank(12, costas::recommended_config(12), opts);
  sim::SimOptions sopts;
  sopts.runs = 300;
  sopts.startup_seconds = 0;
  const auto c1 = sim::simulate_cell(bank, sim::ha8000(), 1, sopts);
  const auto c4 = sim::simulate_cell(bank, sim::ha8000(), 4, sopts);
  const auto c16 = sim::simulate_cell(bank, sim::ha8000(), 16, sopts);
  EXPECT_GT(c1.seconds.mean / c4.seconds.mean, 1.6);
  EXPECT_GT(c4.seconds.mean / c16.seconds.mean, 1.3);
}

TEST(Integration, RealThreadMultiWalkBeatsSingleWalkOnAverage) {
  // Wall-clock validation of the mechanism itself on the host's cores
  // (the thread multiwalk validates what the simulator models).
  // Compare total ITERATIONS of the winning walk rather than raw seconds to
  // stay robust on loaded CI machines: expected winner iterations shrink
  // with more walkers.
  const int n = 13;
  auto walker = [n](int, uint64_t seed, core::StopToken stop) {
    costas::CostasProblem problem(n);
    core::AdaptiveSearch<costas::CostasProblem> engine(problem,
                                                       costas::recommended_config(n, seed));
    return engine.solve(stop);
  };
  uint64_t single = 0, multi = 0;
  const int reps = 6;
  for (int r = 0; r < reps; ++r) {
    const auto s1 = par::run_multiwalk(1, 9000 + static_cast<uint64_t>(r), walker);
    const auto s4 = par::run_multiwalk(4, 9000 + static_cast<uint64_t>(r), walker,
                                       par::MultiWalkOptions{.num_threads = 2});
    ASSERT_TRUE(s1.solved && s4.solved);
    single += s1.winner_stats.iterations;
    multi += s4.winner_stats.iterations;
  }
  EXPECT_LT(multi, single * 2);  // direction with generous noise margin
}

TEST(Integration, TttPipelineOnRealData) {
  // Figure 4's pipeline against real run lengths at n=11.
  sim::BankOptions opts;
  opts.num_samples = 40;
  opts.num_threads = 2;
  opts.master_seed = 777;
  const auto bank = sim::collect_costas_bank(11, costas::recommended_config(11), opts);
  auto ttt = analysis::make_ttt("n=11", bank.iterations);
  EXPECT_EQ(ttt.times.size(), 40u);
  EXPECT_GT(ttt.fit.lambda, 0);
  // The paper's Fig. 4 finding: run-time distributions are close to
  // shifted exponential. At this tiny n the fit is loose but the KS
  // distance should not be catastrophic.
  EXPECT_LT(ttt.ks, 0.40);
}

TEST(Integration, DialecticSearchAgreesWithChecker) {
  for (int n : {9, 11}) {
    costas::CostasProblem p(n);
    core::DsConfig cfg;
    cfg.seed = static_cast<uint64_t>(n) * 3;
    core::DialecticSearch<costas::CostasProblem> engine(p, cfg);
    const auto st = engine.solve();
    ASSERT_TRUE(st.solved);
    EXPECT_TRUE(costas::is_costas(st.solution));
  }
}

TEST(Integration, ModelOptionAblationsAllSolve) {
  // All four (err x chang) model combinations must be solvable — the
  // ablation benches depend on this.
  for (bool chang : {true, false}) {
    for (auto err : {costas::ErrFunction::kUnit, costas::ErrFunction::kQuadratic}) {
      costas::CostasProblem p(11, {err, chang});
      auto cfg = costas::recommended_config(11, 42);
      core::AdaptiveSearch<costas::CostasProblem> engine(p, cfg);
      const auto st = engine.solve();
      ASSERT_TRUE(st.solved);
      EXPECT_TRUE(costas::is_costas(st.solution));
    }
  }
}

}  // namespace
}  // namespace cas
