// The umbrella header must compile standalone and expose the full public
// API; this doubles as the "downstream user" smoke test from the README.
#include "cas.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, VersionConstants) {
  EXPECT_EQ(cas::kVersionMajor, 1);
  EXPECT_STREQ(cas::kVersionString, "1.0.0");
  EXPECT_NE(std::string(cas::kPaperCitation).find("Costas"), std::string::npos);
}

TEST(Umbrella, ReadmeQuickstartCompilesAndRuns) {
  auto walker = [](int /*id*/, uint64_t seed, cas::core::StopToken stop) {
    cas::costas::CostasProblem problem(12);
    cas::core::AdaptiveSearch<cas::costas::CostasProblem> engine(
        problem, cas::costas::recommended_config(12, seed));
    return engine.solve(stop);
  };
  const auto result = cas::par::run_multiwalk(2, 2012, walker);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(cas::costas::is_costas(result.winner_stats.solution));
}

TEST(Umbrella, AllMajorTypesReachable) {
  // Compile-time reachability of every public subsystem via one include.
  cas::core::Rng rng(1);
  cas::core::ChaoticSeedSequence seeds(2);
  cas::costas::CostasProblem model(8);
  cas::costas::CpSolver cp(6);
  cas::analysis::Ecdf ecdf({1.0, 2.0});
  const auto fit = cas::analysis::fit_shifted_exponential({1.0, 2.0, 3.0});
  // New subsystems of the extended API surface.
  const auto amb = cas::costas::auto_ambiguity(std::vector<int>{3, 4, 2, 1, 5});
  EXPECT_EQ(amb.max_sidelobe(), 1);
  EXPECT_EQ(cas::costas::known_costas_count(29), 164);
  const auto est = cas::costas::estimate_costas_count(5, 100, 1);
  EXPECT_GT(est.mean, 0);
  const auto wfit = cas::analysis::fit_weibull({1.0, 2.0, 3.0});
  EXPECT_GT(wfit.shape, 0);
  const auto sp = cas::analysis::predict_speedup({0.0, 10.0}, 4);
  EXPECT_DOUBLE_EQ(sp.speedup, 4.0);
  EXPECT_TRUE(cas::runtime::strategy_registry().contains("portfolio"));
  EXPECT_GT(fit.lambda, 0);
  EXPECT_EQ(cp.count_solutions(), 116u);  // n=6
  (void)rng;
  (void)seeds;
  (void)model;
  (void)ecdf;
}

}  // namespace
