// The Strategy layer: every registered strategy executes the same
// SolveRequest -> SolveReport contract, reports are verified against the
// problems' independent checkers, budgets are honoured, and malformed
// requests (unknown names, unused engine fields, unknown knobs) fail with
// clear errors instead of crashing.
#include "runtime/strategy.hpp"

#include <gtest/gtest.h>

#include "runtime/problems.hpp"
#include "util/timer.hpp"

namespace cas::runtime {
namespace {

SolveRequest small_costas(const std::string& strategy) {
  SolveRequest req;
  req.problem = "costas";
  req.size = 11;
  req.strategy = strategy;
  req.walkers = 3;
  req.seed = 2012;
  return req;
}

TEST(Strategy, EveryRegisteredStrategySolvesSmallCostas) {
  for (const auto& [name, _] : strategy_registry()) {
    const auto report = solve(small_costas(name));
    ASSERT_TRUE(report.error.empty()) << name << ": " << report.error;
    EXPECT_TRUE(report.solved) << name;
    EXPECT_GE(report.winner, 0) << name;
    EXPECT_TRUE(report.checked) << name;
    EXPECT_TRUE(report.check_passed) << name;
    EXPECT_GT(report.total_iterations, 0u) << name;
    EXPECT_GE(report.walkers_run, 1) << name;
  }
}

TEST(Strategy, ReportSerializesToJson) {
  const auto report = solve(small_costas("multiwalk"));
  const auto j = report.to_json();
  EXPECT_TRUE(j.at("solved").as_bool());
  EXPECT_EQ(j.at("request").at("problem").as_string(), "costas");
  EXPECT_EQ(static_cast<int>(j.at("solution").size()), report.request.size);
}

TEST(Strategy, ValidationFailureComesBackAsErrorReport) {
  SolveRequest req = small_costas("multiwalk");
  req.problem = "nonesuch";
  const auto report = solve(req);
  EXPECT_FALSE(report.error.empty());
  EXPECT_FALSE(report.solved);
  EXPECT_TRUE(report.to_json().contains("error"));
}

TEST(Strategy, IterationBudgetStopsUnsolvedRuns) {
  SolveRequest req = small_costas("multiwalk");
  req.size = 18;           // far beyond what this budget can solve
  req.max_iterations = 50;
  req.probe_interval = 8;
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, -1);
  // Every walker ran and stopped at its cap.
  EXPECT_LE(report.total_iterations, 3u * 50u + 3u);
}

TEST(Strategy, UnknownStrategyErrorNamesTheValidOnes) {
  for (const char* name : {"mpi", "collective"}) {
    const auto report = solve(small_costas(name));
    EXPECT_FALSE(report.solved) << name;
    EXPECT_NE(report.error.find(std::string("unknown strategy '") + name + "'"), std::string::npos)
        << report.error;
    EXPECT_NE(report.error.find("(known: multiwalk, portfolio, sequential)"), std::string::npos)
        << report.error;
  }
}

TEST(Strategy, TimeoutStopsUnsolvedRuns) {
  SolveRequest req = small_costas("multiwalk");
  req.size = 19;  // paper Table I: ~30 s on faster hardware; hopeless in 50 ms
  req.timeout_seconds = 0.05;
  req.probe_interval = 16;
  util::WallTimer timer;
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_FALSE(report.solved);
  EXPECT_LT(timer.seconds(), 5.0);
}

TEST(Strategy, PortfolioReportsWinnerEngineAndHonoursCustomMix) {
  SolveRequest req = small_costas("portfolio");
  req.walkers = 4;
  req.strategy_config = util::Json::parse(R"({"engines": ["as", "tabu"]})");
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.solved);
  const std::string winner_engine = report.extras.at("winner_engine").as_string();
  EXPECT_TRUE(winner_engine == "as" || winner_engine == "tabu") << winner_engine;
}

TEST(Strategy, EverySingleEnginePortfolioSolves) {
  for (const char* engine : {"as", "tabu", "dialectic", "sa"}) {
    SolveRequest req = small_costas("portfolio");
    req.size = 9;
    req.walkers = 2;
    req.seed = 13;
    req.strategy_config = util::Json::parse(std::string(R"({"engines": [")") + engine + "\"]}");
    const auto report = solve(req);
    ASSERT_TRUE(report.error.empty()) << engine << ": " << report.error;
    EXPECT_TRUE(report.solved) << engine;
    EXPECT_TRUE(report.check_passed) << engine;
    EXPECT_EQ(report.extras.at("winner_engine").as_string(), engine);
  }
}

TEST(Strategy, PortfolioCancelsTheSlowMember) {
  // AS (fast on CAP) races SA (slow). Whichever finishes first, the other
  // member stops at its next probe (or never starts) instead of running out
  // its cap.
  SolveRequest req = small_costas("portfolio");
  req.size = 12;
  req.walkers = 2;
  req.seed = 31;
  req.probe_interval = 8;
  req.max_iterations = 20'000'000;
  req.strategy_config = util::Json::parse(R"({"engines": ["as", "sa"]})");
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_TRUE(report.solved);
  EXPECT_LT(report.total_iterations - report.winner_stats.iterations, req.max_iterations);
}

TEST(Strategy, PortfolioRejectsUnknownEngine) {
  SolveRequest req = small_costas("portfolio");
  req.strategy_config = util::Json::parse(R"({"engines": ["warp-drive"]})");
  EXPECT_FALSE(solve(req).error.empty());
}

TEST(Strategy, PortfolioRejectsUnusedEngineField) {
  // The mix comes from strategy_config; a request engine would be
  // silently ignored, so it must be rejected instead.
  SolveRequest req = small_costas("portfolio");
  req.engine = "tabu";
  const auto report = solve(req);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("engines"), std::string::npos) << report.error;
}

TEST(Strategy, UnknownStrategyKnobThrows) {
  SolveRequest req = small_costas("multiwalk");
  req.strategy_config = util::Json::parse(R"({"adopt_probability": 0.5})");
  const auto report = solve(req);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("adopt_probability"), std::string::npos) << report.error;
}

TEST(Strategy, SequentialUsesExactlyOneWalker) {
  SolveRequest req = small_costas("sequential");
  req.walkers = 8;  // normalized away: sequential always runs one walker
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.walkers_run, 1);
  EXPECT_EQ(report.winner, 0);
  // The echoed request describes what actually executed.
  EXPECT_EQ(report.request.walkers, 1);
}

TEST(Strategy, MultiwalkAcceptsNumThreadsCap) {
  SolveRequest req = small_costas("multiwalk");
  req.num_threads = 2;
  EXPECT_TRUE(solve(req).error.empty());
}

TEST(Strategy, EngineOverridesReachTheEngine) {
  // An absurd restart interval forces restarts to show up in the stats —
  // proof the JSON knob reached the engine config.
  SolveRequest req = small_costas("sequential");
  req.size = 13;
  req.engine_config = util::Json::parse(R"({"restart_interval": 25})");
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.solved);
}

}  // namespace
}  // namespace cas::runtime
