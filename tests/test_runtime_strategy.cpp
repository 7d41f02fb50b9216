// The Strategy layer: every registered strategy executes the same
// SolveRequest -> SolveReport contract, reports are verified against the
// problems' independent checkers, budgets are honoured, and capability
// gaps (cooperative on non-sharable models, neighborhood off Adaptive
// Search) fail with clear errors instead of crashing.
#include "runtime/strategy.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <utility>

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
    EXPECT_NE(report.error.find("(known: cooperative, multiwalk, neighborhood, portfolio, "
                                "sequential)"),
              std::string::npos)
        << report.error;
  }
}

TEST(Strategy, TimeoutStopsUnsolvedRuns) {
  for (const char* name : {"multiwalk", "cooperative"}) {
    SolveRequest req = small_costas(name);
    req.size = 19;  // paper Table I: ~30 s on faster hardware; hopeless in 50 ms
    req.timeout_seconds = 0.05;
    req.probe_interval = 16;
    util::WallTimer timer;
    const auto report = solve(req);
    ASSERT_TRUE(report.error.empty()) << name << ": " << report.error;
    EXPECT_FALSE(report.solved) << name;
    EXPECT_LT(timer.seconds(), 5.0) << name;
  }
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

TEST(Strategy, CooperativeExposesBlackboardCounters) {
  SolveRequest req = small_costas("cooperative");
  req.strategy_config = util::Json::parse(R"({"adopt_probability": 0.5})");
  const auto report = solve(req);
  ASSERT_TRUE(report.error.empty()) << report.error;
  EXPECT_TRUE(report.solved);
  EXPECT_GE(report.extras.at("blackboard_offers").as_int(), 1);
}

TEST(Strategy, CooperativeRequiresSharableProblem) {
  SolveRequest req = small_costas("cooperative");
  req.problem = "queens";  // no set_permutation: cannot share configurations
  req.size = 16;
  const auto report = solve(req);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("cooperative"), std::string::npos) << report.error;
}

TEST(Strategy, NeighborhoodReplaysTheSequentialWalk) {
  // neighborhood splits the move rows of the walk `sequential` takes for
  // the same seed, so everything in winner_stats but the clocks matches at
  // every scan width, on every model. Both instances reset at least once:
  // Costas through its custom reset, queens through the generic one.
  const auto walk_of = [](const core::RunStats& s) {
    return std::tuple(s.solved, s.final_cost, s.iterations, s.swaps, s.local_minima,
                      s.plateau_moves, s.plateau_refused, s.resets, s.custom_reset_escapes,
                      s.restarts, s.move_evaluations, s.reset_candidates,
                      s.reset_escape_chunks, s.solution);
  };
  for (const auto& [problem, size] : {std::pair<const char*, int>{"costas", 14}, {"queens", 8}}) {
    SolveRequest seq = small_costas("sequential");
    seq.problem = problem;
    seq.size = size;
    seq.seed = 77;
    const auto expected = solve(seq);
    ASSERT_TRUE(expected.error.empty()) << problem << ": " << expected.error;
    ASSERT_TRUE(expected.solved) << problem;
    EXPECT_GT(expected.winner_stats.resets, 0u) << problem;
    for (int walkers : {1, 2, 4}) {
      SolveRequest req = seq;
      req.strategy = "neighborhood";
      req.walkers = walkers;
      const auto report = solve(req);
      ASSERT_TRUE(report.error.empty()) << problem << ": " << report.error;
      EXPECT_EQ(walk_of(report.winner_stats), walk_of(expected.winner_stats))
          << problem << " walkers=" << walkers;
    }
  }
}

TEST(Strategy, NeighborhoodAndCooperativeRequireAdaptiveSearch) {
  for (const char* name : {"neighborhood", "cooperative"}) {
    SolveRequest req = small_costas(name);
    req.engine = "tabu";
    const auto report = solve(req);
    EXPECT_FALSE(report.error.empty()) << name;
  }
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

TEST(Strategy, NeighborhoodRejectsNumThreadsCap) {
  // neighborhood runs its own scan threads; an accepted-but-ignored
  // num_threads would break the fail-loudly contract.
  SolveRequest neighborhood = small_costas("neighborhood");
  neighborhood.num_threads = 2;
  const auto report = solve(neighborhood);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("num_threads"), std::string::npos) << report.error;
  // The multi-walk strategies do honour it.
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
