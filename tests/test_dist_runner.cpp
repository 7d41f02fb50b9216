// The distributed strategy runner end to end, whole worlds inside one test
// process: multiwalk and cooperative requests split across
// socket ranks, the merged rank-0 report (global winner id, per-rank
// provenance, comm counters), the broadcast stochastic seed, epoch reuse of
// one world across successive requests, and the pure decide_round()
// decision rule the cooperation rounds rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "costas/checker.hpp"
#include "dist/runner.hpp"
#include "dist/world.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {
namespace {

/// Run every request, in order, on a world of `ranks` ranks (one thread
/// per rank, rank 0 hosting the coordinator). Returns reports[rank][req].
std::vector<std::vector<runtime::SolveReport>> run_world(
    int ranks, const std::vector<runtime::SolveRequest>& reqs) {
  std::vector<std::vector<runtime::SolveReport>> reports(static_cast<size_t>(ranks));
  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::vector<std::jthread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      WorldOptions wo;
      wo.rank = r;
      wo.ranks = ranks;
      wo.collective_timeout_seconds = 60.0;
      std::optional<World> world;
      if (r == 0) {
        world.emplace(wo, [&](uint16_t p) { port_promise.set_value(p); });
      } else {
        wo.port = port.get();
        world.emplace(wo);
      }
      const runtime::StrategyContext ctx;
      for (const auto& req : reqs)
        reports[static_cast<size_t>(r)].push_back(solve_distributed(*world, req, ctx));
      world->finalize();
    });
  }
  threads.clear();  // join
  return reports;
}

runtime::SolveRequest costas_request(const std::string& strategy, int size, int walkers,
                                     uint64_t seed) {
  runtime::SolveRequest req;
  req.problem = "costas";
  req.size = size;
  req.strategy = strategy;
  req.walkers = walkers;
  req.seed = seed;
  return req;
}

TEST(DecideRound, CheapestConfigWinsTiesToLowestRank) {
  std::vector<RankOffer> offers(3);
  offers[0].best_cost = 7;
  offers[0].config = {1, 2};
  offers[1].best_cost = 4;
  offers[1].config = {3, 4};
  offers[2].best_cost = 4;
  offers[2].config = {5, 6};
  const RoundDecision dec = decide_round(offers);
  EXPECT_EQ(dec.best_rank, 1);
  EXPECT_EQ(dec.best_cost, 4);
  EXPECT_EQ(dec.config, (std::vector<int64_t>{3, 4}));
  EXPECT_FALSE(dec.any_solved);
  EXPECT_FALSE(dec.all_done);
}

TEST(DecideRound, TracksDoneAndSolvedFlags) {
  std::vector<RankOffer> offers(2);
  offers[0].done = true;
  offers[1].done = true;
  offers[1].solved = true;
  const RoundDecision dec = decide_round(offers);
  EXPECT_TRUE(dec.all_done);
  EXPECT_TRUE(dec.any_solved);
  EXPECT_EQ(dec.best_rank, -1);  // nobody published a configuration
}

TEST(DecideRound, PayloadRoundTrip) {
  RankOffer o;
  o.done = true;
  o.best_cost = 12;
  o.config = {4, 0, 3};
  const RankOffer back = RankOffer::from_payload(o.to_payload());
  EXPECT_EQ(back.done, o.done);
  EXPECT_EQ(back.solved, o.solved);
  EXPECT_EQ(back.best_cost, o.best_cost);
  EXPECT_EQ(back.config, o.config);
  RoundDecision d;
  d.any_solved = true;
  d.best_rank = 2;
  d.best_cost = 5;
  d.config = {1, 2, 3};
  const RoundDecision dback = RoundDecision::from_payload(d.to_payload());
  EXPECT_EQ(dback.any_solved, d.any_solved);
  EXPECT_EQ(dback.all_done, d.all_done);
  EXPECT_EQ(dback.best_rank, d.best_rank);
  EXPECT_EQ(dback.config, d.config);
}

TEST(DistRunner, MultiwalkSolvesAndMergesAcrossTwoRanks) {
  const auto reports = run_world(2, {costas_request("multiwalk", 12, 4, 2012)});
  const runtime::SolveReport& root = reports[0][0];
  ASSERT_TRUE(root.error.empty()) << root.error;
  EXPECT_TRUE(root.solved);
  EXPECT_GE(root.winner, 0);
  EXPECT_LT(root.winner, 4);
  EXPECT_TRUE(root.checked);
  EXPECT_TRUE(root.check_passed);
  EXPECT_TRUE(costas::is_costas(root.winner_stats.solution));
  EXPECT_GT(root.total_iterations, 0u);

  // The merged report's dist block: one row per rank, comm counters alive.
  const auto* dist = root.extras.find("dist");
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(static_cast<int>(dist->find("ranks")->as_int()), 2);
  ASSERT_EQ(dist->find("per_rank")->as_array().size(), 2u);
  const auto* comm = dist->find("comm");
  ASSERT_NE(comm, nullptr);
  EXPECT_GT(comm->find("frames_sent")->as_int(), 0);
  EXPECT_GT(comm->find("bytes_sent")->as_int(), 0);
  EXPECT_GT(comm->find("collective_rounds")->as_int(), 0);

  // Every rank agrees on the global outcome; the participation stub does
  // not carry the merged per-rank rows.
  const runtime::SolveReport& stub = reports[1][0];
  ASSERT_TRUE(stub.error.empty()) << stub.error;
  EXPECT_TRUE(stub.solved);
  EXPECT_EQ(stub.winner, root.winner);
}

TEST(DistRunner, CooperativeSharesConfigurationsAcrossRanks) {
  const auto reports = run_world(2, {costas_request("cooperative", 13, 4, 77)});
  const runtime::SolveReport& root = reports[0][0];
  ASSERT_TRUE(root.error.empty()) << root.error;
  EXPECT_TRUE(root.solved);
  EXPECT_TRUE(costas::is_costas(root.winner_stats.solution));
  const auto* dist = root.extras.find("dist");
  ASSERT_NE(dist, nullptr);
  EXPECT_GE(dist->find("cooperation_rounds")->as_int(), 1);
  EXPECT_NE(root.extras.find("blackboard_offers"), nullptr);
}

TEST(DistRunner, StochasticSeedIsDrawnOnceAndBroadcast) {
  const auto reports = run_world(2, {costas_request("multiwalk", 11, 4, 0)});
  const uint64_t seed0 = reports[0][0].request.seed;
  const uint64_t seed1 = reports[1][0].request.seed;
  EXPECT_NE(seed0, 0u);
  EXPECT_EQ(seed0, seed1) << "ranks diverged on the drawn seed";
}

TEST(DistRunner, OneWorldServesSuccessiveRequests) {
  // Epoch protocol: the same long-lived world runs three requests back to
  // back (mixing strategies), each fully merged — stray SOLUTION_FOUND
  // frames from request k must not leak into request k+1.
  const auto reports = run_world(2, {costas_request("multiwalk", 12, 4, 1),
                                     costas_request("cooperative", 12, 4, 2),
                                     costas_request("multiwalk", 11, 2, 3)});
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(reports[static_cast<size_t>(r)].size(), 3u);
    for (const auto& rep : reports[static_cast<size_t>(r)]) {
      EXPECT_TRUE(rep.error.empty()) << rep.error;
      EXPECT_TRUE(rep.solved);
    }
  }
}

TEST(DistRunner, InvalidRequestsFailConsistentlyAndWorldSurvives) {
  // Strategy not distributable + walkers < ranks: both must error the SAME
  // way on every rank (no collective ran), leaving the world usable.
  auto bad_strategy = costas_request("neighborhood", 12, 4, 9);
  auto too_few = costas_request("multiwalk", 12, 1, 9);
  const auto reports =
      run_world(2, {bad_strategy, too_few, costas_request("multiwalk", 11, 2, 9)});
  for (int r = 0; r < 2; ++r) {
    EXPECT_NE(reports[static_cast<size_t>(r)][0].error.find("not distributable"),
              std::string::npos);
    EXPECT_NE(reports[static_cast<size_t>(r)][1].error.find("walkers >= ranks"),
              std::string::npos);
    EXPECT_TRUE(reports[static_cast<size_t>(r)][2].error.empty());
    EXPECT_TRUE(reports[static_cast<size_t>(r)][2].solved);
  }
}

}  // namespace
}  // namespace cas::dist
