// The fixed-rank distributed runner end to end, whole worlds inside one
// test process: multiwalk requests split across socket ranks, the merged
// rank-0 report (global winner id, per-rank provenance, comm counters),
// the same winner on every rank, the broadcast stochastic seed, reuse of
// one world across successive requests, the refusal of non-distributable
// strategies, and the pure pick_winner() rule the closing gather rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "costas/checker.hpp"
#include "dist/coordinator.hpp"
#include "dist/runner.hpp"
#include "dist/wire.hpp"
#include "dist/world.hpp"
#include "fake_rank.hpp"
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

RankRow solved_row(int64_t wall_micros, int64_t winner_local) {
  RankRow row;
  row.wall_micros = wall_micros;
  row.winner_local = winner_local;
  row.winner_stats.solved = true;
  row.winner_stats.final_cost = 0;
  return row;
}

TEST(PickWinner, EarliestWallWinsTiesToLowestRankNoSolverNoWinner) {
  EXPECT_EQ(pick_winner({solved_row(900, 0), solved_row(400, 1), solved_row(700, 0)}), 1);
  EXPECT_EQ(pick_winner({RankRow{}, solved_row(400, 1), solved_row(400, 0)}), 1);
  EXPECT_EQ(pick_winner({solved_row(0, 2), solved_row(0, 0)}), 0);
  EXPECT_EQ(pick_winner({RankRow{}, RankRow{}, RankRow{}}), -1);
  EXPECT_EQ(pick_winner({}), -1);
}

TEST(PickWinner, RankRowPayloadRoundTrip) {
  RankRow row = solved_row(123456, 2);
  row.iterations = (int64_t{1} << 40) + 3;
  row.walkers_run = 3;
  row.winner_stats.iterations = 4242;
  row.winner_stats.solution = {2, 0, 1};
  const RankRow back = RankRow::from_payload(row.to_payload());
  EXPECT_EQ(back.wall_micros, row.wall_micros);
  EXPECT_EQ(back.iterations, row.iterations);
  EXPECT_EQ(back.walkers_run, row.walkers_run);
  EXPECT_EQ(back.winner_local, row.winner_local);
  EXPECT_EQ(back.winner_stats.iterations, 4242u);
  EXPECT_EQ(back.winner_stats.solution, row.winner_stats.solution);

  RankRow none;
  none.iterations = 77;
  EXPECT_EQ(none.to_payload().size(), 4u);
  EXPECT_FALSE(RankRow::from_payload(none.to_payload()).solved());
  EXPECT_THROW(RankRow::from_payload({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(RankRow::from_payload({-1, 2, 3, 4, 5}), std::invalid_argument);
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

TEST(DistRunner, EveryRankNamesTheSameWinnerOverUnevenShares) {
  // 7 walkers over 3 ranks: shares 3 / 2 / 2 at offsets 0 / 3 / 5. Rank 0
  // broadcasts the winner's rank, local index and stats, so every rank's
  // report names the same global walker and carries the same stats.
  const auto reports = run_world(3, {costas_request("multiwalk", 12, 7, 4242)});
  const runtime::SolveReport& root = reports[0][0];
  ASSERT_TRUE(root.error.empty()) << root.error;
  ASSERT_TRUE(root.solved);
  EXPECT_TRUE(root.check_passed);
  for (int r = 1; r < 3; ++r) {
    const runtime::SolveReport& rep = reports[static_cast<size_t>(r)][0];
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_TRUE(rep.solved);
    EXPECT_EQ(rep.winner, root.winner) << "rank " << r;
    EXPECT_EQ(rep.wall_seconds, root.wall_seconds) << "rank " << r;
    EXPECT_EQ(rep.winner_stats.iterations, root.winner_stats.iterations) << "rank " << r;
    EXPECT_EQ(rep.winner_stats.local_minima, root.winner_stats.local_minima) << "rank " << r;
    EXPECT_EQ(rep.winner_stats.solution, root.winner_stats.solution) << "rank " << r;
  }
  EXPECT_TRUE(costas::is_costas(root.winner_stats.solution));

  const auto& per_rank = root.extras.at("dist").at("per_rank").as_array();
  ASSERT_EQ(per_rank.size(), 3u);
  const int64_t walkers[] = {3, 2, 2};
  const int64_t offsets[] = {0, 3, 5};
  int winner_rows = 0;
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(per_rank[r].at("rank").as_int(), static_cast<int64_t>(r));
    EXPECT_EQ(per_rank[r].at("walkers").as_int(), walkers[r]);
    EXPECT_EQ(per_rank[r].at("walker_offset").as_int(), offsets[r]);
    const int64_t local = per_rank[r].at("winner_local").as_int();
    if (per_rank[r].at("solved").as_bool() && offsets[r] + local == root.winner) ++winner_rows;
  }
  EXPECT_EQ(winner_rows, 1) << "the global winner is not one rank's local winner";
}

TEST(DistRunner, CooperativeFailsOnEveryRankNamingMultiwalkAndWorldSurvives) {
  // Cooperation does not run across ranks: every rank refuses it the same
  // way before any collective, and the world then serves the next request.
  const auto reports = run_world(2, {costas_request("cooperative", 12, 4, 5),
                                     costas_request("multiwalk", 11, 2, 6)});
  for (int r = 0; r < 2; ++r) {
    const auto& refused = reports[static_cast<size_t>(r)][0];
    EXPECT_NE(refused.error.find("'cooperative' is not distributable"), std::string::npos)
        << refused.error;
    EXPECT_NE(refused.error.find("multiwalk"), std::string::npos) << refused.error;
    EXPECT_TRUE(reports[static_cast<size_t>(r)][1].error.empty())
        << reports[static_cast<size_t>(r)][1].error;
    EXPECT_TRUE(reports[static_cast<size_t>(r)][1].solved);
  }
}

TEST(DistRunner, StochasticSeedIsDrawnOnceAndBroadcast) {
  const auto reports = run_world(2, {costas_request("multiwalk", 11, 4, 0)});
  const uint64_t seed0 = reports[0][0].request.seed;
  const uint64_t seed1 = reports[1][0].request.seed;
  EXPECT_NE(seed0, 0u);
  EXPECT_EQ(seed0, seed1) << "ranks diverged on the drawn seed";
}

TEST(DistRunner, OneWorldServesSuccessiveRequests) {
  // The same long-lived world runs three requests back to back, each fully
  // merged — a SOLUTION_FOUND from request k must not stop request k+1.
  const auto reports = run_world(2, {costas_request("multiwalk", 12, 4, 1),
                                     costas_request("multiwalk", 12, 4, 2),
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

TEST(DistRunner, MalformedWinnerDecisionIsAnErrorNotACrash) {
  // Rank 0's decision is input from another process. A bare-socket rank 0
  // answers each of rank 1's gather rows with a decision that is too short,
  // names a rank outside the world, or is empty; each request must end in
  // an error report, and the world must keep serving.
  CoordinatorOptions co;
  co.ranks = 2;
  Coordinator coord(co);
  test::FakeRank rank0(coord.port(), 0, 2);
  std::vector<runtime::SolveReport> reports;
  std::jthread rank1([&] {
    WorldOptions wo;
    wo.rank = 1;
    wo.ranks = 2;
    wo.port = coord.port();
    wo.collective_timeout_seconds = 30.0;
    World world(wo);
    for (uint64_t seed = 1; seed <= 3; ++seed)
      reports.push_back(solve_distributed(world, costas_request("multiwalk", 8, 2, seed), {}));
    world.finalize();
  });
  for (const std::vector<int64_t>& decision :
       {std::vector<int64_t>{0}, std::vector<int64_t>{5, 0, 0}, std::vector<int64_t>{}}) {
    const Message row = rank0.await_msg(kTagGather);
    ASSERT_FALSE(row.payload.empty());
    std::vector<int64_t> payload{row.payload[0] + 1};  // the broadcast's seq
    payload.insert(payload.end(), decision.begin(), decision.end());
    rank0.send(make_msg(/*to=*/-1, Message{kTagBroadcast, 0, payload}));
  }
  rank1.join();
  coord.stop();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& rep : reports)
    EXPECT_NE(rep.error.find("malformed winner decision"), std::string::npos) << rep.error;
}

}  // namespace
}  // namespace cas::dist
