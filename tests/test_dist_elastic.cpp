// Elastic distributed worlds, whole membership stories inside one test
// process: the epoch/rebalance wave machine, hard-kill eviction (the
// coordinator downgrades a dead member to an eviction instead of aborting
// the world), graceful drain via `leave`, late-joiner admission keyed by the
// hunt's canonical identity, checkpoint/restore resume parity — the resumed
// world follows the EXACT walker trajectories of an uninterrupted run, even
// at a different rank count — and the rejection paths for corrupted or
// mismatched manifests. The pipelined member — walkers running up to two
// segments past the wave their member is reporting — is pinned against a
// per-walker oracle of the (solve iteration, walker id) winner rule, the
// wave files' exact boundary states, and its own run-ahead counter; the
// leader bound against a long segment, a run-ahead leader in a preempted
// world, leader frames that precede the member's hook, and malformed
// solved/leader frames each have a case. Successive hunts on one World
// (DistHunts) are pinned against the same oracle: back to back, across a
// join, a joiner's departure, a host death and a dropped connection between
// hunts, with a drawn seed, after refused requests, and against another
// hunt's stale frames; a fresh join answered with one hunt's outcome is not
// carried into the next, and a rejoin that arrives hunts late learns every
// outcome it missed before the next opening admits it.
//
// Seeds are pinned to instances probed long enough for the membership event
// under test to land strictly before the hunt completes (e.g. size-14
// seed-22 solves at walker 2, iteration 982 — segment 3 at 300-iteration
// epochs, so both preemption at two epochs and membership events at the
// first boundary land strictly before the solve), keeping every scenario deterministic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chaotic_seed.hpp"
#include "dist/ckpt.hpp"
#include "dist/elastic.hpp"
#include "dist/world.hpp"
#include "fake_rank.hpp"
#include "runtime/problems.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {
namespace {

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "cas_elastic_XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

runtime::SolveRequest costas_request(int size, int walkers, uint64_t seed) {
  runtime::SolveRequest req;
  req.problem = "costas";
  req.size = size;
  req.strategy = "multiwalk";
  req.walkers = walkers;
  req.seed = seed;
  return req;
}

/// One World per initial rank, each on its own thread, running `reqs` in
/// order, one hunt per request. `before(rank, k, world)` runs ahead of
/// request k and ends that rank's run when it returns false. Returns
/// reports[rank][k] (default-constructed past a rank's end).
std::vector<std::vector<runtime::SolveReport>> run_hunts(
    int ranks, const std::vector<runtime::SolveRequest>& reqs,
    const std::function<ElasticOptions(int rank, size_t k)>& opts_of, bool standby = false,
    const std::function<bool(int rank, size_t k, World& world)>& before = nullptr) {
  std::vector<std::vector<runtime::SolveReport>> reports(
      static_cast<size_t>(ranks), std::vector<runtime::SolveReport>(reqs.size()));
  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::vector<std::jthread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      WorldOptions wo;
      wo.rank = r;
      wo.ranks = ranks;
      wo.standby = standby;
      std::optional<World> world;
      if (r == 0) {
        world.emplace(wo, [&](uint16_t p) { port_promise.set_value(p); });
      } else {
        wo.port = port.get();
        world.emplace(wo);
      }
      for (size_t k = 0; k < reqs.size(); ++k) {
        if (before && !before(r, k, *world)) break;
        reports[static_cast<size_t>(r)][k] =
            solve_elastic(*world, reqs[k], runtime::StrategyContext{}, opts_of(r, k));
      }
      world->finalize();
    });
  }
  threads.clear();  // join
  return reports;
}

/// One hunt on a fresh world. Returns reports[rank].
std::vector<runtime::SolveReport> run_elastic_world(
    int ranks, const runtime::SolveRequest& req,
    const std::function<ElasticOptions(int rank)>& opts_of) {
  std::vector<runtime::SolveReport> reports;
  for (auto& hunts : run_hunts(ranks, {req}, [&](int r, size_t) { return opts_of(r); }))
    reports.push_back(std::move(hunts[0]));
  return reports;
}

const util::Json& dist_extras(const runtime::SolveReport& rep) {
  const util::Json* d = rep.extras.find("dist");
  EXPECT_NE(d, nullptr);
  return *d;
}

int64_t coordinator_counter(const runtime::SolveReport& rep, const std::string& name) {
  return dist_extras(rep).at("comm").at("coordinator").at(name).as_int();
}

// The pinned reference trajectory for size 14 / 4 walkers / seed 22: winner
// walker 2 at 982 iterations (segment 3 with 300-iteration epochs). Run
// alone, its walkers solve at 2309, 2187, 982 and past 1200 iterations, so
// walker 2 wins by solve iteration as it did by solve segment.
constexpr int kSize = 14;
constexpr int kWalkers = 4;
constexpr uint64_t kSeed = 22;
constexpr int kRefWinner = 2;
constexpr uint64_t kRefWinnerIters = 982;

ElasticOptions base_opts(uint64_t ckpt_iters = 300) {
  ElasticOptions eo;
  eo.ckpt_iters = ckpt_iters;
  eo.control_timeout_seconds = 60.0;
  return eo;
}

/// What every elastic run of a request must report, however its walkers
/// interleave, from each walker run alone from its ChaoticSeedSequence
/// seed: the (solve iteration, walker id) minimum, its segment, and the
/// hunt's counted work — each walker up to its bound against the winner
/// (through the winner's iteration L for lower ids, to L - 1 for higher).
struct Oracle {
  int winner = -1;
  uint64_t winner_iters = 0;
  uint64_t segment = 0;
  uint64_t total_iterations = 0;
};

Oracle oracle_of(const runtime::SolveRequest& req, uint64_t ckpt_iters) {
  const runtime::SolveRequest resolved = runtime::resolve(req);
  const auto seeds = core::ChaoticSeedSequence::generate(resolved.seed,
                                                         static_cast<size_t>(resolved.walkers));
  const auto factory = runtime::entry_of(resolved).make_resumable_walker(resolved);
  std::vector<uint64_t> solved_at;
  std::pair<uint64_t, int> best{std::numeric_limits<uint64_t>::max(), -1};
  for (int id = 0; id < resolved.walkers; ++id) {
    auto walk = factory(seeds[static_cast<size_t>(id)]);
    walk->begin();
    EXPECT_TRUE(walk->advance(0, core::StopToken()));
    solved_at.push_back(walk->stats().iterations);
    best = std::min(best, {solved_at.back(), id});
  }
  Oracle o;
  o.winner = best.second;
  o.winner_iters = best.first;
  o.segment = o.winner_iters == 0 ? 0 : (o.winner_iters - 1) / ckpt_iters;
  for (int id = 0; id < resolved.walkers; ++id) {
    const uint64_t bound = id <= o.winner || o.winner_iters == 0 ? o.winner_iters
                                                                  : o.winner_iters - 1;
    o.total_iterations += std::min(solved_at[static_cast<size_t>(id)], bound);
  }
  return o;
}

TEST(DistElastic, TwoRankWorldSolvesWithVerifiedWinner) {
  const auto reports = run_elastic_world(2, costas_request(kSize, kWalkers, kSeed),
                                         [](int) { return base_opts(); });
  const auto& r0 = reports[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_TRUE(r0.checked);
  EXPECT_TRUE(r0.check_passed);
  EXPECT_EQ(r0.walkers_run, kWalkers);
  EXPECT_GE(r0.total_iterations, kRefWinnerIters);
  EXPECT_EQ(dist_extras(r0).at("hunt").as_int(), 1);
  // The participant still learns the outcome from the final rebalance.
  const auto& r1 = reports[1];
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_TRUE(r1.solved);
  EXPECT_EQ(r1.winner, kRefWinner);
}

TEST(DistElastic, HardKilledMemberIsEvictedNotWorldAborting) {
  const std::string dir = make_temp_dir();
  const auto reports =
      run_elastic_world(3, costas_request(kSize, kWalkers, kSeed), [&](int rank) {
        ElasticOptions eo = base_opts();
        eo.ckpt_dir = dir;
        if (rank == 2) eo.die_at_epoch = 1;  // SIGKILL-equivalent after epoch 0
        return eo;
      });
  // The victim reports its injected death; the survivors finish the hunt.
  EXPECT_NE(reports[2].error.find("fault injection"), std::string::npos) << reports[2].error;
  const auto& r0 = reports[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_TRUE(r0.check_passed);
  // Same winner trajectory as the clean 2-rank run: membership is
  // execution-transparent.
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_EQ(coordinator_counter(r0, "evictions"), 1);
  EXPECT_EQ(coordinator_counter(r0, "aborts"), 0);
  const util::Json& evicted = dist_extras(r0).at("evicted");
  ASSERT_EQ(evicted.as_array().size(), 1u);
  EXPECT_EQ(evicted.as_array()[0].as_int(), 2);
  // The dead member's walkers were inherited by restoring its LAST wave
  // checkpoint (written before it died), not recomputed from scratch.
  const auto& r1 = reports[1];
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_GE(dist_extras(r1).at("ckpt").at("restored").as_int(), 1);
}

TEST(DistElastic, DroppedConnectionRejoinsAndFinishesWithTheSameWinner) {
  // A mid-hunt network partition: rank 1's transport is severed (no bye,
  // socket shut down) after its first epoch. The coordinator evicts the
  // silent member at the wave boundary; solve_elastic's rejoin path then
  // dials back in. The rejoin lands either before the hunt completes (the
  // SAME process is re-admitted under a fresh member id) or after it (the
  // join is answered with the outcome), so the test pins only what holds
  // in both orders: the hunt lands on the pinned winner trajectory and
  // both members report it — the partition is execution-transparent, not
  // merely survivable.
  const std::string dir = make_temp_dir();
  const auto reports =
      run_elastic_world(2, costas_request(kSize, kWalkers, kSeed), [&](int rank) {
        ElasticOptions eo = base_opts();
        eo.ckpt_dir = dir;
        if (rank == 1) eo.drop_conn_at_epoch = 1;
        return eo;
      });
  const auto& r0 = reports[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_TRUE(r0.check_passed);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_EQ(coordinator_counter(r0, "aborts"), 0);
  EXPECT_EQ(coordinator_counter(r0, "evictions"), 1);
  // The partitioned member came back, learned the outcome, and accounts for
  // its own recovery.
  const auto& r1 = reports[1];
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_TRUE(r1.solved);
  EXPECT_EQ(r1.winner, kRefWinner);
  EXPECT_EQ(r1.winner_stats.iterations, kRefWinnerIters);
  EXPECT_GE(dist_extras(r1).at("rejoins").as_int(), 1);
}

TEST(DistElastic, EvictionWithoutCheckpointsReplaysDeterministically) {
  const auto reports =
      run_elastic_world(3, costas_request(kSize, kWalkers, kSeed), [&](int rank) {
        ElasticOptions eo = base_opts();  // no ckpt_dir: inheritance = replay
        if (rank == 2) eo.die_at_epoch = 1;
        return eo;
      });
  const auto& r0 = reports[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_EQ(coordinator_counter(r0, "evictions"), 1);
  // The victim died after its first heartbeat, which proved its welcome
  // landed, so it is evicted at once instead of being held for a re-hello
  // (2 s).
  EXPECT_LT(r0.wall_seconds, 1.0);
  // Somebody replayed the orphaned walker from its seed.
  int64_t replayed = 0;
  for (const auto& rep : {reports[0], reports[1]})
    replayed += dist_extras(rep).at("ckpt").at("replayed").as_int();
  EXPECT_GE(replayed, 1);
}

TEST(DistElastic, DrainingMemberLeavesAndTheWorldFinishes) {
  std::atomic<bool> drain{true};  // pre-set: rank 1 leaves at its first boundary
  const auto reports =
      run_elastic_world(2, costas_request(kSize, kWalkers, kSeed), [&](int rank) {
        ElasticOptions eo = base_opts();
        if (rank == 1) eo.drain = &drain;
        return eo;
      });
  const auto& r0 = reports[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_EQ(coordinator_counter(r0, "leaves"), 1);
  EXPECT_EQ(coordinator_counter(r0, "evictions"), 0);
  const auto& r1 = reports[1];
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_TRUE(dist_extras(r1).at("left").as_bool());
}

TEST(DistElastic, LateJoinerIsAdmittedByHuntKey) {
  // Long hunt (size 16 / 2 walkers / seed 10 solves at iteration 37644, so
  // a 200-iteration epoch world runs ~190 waves) — the joiner is admitted
  // within the first few.
  const runtime::SolveRequest req = costas_request(16, 2, 10);
  const std::string key = elastic_hunt_key(runtime::resolve(req));

  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::promise<void> hunt_announced;
  std::shared_future<void> announced = hunt_announced.get_future().share();
  runtime::SolveReport host_report, join_report;

  std::jthread host([&] {
    WorldOptions wo;
    wo.rank = 0;
    wo.ranks = 1;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    // A join that beats the hunt's opening waits for it.
    hunt_announced.set_value();
    host_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts(200));
    world.finalize();
  });
  std::jthread joiner([&] {
    announced.wait();
    WorldOptions wo;
    wo.join = true;
    wo.rank = -1;
    wo.ranks = 0;
    wo.port = port.get();
    wo.hunt_key = key;
    wo.connect_timeout_seconds = 30.0;
    World world(wo);  // blocks until admitted at a wave boundary
    join_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts(200));
    world.finalize();
  });
  host.join();
  joiner.join();

  ASSERT_TRUE(host_report.error.empty()) << host_report.error;
  EXPECT_TRUE(host_report.solved);
  EXPECT_TRUE(host_report.check_passed);
  EXPECT_GE(coordinator_counter(host_report, "joins"), 1);
  ASSERT_TRUE(join_report.error.empty()) << join_report.error;
  EXPECT_TRUE(join_report.solved);
  EXPECT_EQ(join_report.winner, host_report.winner);
}

TEST(DistHunts, JoinBetweenHuntsTakesPartInTheNextHunt) {
  // The joiner dials in after hunt 1 has finished. It waits for the next
  // opening — the host opens hunt 2 once the join is pending — and takes
  // part in hunt 2, which names its oracle's winner.
  const runtime::SolveRequest first = costas_request(kSize, kWalkers, kSeed);
  const runtime::SolveRequest second = costas_request(13, kWalkers, 5);
  const Oracle want = oracle_of(second, 300);
  std::promise<uint16_t> port_promise;
  std::promise<void> first_done;
  runtime::SolveReport host_first, host_second, join_report;

  std::jthread host([&] {
    WorldOptions wo;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    host_first = solve_elastic(world, first, runtime::StrategyContext{}, base_opts());
    first_done.set_value();
    while (world.stats_json().at("coordinator").at("joins").as_int() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    host_second = solve_elastic(world, second, runtime::StrategyContext{}, base_opts());
    world.finalize();
  });
  const uint16_t port = port_promise.get_future().get();
  first_done.get_future().wait();
  try {
    WorldOptions wo;
    wo.join = true;
    wo.rank = -1;
    wo.ranks = 0;
    wo.port = port;
    wo.hunt_key = elastic_hunt_key(runtime::resolve(second));
    wo.connect_timeout_seconds = 30.0;
    World world(wo);  // blocks until hunt 2 opens
    join_report = solve_elastic(world, second, runtime::StrategyContext{}, base_opts());
    world.finalize();
  } catch (const std::exception& e) {
    join_report.error = e.what();
  }
  host.join();

  ASSERT_TRUE(host_first.error.empty()) << host_first.error;
  EXPECT_EQ(host_first.winner, kRefWinner);
  ASSERT_TRUE(host_second.error.empty()) << host_second.error;
  EXPECT_EQ(dist_extras(host_second).at("hunt").as_int(), 2);
  EXPECT_EQ(host_second.winner, want.winner);
  EXPECT_EQ(host_second.winner_stats.iterations, want.winner_iters);
  EXPECT_EQ(host_second.total_iterations, want.total_iterations);
  EXPECT_EQ(dist_extras(host_second).at("members").as_array().size(), 2u);
  ASSERT_TRUE(join_report.error.empty()) << join_report.error;
  EXPECT_TRUE(join_report.solved);
  EXPECT_EQ(join_report.winner, want.winner);
  EXPECT_EQ(dist_extras(join_report).at("hunt").as_int(), 2);
}

TEST(DistHunts, JoinerThatFinalizesAfterHuntOneLeavesHuntTwoToTheRest) {
  // A joiner admitted at hunt 1's opening runs hunt 1 only and finalizes
  // (its bye is its last frame). The world's hunt 2 opens without it and
  // names its oracle's winner instead of waiting for the joiner's report.
  const runtime::SolveRequest first = costas_request(kSize, kWalkers, kSeed);
  const runtime::SolveRequest second = costas_request(13, kWalkers, 5);
  const Oracle want = oracle_of(second, 300);
  std::promise<uint16_t> port_promise;
  std::promise<void> joiner_gone;
  std::atomic<bool> joiner_failed{false};
  runtime::SolveReport host_first, host_second, join_report;

  std::jthread host([&] {
    WorldOptions wo;
    World world(wo);
    port_promise.set_value(world.port());  // after the rendezvous, which refuses joins
    while (world.stats_json().at("coordinator").at("joins").as_int() == 0 &&
           !joiner_failed.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    host_first = solve_elastic(world, first, runtime::StrategyContext{}, base_opts());
    joiner_gone.get_future().wait();
    ElasticOptions eo = base_opts();
    eo.control_timeout_seconds = 10.0;  // a hunt waiting on the joiner fails, not hangs
    host_second = solve_elastic(world, second, runtime::StrategyContext{}, eo);
    world.finalize();
  });
  try {
    WorldOptions wo;
    wo.join = true;
    wo.rank = -1;
    wo.ranks = 0;
    wo.port = port_promise.get_future().get();
    wo.hunt_key = elastic_hunt_key(runtime::resolve(first));
    wo.connect_timeout_seconds = 30.0;
    World world(wo);  // blocks until hunt 1 opens
    join_report = solve_elastic(world, first, runtime::StrategyContext{}, base_opts());
    world.finalize();
  } catch (const std::exception& e) {
    join_report.error = e.what();
    joiner_failed = true;
  }
  joiner_gone.set_value();
  host.join();

  ASSERT_TRUE(join_report.error.empty()) << join_report.error;
  EXPECT_EQ(dist_extras(join_report).at("hunt").as_int(), 1) << "the joiner took no part";
  EXPECT_EQ(join_report.winner, kRefWinner);
  ASSERT_TRUE(host_first.error.empty()) << host_first.error;
  EXPECT_EQ(host_first.winner, kRefWinner);
  EXPECT_EQ(dist_extras(host_first).at("members").as_array().size(), 2u);
  ASSERT_TRUE(host_second.error.empty()) << host_second.error;
  EXPECT_EQ(dist_extras(host_second).at("hunt").as_int(), 2);
  EXPECT_EQ(host_second.winner, want.winner);
  EXPECT_EQ(host_second.winner_stats.iterations, want.winner_iters);
  EXPECT_EQ(host_second.total_iterations, want.total_iterations);
  EXPECT_TRUE(host_second.check_passed);
}

TEST(DistHunts, AFreshJoinAnsweredAtAFinalIsNotAdmittedIntoTheNextHunt) {
  // A fresh join for hunt 1 that is still pending at hunt 1's final is
  // answered with the outcome, which ends its request: hunt 2, under
  // another key, opens without it and sends it nothing.
  CoordinatorOptions co;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank member(coord.port(), 0, 1);
  ASSERT_FALSE(member.await("welcome").is_null());
  const auto finish = [&](uint64_t hunt) {
    util::Json report = make_epoch_base(0, hunt, 0);
    report["done"] = true;
    report["walkers"] = kWalkers;
    report["solved"] = util::Json::array();
    member.send(report);
    const util::Json final_frame = member.await("rebalance");
    ASSERT_FALSE(final_frame.is_null());
    EXPECT_TRUE(frame_bool(final_frame, "final", false));
  };
  coord.open_hunt(1, "one", kSeed, kWalkers, 0);
  ASSERT_FALSE(member.await("rebalance").is_null());
  test::FakeRank joiner(coord.port(), make_join("one", 0));
  while (coord.stats().joins.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  finish(1);
  const util::Json welcome = joiner.await("welcome");
  ASSERT_FALSE(welcome.is_null());
  EXPECT_EQ(frame_int(welcome, "rank"), -1);
  const util::Json outcome = joiner.await("rebalance");
  ASSERT_FALSE(outcome.is_null());
  EXPECT_TRUE(frame_bool(outcome, "final", false));
  EXPECT_EQ(frame_u64(outcome, "hunt"), 1u);

  coord.open_hunt(2, "two", kSeed, kWalkers, 0);
  const util::Json opening = member.await("rebalance");
  ASSERT_FALSE(opening.is_null());
  EXPECT_EQ(frame_u64(opening, "hunt"), 2u);
  EXPECT_EQ(frame_int(opening, "ranks"), 1);
  EXPECT_TRUE(opening.at("joined").as_array().empty());
  finish(2);
  coord.stop();
  EXPECT_TRUE(joiner.await("rebalance").is_null()) << "the joiner heard of hunt 2";
}

TEST(DistHunts, ARejoinAfterTwoFinishedHuntsLearnsBothOutcomesAndJoinsTheThird) {
  // A member cut off late in hunt 1 whose rejoin arrives only after hunt 2
  // has finished too is answered with one welcome and both finals in
  // order — one for each of its next solves — and admitted at hunt 3's
  // opening.
  CoordinatorOptions co;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank member(coord.port(), 0, 1);
  ASSERT_FALSE(member.await("welcome").is_null());
  for (uint64_t hunt = 1; hunt <= 2; ++hunt) {
    coord.open_hunt(hunt, "hunt", kSeed, kWalkers, 0);
    ASSERT_FALSE(member.await("rebalance").is_null());
    util::Json report = make_epoch_base(0, hunt, 0);
    report["done"] = true;
    report["walkers"] = kWalkers;
    report["solved"] = util::Json::array();
    member.send(report);
    const util::Json final_frame = member.await("rebalance");
    ASSERT_FALSE(final_frame.is_null());
    ASSERT_TRUE(frame_bool(final_frame, "final", false));
  }
  test::FakeRank rejoiner(coord.port(), make_join("hunt", 1));
  const util::Json welcome = rejoiner.await("welcome");
  ASSERT_FALSE(welcome.is_null()) << "the rejoin was refused";
  EXPECT_EQ(frame_int(welcome, "rank"), -1);
  for (uint64_t hunt = 1; hunt <= 2; ++hunt) {
    const util::Json outcome = rejoiner.await("rebalance");
    ASSERT_FALSE(outcome.is_null()) << "hunt " << hunt;
    EXPECT_EQ(frame_u64(outcome, "hunt"), hunt);
    EXPECT_TRUE(frame_bool(outcome, "final", false));
    EXPECT_EQ(frame_int(outcome, "your_rank"), -1);
  }

  coord.open_hunt(3, "three", kSeed, kWalkers, 0);
  const util::Json admitted = rejoiner.await("welcome");
  ASSERT_FALSE(admitted.is_null());
  EXPECT_EQ(frame_int(admitted, "rank"), 1);
  const util::Json opening = rejoiner.await("rebalance");
  ASSERT_FALSE(opening.is_null());
  EXPECT_EQ(frame_u64(opening, "hunt"), 3u);
  EXPECT_FALSE(frame_bool(opening, "final", false));
  EXPECT_EQ(frame_int(opening, "ranks"), 2);
  EXPECT_EQ(frame_int(opening, "your_rank"), 1);
  const util::Json host_opening = member.await("rebalance");
  ASSERT_FALSE(host_opening.is_null());
  EXPECT_EQ(frame_int(host_opening, "ranks"), 2);
  coord.stop();
}

TEST(DistElasticWire, AJoinOnAMemberConnectionDropsThatMember) {
  // One handshake per connection: a member that says join is dropped (and
  // evicted) at once, so no stale connection waits among the joiners for
  // the next opening.
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank host(coord.port(), 0, 2);
  {
    test::FakeRank member(coord.port(), 1, 2);
    ASSERT_FALSE(member.await("welcome").is_null());
    member.send(make_hb(1));
    member.send(make_join("hunt", 0));
  }
  ASSERT_FALSE(host.await("welcome").is_null());
  while (coord.stats().evictions.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
  const util::Json opening = host.await("rebalance");
  ASSERT_FALSE(opening.is_null());
  EXPECT_EQ(frame_int(opening, "ranks"), 1);
  EXPECT_EQ(opening.at("evicted").as_array().size(), 1u);
  EXPECT_EQ(coord.stats().joins.load(), 0u);
  coord.stop();
}

TEST(DistElastic, JoinerWithWrongKeyIsRefused) {
  const runtime::SolveRequest req = costas_request(16, 2, 10);
  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::promise<void> hunt_announced;
  runtime::SolveReport host_report;

  std::jthread host([&] {
    WorldOptions wo;
    wo.rank = 0;
    wo.ranks = 1;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    hunt_announced.set_value();
    host_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts(200));
    world.finalize();
  });
  hunt_announced.get_future().wait();
  WorldOptions wo;
  wo.join = true;
  wo.rank = -1;
  wo.ranks = 0;
  wo.port = port.get();
  wo.hunt_key = "some other hunt entirely";
  wo.connect_timeout_seconds = 30.0;
  EXPECT_THROW(World world(wo), CommError);  // refused at the handshake or the opening
  host.join();
  ASSERT_TRUE(host_report.error.empty()) << host_report.error;
  EXPECT_TRUE(host_report.solved);
}

TEST(DistElastic, PreemptedWorldResumesWithIdenticalTrajectory) {
  const std::string dir = make_temp_dir();
  const auto req = costas_request(kSize, kWalkers, kSeed);

  // Phase 1: preempt the whole world cleanly after two epochs — long
  // before the solve at segment 3.
  const auto preempted = run_elastic_world(2, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.max_epochs = 2;
    return eo;
  });
  ASSERT_TRUE(preempted[0].error.empty()) << preempted[0].error;
  EXPECT_FALSE(preempted[0].solved);
  EXPECT_TRUE(dist_extras(preempted[0]).at("preempted").as_bool());
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + std::string(kManifestFile)));

  // Phase 2: resume at a DIFFERENT rank count; same trajectory, same winner.
  const auto resumed = run_elastic_world(3, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.resume = true;
    return eo;
  });
  const auto& r0 = resumed[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_TRUE(r0.check_passed);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  const util::Json& ckpt = dist_extras(r0).at("ckpt");
  EXPECT_EQ(ckpt.at("resumed_from_epoch").as_int(), 1);
  EXPECT_GE(ckpt.at("restored").as_int(), 1);
  // Pre-preemption work is accounted: the merged iteration total includes
  // the two checkpointed epochs, not just the post-resume segments, and
  // counts each walker up to its bound against the winner.
  EXPECT_EQ(r0.total_iterations, oracle_of(req, 300).total_iterations);
}

TEST(DistElastic, ResumeRejectsCorruptedManifest) {
  const std::string dir = make_temp_dir();
  const auto req = costas_request(kSize, kWalkers, kSeed);
  const auto preempted = run_elastic_world(1, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.max_epochs = 2;
    return eo;
  });
  ASSERT_TRUE(preempted[0].error.empty()) << preempted[0].error;

  const auto corrupt = [&](const char* name, size_t divisor) {
    const std::string path = dir + "/" + std::string(name);
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty()) << path;
    bytes[bytes.size() / divisor] ^= 0x40;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
  };

  // Corrupting only the primary manifest is survivable: resume falls back
  // to the rotated predecessor cut and replays the last wave.
  corrupt(kManifestFile, 2);
  const auto fell_back = run_elastic_world(1, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.resume = true;
    return eo;
  });
  ASSERT_TRUE(fell_back[0].error.empty()) << fell_back[0].error;
  EXPECT_TRUE(fell_back[0].solved);
  EXPECT_EQ(fell_back[0].winner, kRefWinner);
  EXPECT_EQ(fell_back[0].winner_stats.iterations, kRefWinnerIters);
  EXPECT_TRUE(dist_extras(fell_back[0]).at("ckpt").at("resume_fell_back").as_bool());

  // Both cuts corrupt: nothing trustworthy remains, the resume must refuse.
  // The resumed hunt may have ended without writing a manifest (a hunt that
  // ends with a winner writes none), so flip a byte the first corruption
  // did not, or the primary would be restored.
  corrupt(kManifestFile, 3);
  corrupt(kManifestPrevFile, 3);
  const auto resumed = run_elastic_world(1, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.resume = true;
    return eo;
  });
  EXPECT_FALSE(resumed[0].error.empty());
  EXPECT_NE(resumed[0].error.find("checksum"), std::string::npos) << resumed[0].error;
}

TEST(DistElastic, ResumeRejectsADifferentRequest) {
  const std::string dir = make_temp_dir();
  const auto preempted = run_elastic_world(1, costas_request(kSize, kWalkers, kSeed), [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.max_epochs = 2;
    return eo;
  });
  ASSERT_TRUE(preempted[0].error.empty()) << preempted[0].error;

  // Same walkers, different instance size: a different hunt entirely.
  const auto resumed = run_elastic_world(1, costas_request(15, kWalkers, kSeed), [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.resume = true;
    return eo;
  });
  EXPECT_FALSE(resumed[0].error.empty());
  EXPECT_NE(resumed[0].error.find("different request"), std::string::npos) << resumed[0].error;
}

// --- the pipelined member ---------------------------------------------------

TEST(DistElasticPipeline, WinnerMatchesThePerWalkerOracleAtEveryRankCount) {
  constexpr uint64_t kCkpt = 200;
  for (const int size : {12, 13}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      const auto req = costas_request(size, kWalkers, seed);
      const Oracle want = oracle_of(req, kCkpt);
      // The three worlds run side by side.
      std::vector<std::future<std::vector<runtime::SolveReport>>> worlds;
      for (const int ranks : {1, 2, 3})
        worlds.push_back(std::async(std::launch::async, [&req, ranks] {
          return run_elastic_world(ranks, req, [](int) { return base_opts(kCkpt); });
        }));
      for (int ranks = 1; ranks <= 3; ++ranks) {
        const runtime::SolveReport r0 = worlds[static_cast<size_t>(ranks - 1)].get()[0];
        ASSERT_TRUE(r0.error.empty()) << r0.error;
        const std::string at = "n=" + std::to_string(size) + " seed " + std::to_string(seed) +
                               " ranks " + std::to_string(ranks);
        EXPECT_EQ(r0.winner, want.winner) << at;
        EXPECT_EQ(r0.winner_stats.iterations, want.winner_iters) << at;
        // Every walker reached its bound against the winner and counts no
        // further: neither work past the bound nor a later solve counts.
        EXPECT_EQ(r0.total_iterations, want.total_iterations) << at;
        // The final wave is pinned only to a window: the hunt ends once
        // every member settled, which can be while the member still reports
        // a wave up to two segments (the run-ahead) before the winner's, and
        // is at most the wave after it, which every member enters knowing
        // the winner.
        const auto epochs = static_cast<uint64_t>(dist_extras(r0).at("epochs").as_int());
        EXPECT_LE(epochs, want.segment + 2) << at;
        EXPECT_GE(epochs + 1, want.segment) << at;
      }
    }
  }
}

TEST(DistElasticPipeline, WalkersStopAtTheirBoundsInsideOneLongSegment) {
  // One segment is 100000 iterations. On these n=16 seeds one walker solves
  // within 657 iterations, while the four walkers run alone need 155941 and
  // 109380 iterations in all: walkers that ran on to their own solve or to
  // the segment's end would execute more than a whole segment. Here each
  // stops within a probe of its bound once it knows the leader. (At n=12
  // every walker solves within 420 iterations, too soon to tell.)
  constexpr uint64_t kLong = 100000;
  for (const uint64_t seed : {4, 7}) {
    const auto req = costas_request(16, kWalkers, seed);
    const Oracle want = oracle_of(req, kLong);
    const auto reports = run_elastic_world(2, req, [](int) { return base_opts(kLong); });
    const auto& r0 = reports[0];
    ASSERT_TRUE(r0.error.empty()) << r0.error;
    EXPECT_EQ(r0.winner, want.winner) << "seed " << seed;
    EXPECT_EQ(r0.winner_stats.iterations, want.winner_iters) << "seed " << seed;
    EXPECT_EQ(r0.total_iterations, want.total_iterations) << "seed " << seed;
    EXPECT_EQ(dist_extras(r0).at("epochs").as_int(), 1) << "seed " << seed;
    int64_t executed = 0;
    for (const util::Json& row : dist_extras(r0).at("members").as_array())
      executed += row.at("executed").as_int();
    EXPECT_GE(executed, static_cast<int64_t>(want.total_iterations)) << "seed " << seed;
    EXPECT_LT(executed, static_cast<int64_t>(kLong)) << "seed " << seed;
  }
}

TEST(DistElasticWire, PreemptedWorldNamesNoRunAheadLeader) {
  // One member owns all four walkers. Walker 2 solves at 982, past the
  // boundary of wave 0, which is the world's last: the coordinator has a
  // leader before that wave's report. A report that neither lists the
  // solve nor settled leaves the hunt undecided, so the final names no
  // winner and carries only the leader (the resume finds the winner). A
  // report that lists it, or settled, decides the hunt and names it.
  const util::Json stats = run_stats_to_json([] {
    core::RunStats st;
    st.solved = true;
    st.iterations = kRefWinnerIters;
    return st;
  }());
  for (const std::string decides : {"", "listed", "settled"}) {
    CoordinatorOptions co;
    co.heartbeat_timeout_seconds = 0;
    Coordinator coord(co);
    coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
    test::FakeRank member(coord.port(), 0, 1);
    ASSERT_FALSE(member.await("welcome").is_null());
    ASSERT_FALSE(member.await("rebalance").is_null());  // the opening
    member.send(make_solved(0, 1, kRefWinner, kRefWinnerIters, stats));
    const util::Json leader = member.await("leader");
    ASSERT_FALSE(leader.is_null());
    EXPECT_EQ(frame_u64(leader, "id"), static_cast<uint64_t>(kRefWinner));
    EXPECT_EQ(frame_u64(leader, "iters"), kRefWinnerIters);

    util::Json report = make_epoch_base(0, 1, 0);
    report["done"] = true;
    report["settled"] = decides == "settled";
    report["walkers"] = kWalkers;
    report["solved"] = util::Json::array();
    if (decides == "listed") {
      util::Json solve = util::Json::object();
      solve["id"] = wire_u64(kRefWinner);
      solve["iters"] = wire_u64(kRefWinnerIters);
      report["solved"].push_back(std::move(solve));
    }
    member.send(report);
    const util::Json final_frame = member.await("rebalance");
    ASSERT_FALSE(final_frame.is_null()) << decides;
    EXPECT_TRUE(frame_bool(final_frame, "final", false)) << decides;
    ASSERT_NE(final_frame.find("leader"), nullptr) << decides;
    EXPECT_EQ(frame_u64(final_frame.at("leader"), "id"), static_cast<uint64_t>(kRefWinner));
    const util::Json* winner = final_frame.find("winner");
    if (decides.empty()) {
      EXPECT_EQ(winner, nullptr);
    } else {
      ASSERT_NE(winner, nullptr) << decides;
      EXPECT_EQ(frame_u64(*winner, "id"), static_cast<uint64_t>(kRefWinner)) << decides;
      EXPECT_EQ(frame_u64(*winner, "iters"), kRefWinnerIters) << decides;
    }
    coord.stop();
  }
}

TEST(DistElasticWire, MalformedSolvedFramesAbortTheWorldWithAReason) {
  // A solved frame is input from outside the process: one without its
  // iteration, with stats that do not parse, for a walker the hunt does not
  // have, or whose stats disagree with its iteration aborts the world with
  // the reason instead of crowning it.
  util::Json stats = run_stats_to_json([] {
    core::RunStats st;
    st.solved = true;
    st.iterations = 10;
    return st;
  }());
  const auto solved = [&](util::Json id, util::Json iters, util::Json st) {
    util::Json j = util::Json::object();
    j["type"] = "solved";
    j["rank"] = 0;
    j["hunt"] = wire_u64(1);
    j["id"] = std::move(id);
    j["iters"] = std::move(iters);
    j["stats"] = std::move(st);
    return j;
  };
  const std::vector<std::pair<util::Json, std::string>> cases = {
      {solved(wire_u64(1), util::Json(), stats), "malformed solved frame"},
      {solved(wire_u64(1), wire_u64(10), util::Json("x")), "malformed solved frame"},
      {solved(wire_u64(7), wire_u64(10), stats), "impossible solve"},
      {solved(wire_u64(1), wire_u64(11), stats), "impossible solve"},
  };
  for (const auto& [bad, reason] : cases) {
    Coordinator coord(CoordinatorOptions{});
    coord.open_hunt(1, "hunt", 1, kWalkers, 0);
    test::FakeRank fake(coord.port(), 0, 1);
    ASSERT_FALSE(fake.await("welcome").is_null());
    // A member solves only after the opening; a solve the coordinator reads
    // before it opens the hunt belongs to no hunt and is dropped.
    ASSERT_FALSE(fake.await("rebalance").is_null());
    fake.send(bad);
    const util::Json abort = fake.await("abort");
    ASSERT_FALSE(abort.is_null()) << reason;
    EXPECT_NE(abort.at("reason").as_string().find(reason), std::string::npos)
        << abort.at("reason").as_string();
    coord.stop();
  }
}

TEST(DistElasticWire, MalformedLeaderFrameFailsTheCommunicator) {
  // A coordinator that sends a leader frame without its iteration fails the
  // member's communicator with the reason; a blocked take_control unwinds.
  std::string err;
  net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
  ASSERT_TRUE(listener.valid()) << err;
  const uint16_t port = net::local_port(listener.get());
  std::jthread coordinator([&] {
    net::Fd peer(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(peer.valid());
    std::string send_err;
    util::Json leader = util::Json::object();
    leader["type"] = "leader";
    leader["id"] = wire_u64(1);
    for (const util::Json& frame : {make_welcome(0, 1), leader})
      ASSERT_TRUE(net::write_all(peer.get(), net::encode_frame(frame.dump(0)), send_err));
    char buf[256];
    while (::recv(peer.get(), buf, sizeof(buf), 0) > 0) {
    }
  });
  RankCommOptions o;
  o.port = port;
  o.heartbeat_interval_seconds = 0;
  RankComm comm(o);
  EXPECT_THROW((void)comm.take_control(30.0), CommError);
  EXPECT_NE(comm.failure().find("malformed leader frame"), std::string::npos) << comm.failure();
  comm.finalize();
}

TEST(DistElasticWire, LeaderFramesBeforeTheHookReachItAtRegistration) {
  // Leader frames can arrive between a member's welcome and its hook
  // registration (another member's crew solved first). The communicator
  // keeps the best one and hands it to the hook as the hook registers.
  std::string err;
  net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
  ASSERT_TRUE(listener.valid()) << err;
  const uint16_t port = net::local_port(listener.get());
  std::jthread coordinator([&] {
    net::Fd peer(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(peer.valid());
    std::string send_err;
    for (const util::Json& frame : {make_welcome(0, 1), make_leader(1, 1, 50),
                                    make_leader(1, 3, 40), make_leader(1, 0, 45),
                                    make_rebalance_base(1, 1)})
      ASSERT_TRUE(net::write_all(peer.get(), net::encode_frame(frame.dump(0)), send_err));
    char buf[256];
    while (::recv(peer.get(), buf, sizeof(buf), 0) > 0) {
    }
  });
  RankCommOptions o;
  o.port = port;
  o.heartbeat_interval_seconds = 0;
  RankComm comm(o);
  ASSERT_TRUE(comm.take_control(30.0).has_value());  // read after the leader frames
  std::vector<std::pair<uint64_t, int>> seen;
  comm.on_leader(1, [&](uint64_t iters, int id) { seen.emplace_back(iters, id); });
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, int>>{{40, 3}}));
  comm.on_leader(1, nullptr);
  comm.finalize();
}

TEST(DistElasticPipeline, WaveFilesHoldTheBoundaryStateWhileWalkersRunAhead) {
  // Preempted after two waves, long before the pinned solve at segment 3:
  // the walkers have started segments past the last wave, yet its files
  // hold each unsolved walker exactly at the boundary.
  constexpr uint64_t kMaxEpochs = 2;
  const std::string dir = make_temp_dir();
  const auto req = costas_request(kSize, kWalkers, kSeed);
  const auto preempted = run_elastic_world(2, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.max_epochs = kMaxEpochs;
    return eo;
  });
  for (const auto& rep : preempted) {
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_GE(dist_extras(rep).at("run_ahead_segments").as_int(), 1);
  }
  int walkers_seen = 0;
  for (const WalkerFileRef& ref : list_walker_files(dir)) {
    if (ref.epoch != kMaxEpochs - 1) continue;
    const util::Json payload = read_ckpt_file(ref.path);
    for (const util::Json& w : payload.at("walkers").as_array()) {
      const core::RunStats stats = walk_snapshot_from_json(w).engine.stats;
      ++walkers_seen;
      if (!stats.solved)
        EXPECT_EQ(stats.iterations, kMaxEpochs * 300) << "member " << ref.member;
    }
  }
  EXPECT_EQ(walkers_seen, kWalkers);

  const auto resumed = run_elastic_world(2, req, [&](int) {
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    eo.resume = true;
    return eo;
  });
  const auto& r0 = resumed[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
}

TEST(DistElasticPipeline, SettledMemberSkipsItsWaveFileOnlyWhenTheWaveDecides) {
  // A fake coordinator admits one joiner and hands it a leader in its first
  // rebalance; every walker stops at a 50-iteration cap inside wave 0, so
  // the joiner reports wave 0 settled. Against a leader at iteration 40,
  // inside the wave, that report decides the hunt and no wave file is
  // written. Against one past the wave the world could still halt
  // undecided, so the file is written.
  for (const uint64_t leader_iters : {uint64_t{40}, uint64_t{1000000}}) {
    const std::string dir = make_temp_dir();
    auto req = costas_request(kSize, kWalkers, kSeed);
    req.max_iterations = 50;
    std::string err;
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
    ASSERT_TRUE(listener.valid()) << err;
    util::Json report;
    std::jthread coordinator([&] {
      test::FakeRank joiner(net::Fd(::accept(listener.get(), nullptr, nullptr)));
      ASSERT_FALSE(joiner.await("join").is_null());
      util::Json view = make_rebalance_base(1, 0);
      view["final"] = false;
      view["ranks"] = 1;
      view["your_rank"] = 0;
      view["ckpt_epoch"] = -1;
      view["seed"] = wire_u64(kSeed);
      view["walkers"] = kWalkers;
      util::Json leader = util::Json::object();
      leader["id"] = wire_u64(0);
      leader["iters"] = wire_u64(leader_iters);
      view["leader"] = std::move(leader);
      joiner.send(make_welcome(0, 1));
      joiner.send(view);
      report = joiner.await("epoch");
      view["final"] = true;
      joiner.send(view);
      (void)joiner.await("bye");
    });
    WorldOptions wo;
    wo.rank = -1;
    wo.ranks = 0;
    wo.join = true;
    wo.port = net::local_port(listener.get());
    wo.hunt_key = elastic_hunt_key(runtime::resolve(req));
    World world(wo);
    ElasticOptions eo = base_opts();
    eo.ckpt_dir = dir;
    const runtime::SolveReport rep = solve_elastic(world, req, runtime::StrategyContext{}, eo);
    world.finalize();
    coordinator.join();
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    ASSERT_FALSE(report.is_null()) << leader_iters;
    EXPECT_TRUE(frame_bool(report, "settled", false)) << leader_iters;
    EXPECT_EQ(list_walker_files(dir).empty(), leader_iters <= 300) << leader_iters;
  }
}

TEST(DistElasticPipeline, WalkersStartTheNextSegmentBeforeTheRebalance) {
  // The pinned hunt has no solve in wave 0, so a member's first walker to
  // finish it starts segment 1 before that wave's rebalance can exist: the
  // member's other walker has not finished the wave yet.
  const auto reports = run_elastic_world(2, costas_request(kSize, kWalkers, kSeed),
                                         [](int) { return base_opts(); });
  ASSERT_GT(kRefWinnerIters, 300u);
  for (const auto& rep : reports) {
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.winner_stats.iterations, kRefWinnerIters);
    EXPECT_GE(dist_extras(rep).at("epochs").as_int(), 2);
    EXPECT_GE(dist_extras(rep).at("run_ahead_segments").as_int(), 1);
    EXPECT_GE(dist_extras(rep).at("horizon_wait_seconds").as_number(), 0.0);
  }
}

TEST(DistElastic, RejectsNonMultiwalkStrategies) {
  auto req = costas_request(kSize, kWalkers, kSeed);
  req.strategy = "portfolio";
  const auto reports = run_elastic_world(1, req, [](int) { return base_opts(); });
  EXPECT_NE(reports[0].error.find("elastic worlds support only the multiwalk strategy"),
            std::string::npos)
      << reports[0].error;
}

// --- successive hunts on one World -----------------------------------------

TEST(DistHunts, ThreeHuntsBackToBackMatchTheOracle) {
  const std::vector<runtime::SolveRequest> reqs = {costas_request(12, kWalkers, 3),
                                                   costas_request(13, kWalkers, 5),
                                                   costas_request(kSize, kWalkers, kSeed)};
  const auto reports = run_hunts(2, reqs, [](int, size_t) { return base_opts(200); });
  for (size_t k = 0; k < reqs.size(); ++k) {
    const Oracle want = oracle_of(reqs[k], 200);
    const runtime::SolveReport& r0 = reports[0][k];
    ASSERT_TRUE(r0.error.empty()) << "hunt " << k + 1 << ": " << r0.error;
    EXPECT_EQ(dist_extras(r0).at("hunt").as_int(), static_cast<int64_t>(k + 1));
    EXPECT_EQ(r0.winner, want.winner) << "hunt " << k + 1;
    EXPECT_EQ(r0.winner_stats.iterations, want.winner_iters) << "hunt " << k + 1;
    EXPECT_EQ(r0.total_iterations, want.total_iterations) << "hunt " << k + 1;
    EXPECT_TRUE(r0.check_passed) << "hunt " << k + 1;
    const runtime::SolveReport& r1 = reports[1][k];
    ASSERT_TRUE(r1.error.empty()) << "hunt " << k + 1 << ": " << r1.error;
    EXPECT_EQ(r1.winner, want.winner) << "hunt " << k + 1;
  }
}

TEST(DistHunts, StochasticSeedIsDrawnOnceForEveryRank) {
  const runtime::SolveRequest req = costas_request(12, kWalkers, 0);
  const auto reports = run_hunts(3, {req}, [](int, size_t) { return base_opts(200); });
  const uint64_t seed = reports[0][0].request.seed;
  EXPECT_NE(seed, 0u);
  runtime::SolveRequest drawn = req;
  drawn.seed = seed;
  const Oracle want = oracle_of(drawn, 200);
  for (const auto& hunts : reports) {
    const runtime::SolveReport& rep = hunts[0];
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.request.seed, seed) << "ranks diverged on the drawn seed";
    EXPECT_EQ(rep.winner, want.winner);
    EXPECT_EQ(rep.winner_stats.iterations, want.winner_iters);
  }
}

TEST(DistHunts, InvalidRequestFailsOnEveryRankAndTheNextHuntRuns) {
  runtime::SolveRequest portfolio = costas_request(12, kWalkers, 3);
  portfolio.strategy = "portfolio";
  runtime::SolveRequest unknown = costas_request(12, kWalkers, 3);
  unknown.problem = "no-such-problem";
  const runtime::SolveRequest valid = costas_request(13, kWalkers, 5);
  const Oracle want = oracle_of(valid, 200);
  const auto reports =
      run_hunts(2, {portfolio, unknown, valid}, [](int, size_t) { return base_opts(200); });
  for (const auto& hunts : reports) {
    EXPECT_NE(hunts[0].error.find("elastic worlds support only the multiwalk strategy"),
              std::string::npos)
        << hunts[0].error;
    EXPECT_FALSE(hunts[1].error.empty());
    EXPECT_EQ(hunts[1].error, reports[0][1].error);
    const runtime::SolveReport& rep = hunts[2];
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.winner, want.winner);
    // The refused requests opened no hunt.
    EXPECT_EQ(dist_extras(rep).at("hunt").as_int(), 1);
  }
  EXPECT_EQ(reports[0][2].total_iterations, want.total_iterations);
}

TEST(DistHunts, CheckpointDirectoryOnASecondHuntIsRefusedEverywhere) {
  const std::string dir = make_temp_dir();
  const std::vector<runtime::SolveRequest> reqs = {costas_request(12, kWalkers, 3),
                                                   costas_request(13, kWalkers, 5)};
  const auto reports = run_hunts(2, reqs, [&](int, size_t) {
    ElasticOptions eo = base_opts(200);
    eo.ckpt_dir = dir;
    return eo;
  });
  for (const auto& hunts : reports) {
    EXPECT_TRUE(hunts[0].error.empty()) << hunts[0].error;
    EXPECT_NE(hunts[1].error.find("first hunt"), std::string::npos) << hunts[1].error;
  }
}

TEST(DistHunts, ConnectionDroppedLateInHuntOneLearnsItsOutcomeAndJoinsHuntTwo) {
  // Rank 1's transport is cut after its third wave of hunt 1 (the winner
  // solves in the fourth). Its rejoin either lands inside hunt 1 or is
  // answered with hunt 1's outcome; either way it names hunt 1's winner
  // and then takes part in hunt 2 under a new member id. (The host opens
  // hunt 2 once the rejoin arrived: only the last finished hunt's outcome
  // is kept, and hunt 2 could otherwise finish first.)
  const std::vector<runtime::SolveRequest> reqs = {costas_request(kSize, kWalkers, kSeed),
                                                   costas_request(13, kWalkers, 5)};
  const Oracle second = oracle_of(reqs[1], 300);
  const auto reports = run_hunts(
      2, reqs,
      [](int rank, size_t k) {
        ElasticOptions eo = base_opts();
        if (rank == 1 && k == 0) eo.drop_conn_at_epoch = 3;
        return eo;
      },
      /*standby=*/false,
      [](int rank, size_t k, World& world) {
        while (rank == 0 && k == 1 &&
               world.stats_json().at("coordinator").at("joins").as_int() == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return true;
      });
  const runtime::SolveReport& dropped = reports[1][0];
  ASSERT_TRUE(dropped.error.empty()) << dropped.error;
  EXPECT_EQ(dropped.winner, kRefWinner);
  EXPECT_EQ(dropped.winner_stats.iterations, kRefWinnerIters);
  EXPECT_GE(dist_extras(dropped).at("rejoins").as_int(), 1);
  EXPECT_EQ(reports[0][0].winner, kRefWinner);
  for (const auto& hunts : reports) {
    const runtime::SolveReport& rep = hunts[1];
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.winner, second.winner);
    EXPECT_EQ(rep.winner_stats.iterations, second.winner_iters);
  }
  int active = 0;
  for (const util::Json& row : dist_extras(reports[0][1]).at("members").as_array())
    if (!row.at("evicted").as_bool() && !row.at("left").as_bool()) ++active;
  EXPECT_EQ(active, 2) << "the rejoined member did not take part in hunt 2";
  EXPECT_EQ(reports[0][1].total_iterations, second.total_iterations);
}

TEST(DistHunts, HostKilledBetweenHuntsThePromotedCoordinatorRunsTheNext) {
  // Three members with a standby. The host dies after hunt 1; member 1
  // (the standby) promotes itself, member 2 reconnects to it, and the
  // promoted coordinator opens and runs hunt 2.
  const std::vector<runtime::SolveRequest> reqs = {costas_request(12, kWalkers, 3),
                                                   costas_request(13, kWalkers, 5)};
  const Oracle second = oracle_of(reqs[1], 200);
  const auto reports = run_hunts(
      3, reqs, [](int, size_t) { return base_opts(200); }, /*standby=*/true,
      [](int rank, size_t k, World& world) {
        if (rank != 0 || k != 1) return true;
        world.crash();
        return false;
      });
  ASSERT_TRUE(reports[0][0].error.empty()) << reports[0][0].error;
  const runtime::SolveReport& promoted = reports[1][1];
  ASSERT_TRUE(promoted.error.empty()) << promoted.error;
  EXPECT_EQ(dist_extras(promoted).at("promoted_from").as_int(), 0);
  EXPECT_EQ(dist_extras(promoted).at("hunt").as_int(), 2);
  EXPECT_EQ(promoted.winner, second.winner);
  EXPECT_EQ(promoted.winner_stats.iterations, second.winner_iters);
  EXPECT_EQ(promoted.total_iterations, second.total_iterations);
  EXPECT_TRUE(promoted.check_passed);
  const runtime::SolveReport& survivor = reports[2][1];
  ASSERT_TRUE(survivor.error.empty()) << survivor.error;
  EXPECT_EQ(survivor.winner, second.winner);
  EXPECT_GE(dist_extras(survivor).at("failovers").as_int(), 1);
}

TEST(DistHunts, AFinishedHuntsSolveMovesNoLeaderInTheNext) {
  // A member's solve of hunt 1 that reaches the coordinator during hunt 2
  // (a crew solving as its hunt ended) is dropped: hunt 2's final carries
  // no leader.
  const util::Json stats = run_stats_to_json([] {
    core::RunStats st;
    st.solved = true;
    st.iterations = 10;
    return st;
  }());
  CoordinatorOptions co;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank member(coord.port(), 0, 1);
  ASSERT_FALSE(member.await("welcome").is_null());
  for (uint64_t hunt = 1; hunt <= 2; ++hunt) {
    coord.open_hunt(hunt, "hunt", kSeed, kWalkers, 0);
    const util::Json opening = member.await("rebalance");
    ASSERT_FALSE(opening.is_null());
    EXPECT_EQ(frame_u64(opening, "hunt"), hunt);
    if (hunt == 2) member.send(make_solved(0, 1, 1, 10, stats));  // a late hunt-1 solve
    util::Json report = make_epoch_base(0, hunt, 0);
    report["done"] = true;
    report["walkers"] = kWalkers;
    report["solved"] = util::Json::array();
    member.send(report);
    const util::Json final_frame = member.await("rebalance");
    ASSERT_FALSE(final_frame.is_null());
    EXPECT_TRUE(frame_bool(final_frame, "final", false));
    EXPECT_EQ(final_frame.find("leader"), nullptr) << "hunt " << hunt;
  }
  coord.stop();
}

TEST(DistHunts, AFinishedHuntsLeaderReachesNoHook) {
  // The communicator keeps the best leader of the newest hunt it heard of,
  // and a hook hears only its own hunt's leaders: a hunt-1 leader that
  // arrives during hunt 2 reaches neither.
  std::string err;
  net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
  ASSERT_TRUE(listener.valid()) << err;
  const uint16_t port = net::local_port(listener.get());
  std::promise<void> registered;
  std::jthread coordinator([&] {
    net::Fd peer(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(peer.valid());
    std::string send_err;
    const auto send = [&](const util::Json& frame) {
      ASSERT_TRUE(net::write_all(peer.get(), net::encode_frame(frame.dump(0)), send_err));
    };
    for (const util::Json& frame : {make_welcome(0, 1), make_leader(2, 1, 50),
                                    make_leader(1, 0, 10), make_rebalance_base(2, 0)})
      send(frame);
    registered.get_future().wait();
    for (const util::Json& frame :
         {make_leader(1, 0, 5), make_leader(2, 3, 40), make_rebalance_base(2, 1)})
      send(frame);
    char buf[256];
    while (::recv(peer.get(), buf, sizeof(buf), 0) > 0) {
    }
  });
  RankCommOptions o;
  o.port = port;
  o.heartbeat_interval_seconds = 0;
  RankComm comm(o);
  ASSERT_TRUE(comm.take_control(30.0).has_value());  // read after the first leaders
  std::vector<std::pair<uint64_t, int>> seen;
  comm.on_leader(2, [&](uint64_t iters, int id) { seen.emplace_back(iters, id); });
  registered.set_value();
  ASSERT_TRUE(comm.take_control(30.0).has_value());  // read after the second leaders
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, int>>{{50, 1}, {40, 3}}));
  comm.on_leader(2, nullptr);
  comm.finalize();
}

TEST(DistElasticWire, HugeControlTimeoutWaitsForALateRebalance) {
  // A member waits for each rebalance with the scenario's control timeout;
  // 1e12 s must wait for a frame that comes late (here: the opening of a
  // hunt the host opens 200 ms on), not return or throw at once.
  Coordinator coord(CoordinatorOptions{});
  RankCommOptions o;
  o.port = coord.port();
  RankComm comm(o);
  std::jthread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    coord.open_hunt(1, "hunt", 1, 1, 0);
  });
  const auto t0 = std::chrono::steady_clock::now();
  const std::optional<util::Json> rb = comm.take_control(1e12);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  late.join();
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(frame_type(*rb), "rebalance");
  EXPECT_GE(waited, 0.15);
  comm.finalize();
  coord.stop();
}

}  // namespace
}  // namespace cas::dist
