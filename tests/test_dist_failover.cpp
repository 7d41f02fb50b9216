// Coordinator failover, whole stories inside one test process: the host is
// crashed mid-hunt (listener torn down, every peer sees EOF) and the world
// must survive it — the elected standby imports the replicated wave machine
// and promotes itself, the other survivors re-rendezvous through the
// epoch-stamped reconnect handshake, and the hunt finishes with the EXACT
// winner trajectory of an unfailed run. Also the failure modes around the
// happy path: the double failure (coordinator, then standby) aborts
// promptly, a world launched without --standby stays host-fatal, a
// manifest written by the PROMOTED coordinator resumes a fresh world, a
// coordinator promoted from a mirrored leader names it as the winner, and
// one promoted between hunts takes back a survivor already in the next.
// The DistRebind cases pin how a coordinator answers a connection that
// dials in again: a re-hello before the member ever spoke, a duplicate
// hello, a second hello on one connection, a re-hello after the vacancy
// grace, and a retried reconnect.
//
// Seeds are pinned to the same reference trajectory the elastic suite uses:
// size-14 seed-22 solves at walker 2, iteration 982 (segment 3 at
// 300-iteration epochs), so a host death at epoch 2 lands strictly before
// the solve and the post-failover waves decide the outcome.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/ckpt.hpp"
#include "dist/elastic.hpp"
#include "dist/world.hpp"
#include "fake_rank.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {
namespace {

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "cas_failover_XXXXXX";
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

/// One elastic world with failover armed (WorldOptions::standby), one thread
/// per initial rank. Returns reports[rank].
std::vector<runtime::SolveReport> run_standby_world(
    int ranks, const runtime::SolveRequest& req,
    const std::function<ElasticOptions(int rank)>& opts_of, bool standby = true) {
  std::vector<runtime::SolveReport> reports(static_cast<size_t>(ranks));
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
      reports[static_cast<size_t>(r)] =
          solve_elastic(*world, req, runtime::StrategyContext{}, opts_of(r));
      world->finalize();
    });
  }
  threads.clear();  // join
  return reports;
}

const util::Json& dist_extras(const runtime::SolveReport& rep) {
  const util::Json* d = rep.extras.find("dist");
  EXPECT_NE(d, nullptr);
  return *d;
}

// The pinned reference trajectory shared with the elastic suite: size 14 /
// 4 walkers / seed 22 solves at walker 2, iteration 982.
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

ElasticOptions kill_host_at(uint64_t epoch) {
  ElasticOptions eo = base_opts();
  eo.die_at_epoch = epoch;  // host death: World::crash() takes the coordinator down
  return eo;
}

TEST(DistFailover, HostDeathPromotesTheStandbyAndTheHuntFinishes) {
  const auto reports =
      run_standby_world(3, costas_request(kSize, kWalkers, kSeed), [](int rank) {
        return rank == 0 ? kill_host_at(2) : base_opts();
      });
  // The crashed host reports its injected death — nothing more.
  EXPECT_NE(reports[0].error.find("fault injection"), std::string::npos) << reports[0].error;
  // Member 1 is the elected standby (lowest-id non-host): it promoted, so IT
  // now writes the merged, verified report the dead rank 0 would have.
  const auto& promoted = reports[1];
  ASSERT_TRUE(promoted.error.empty()) << promoted.error;
  EXPECT_TRUE(promoted.solved);
  EXPECT_TRUE(promoted.checked);
  EXPECT_TRUE(promoted.check_passed);
  EXPECT_EQ(promoted.winner, kRefWinner);
  EXPECT_EQ(promoted.winner_stats.iterations, kRefWinnerIters);
  EXPECT_GE(dist_extras(promoted).at("failovers").as_int(), 1);
  EXPECT_EQ(dist_extras(promoted).at("promoted_from").as_int(), 0);
  // The third member re-rendezvoused against the promoted coordinator and
  // learned the same outcome.
  const auto& survivor = reports[2];
  ASSERT_TRUE(survivor.error.empty()) << survivor.error;
  EXPECT_TRUE(survivor.solved);
  EXPECT_EQ(survivor.winner, kRefWinner);
  EXPECT_GE(dist_extras(survivor).at("failovers").as_int(), 1);
}

TEST(DistFailover, FailoverTrajectoryIsBitIdenticalToAnUnfailedRun) {
  const auto req = costas_request(kSize, kWalkers, kSeed);
  const auto clean = run_standby_world(2, req, [](int) { return base_opts(); },
                                       /*standby=*/false);
  ASSERT_TRUE(clean[0].error.empty()) << clean[0].error;
  ASSERT_TRUE(clean[0].solved);

  // Same request, but the host dies at epoch 2 and the single survivor
  // promotes itself and finishes alone.
  const auto failed = run_standby_world(
      2, req, [](int rank) { return rank == 0 ? kill_host_at(2) : base_opts(); });
  const auto& promoted = failed[1];
  ASSERT_TRUE(promoted.error.empty()) << promoted.error;
  ASSERT_TRUE(promoted.solved);

  EXPECT_EQ(promoted.winner, clean[0].winner);
  EXPECT_EQ(promoted.winner_stats.iterations, clean[0].winner_stats.iterations);
  EXPECT_EQ(promoted.winner_stats.solution, clean[0].winner_stats.solution);
  EXPECT_EQ(promoted.winner_stats.swaps, clean[0].winner_stats.swaps);
  EXPECT_TRUE(promoted.check_passed);
}

TEST(DistFailover, PromotionFromAMirroredLeaderNamesItAsWinner) {
  // Two fake members; member 1 is the standby. The coordinator mirrors a
  // new leader to the standby at once, not at the next wave's end, and the
  // hunt's decision with every wave. A coordinator promoted from either
  // mirror names that leader as the winner: from the first once the
  // survivor settles against it, from the second (a report had listed the
  // solve) even when the survivor halts unsettled.
  const std::string key = "hunt";
  const util::Json stats = run_stats_to_json([] {
    core::RunStats st;
    st.solved = true;
    st.iterations = kRefWinnerIters;
    return st;
  }());
  const auto report = [](int member, uint64_t wave, int walkers) {
    util::Json ef = make_epoch_base(member, 1, wave);
    ef["walkers"] = walkers;
    ef["solved"] = util::Json::array();
    return ef;
  };
  CoordinatorOptions co;
  co.ranks = 2;
  co.standby = true;
  co.heartbeat_timeout_seconds = 0;
  util::Json leader_mirror, decided_mirror;
  {
    Coordinator coord(co);
    coord.open_hunt(1, key, kSeed, kWalkers, 0);
    util::Json standby_hello = make_hello(1, 2);
    standby_hello["failover"] = "127.0.0.1:1";  // makes it eligible; never dialed here
    test::FakeRank host(coord.port(), make_hello(0, 2));
    test::FakeRank standby(coord.port(), standby_hello);
    ASSERT_FALSE(host.await("welcome").is_null());
    ASSERT_FALSE(standby.await("welcome").is_null());
    ASSERT_FALSE(standby.await("state_sync").is_null());  // the opening elected the standby
    host.send(report(0, 0, 2));
    standby.send(report(1, 0, 2));
    ASSERT_FALSE(standby.await("state_sync").is_null());  // wave 0 completed

    // Walker 2, the standby's, solves at 982 during wave 1.
    standby.send(make_solved(1, 1, kRefWinner, kRefWinnerIters, stats));
    ASSERT_FALSE(host.await("leader").is_null());
    leader_mirror = standby.await("state_sync");
    ASSERT_FALSE(leader_mirror.is_null());
    const util::Json& led = leader_mirror.at("state");
    EXPECT_TRUE(frame_bool(led, "have_leader", false));
    EXPECT_FALSE(frame_bool(led, "decided", true));
    EXPECT_EQ(frame_u64(led, "leader_id"), static_cast<uint64_t>(kRefWinner));
    EXPECT_EQ(frame_u64(led, "leader_iters"), kRefWinnerIters);

    // Wave 1's reports list the solve: decided, though the host's walkers
    // still run, so the world goes on to wave 2.
    host.send(report(0, 1, 2));
    util::Json listed = report(1, 1, 2);
    util::Json solve = util::Json::object();
    solve["id"] = wire_u64(kRefWinner);
    solve["iters"] = wire_u64(kRefWinnerIters);
    listed["solved"].push_back(std::move(solve));
    standby.send(listed);
    decided_mirror = standby.await("state_sync");
    ASSERT_FALSE(decided_mirror.is_null());
    EXPECT_TRUE(frame_bool(decided_mirror.at("state"), "decided", false));
    coord.stop();  // the host dies
  }

  for (const auto& [mirror, flag] : {std::pair{leader_mirror, "settled"},
                                     std::pair{decided_mirror, "halt"}}) {
    std::string err;
    net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
    ASSERT_TRUE(listener.valid()) << err;
    CoordinatorOptions po = co;
    po.host_member = 1;
    Coordinator promoted(po, std::move(listener), mirror.at("state"));
    const uint64_t wave = frame_u64(mirror, "epoch");
    test::FakeRank survivor(promoted.port(), make_reconnect(1, 1, wave));
    const util::Json resume = survivor.await("rebalance");
    ASSERT_FALSE(resume.is_null()) << flag;
    EXPECT_EQ(frame_int(resume, "ranks"), 1) << flag;
    util::Json last = report(1, wave, kWalkers);  // the survivor owns every walker
    last[flag] = true;
    survivor.send(last);
    const util::Json final_frame = survivor.await("rebalance");
    ASSERT_FALSE(final_frame.is_null()) << flag;
    EXPECT_TRUE(frame_bool(final_frame, "final", false)) << flag;
    const util::Json* winner = final_frame.find("winner");
    ASSERT_NE(winner, nullptr) << flag;
    EXPECT_EQ(frame_u64(*winner, "id"), static_cast<uint64_t>(kRefWinner)) << flag;
    EXPECT_EQ(frame_u64(*winner, "iters"), kRefWinnerIters) << flag;
    EXPECT_EQ(frame_int(*winner, "member"), 1) << flag;
    promoted.stop();
  }
}

TEST(DistFailover, SurvivorAlreadyInTheNextHuntReconnectsToAStateBetweenHunts) {
  // The host opens hunt 2 — every member's opening goes out before the
  // standby's state_sync — and dies in between: the standby promotes from
  // the state after hunt 1's final, while a survivor stamps hunt 2. The
  // promoted coordinator takes the survivor back and opens hunt 2 again.
  CoordinatorOptions co;
  co.ranks = 3;
  co.standby = true;
  co.heartbeat_timeout_seconds = 0;
  const auto done = [](int member, uint64_t hunt, uint64_t wave) {
    util::Json ef = make_epoch_base(member, hunt, wave);
    ef["done"] = true;
    ef["walkers"] = 1;
    ef["solved"] = util::Json::array();
    return ef;
  };
  util::Json between;
  {
    Coordinator coord(co);
    util::Json standby_hello = make_hello(1, 3);
    standby_hello["failover"] = "127.0.0.1:1";  // makes it eligible; never dialed here
    test::FakeRank host(coord.port(), make_hello(0, 3));
    test::FakeRank standby(coord.port(), standby_hello);
    test::FakeRank survivor(coord.port(), make_hello(2, 3));
    coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
    for (test::FakeRank* r : {&host, &standby, &survivor}) {
      ASSERT_FALSE(r->await("welcome").is_null());
      ASSERT_FALSE(r->await("rebalance").is_null());  // hunt 1's opening
    }
    ASSERT_FALSE(standby.await("state_sync").is_null());  // the opening's mirror
    host.send(done(0, 1, 0));
    standby.send(done(1, 1, 0));
    survivor.send(done(2, 1, 0));
    between = standby.await("state_sync");  // after hunt 1's final
    ASSERT_FALSE(between.is_null());
    EXPECT_FALSE(frame_bool(between.at("state"), "hunting", true));
    coord.open_hunt(2, "hunt", kSeed, kWalkers, 0);
    for (const uint64_t hunt : {1u, 2u}) {  // hunt 1's final, then hunt 2's opening
      const util::Json rb = survivor.await("rebalance");
      ASSERT_FALSE(rb.is_null());
      EXPECT_EQ(frame_u64(rb, "hunt"), hunt);
    }
    coord.stop();  // the host dies
  }

  std::string err;
  net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
  ASSERT_TRUE(listener.valid()) << err;
  CoordinatorOptions po = co;
  po.host_member = 1;
  Coordinator promoted(po, std::move(listener), between.at("state"));
  test::FakeRank standby(promoted.port(), make_reconnect(1, 1, frame_u64(between, "epoch")));
  test::FakeRank survivor(promoted.port(), make_reconnect(2, 2, 0));
  ASSERT_FALSE(standby.await("welcome").is_null());
  ASSERT_FALSE(survivor.await("welcome").is_null()) << "the survivor's stamp was refused";
  promoted.open_hunt(2, "hunt", kSeed, kWalkers, 0);
  for (test::FakeRank* r : {&standby, &survivor}) {
    const util::Json opening = r->await("rebalance");
    ASSERT_FALSE(opening.is_null());
    EXPECT_EQ(frame_u64(opening, "hunt"), 2u);
    EXPECT_EQ(frame_u64(opening, "epoch"), 0u);
    EXPECT_FALSE(frame_bool(opening, "final", true));
    EXPECT_EQ(frame_int(opening, "ranks"), 2);
  }
  standby.send(done(1, 2, 0));
  survivor.send(done(2, 2, 0));
  const util::Json final_frame = survivor.await("rebalance");
  ASSERT_FALSE(final_frame.is_null());
  EXPECT_TRUE(frame_bool(final_frame, "final", false));
  promoted.stop();
}

/// Wait up to 10 s for a coordinator counter to reach `want`.
bool reaches(const std::atomic<uint64_t>& counter, uint64_t want) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter.load() < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

std::string reason_of(const util::Json& abort) {
  const util::Json* r = abort.find("reason");
  return r != nullptr && r->is_string() ? r->as_string() : "";
}

TEST(DistRebind, AReHelloIsAnsweredWithTheWelcomeTheViewAndTheLeader) {
  // Rank 1's first connection closes after both hellos, before it reads or
  // speaks. The hunt opens and a solve sets a leader while its slot is
  // vacant. Its re-hello learns what a clean first connection would have:
  // its welcome, the view of the wave in progress, and the leader.
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank host(coord.port(), make_hello(0, 2));
  {
    test::FakeRank lost(coord.port(), make_hello(1, 2));
    ASSERT_FALSE(host.await("welcome").is_null());  // both hellos arrived
  }
  coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
  ASSERT_FALSE(host.await("rebalance").is_null());
  core::RunStats st;
  st.solved = true;
  st.iterations = kRefWinnerIters;
  host.send(make_solved(0, 1, 0, kRefWinnerIters, run_stats_to_json(st)));
  ASSERT_FALSE(host.await("leader").is_null());

  test::FakeRank again(coord.port(), make_hello(1, 2));
  const util::Json welcome = again.await("welcome");
  ASSERT_FALSE(welcome.is_null());
  EXPECT_EQ(frame_int(welcome, "rank"), 1);
  const util::Json view = again.await("rebalance");
  ASSERT_FALSE(view.is_null());
  EXPECT_EQ(frame_u64(view, "hunt"), 1u);
  EXPECT_EQ(frame_u64(view, "epoch"), 0u);
  EXPECT_FALSE(frame_bool(view, "final", true));
  EXPECT_EQ(frame_int(view, "your_rank"), 1);
  EXPECT_EQ(frame_u64(view, "seed"), kSeed);
  EXPECT_EQ(frame_int(view, "walkers"), kWalkers);
  const util::Json leader = again.await("leader");
  ASSERT_FALSE(leader.is_null());
  EXPECT_EQ(frame_u64(leader, "id"), 0u);
  EXPECT_EQ(frame_u64(leader, "iters"), kRefWinnerIters);
  EXPECT_EQ(coord.stats().rehellos.load(), 1u);
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
}

TEST(DistRebind, AHelloForARankThatSpokeAbortsTheWorld) {
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank host(coord.port(), make_hello(0, 2));
  test::FakeRank member(coord.port(), make_hello(1, 2));
  ASSERT_FALSE(member.await("welcome").is_null());
  member.send(make_hb(1));
  ASSERT_TRUE(reaches(coord.stats().heartbeats, 1));

  test::FakeRank duplicate(coord.port(), make_hello(1, 2));
  const util::Json abort = duplicate.await("abort");
  ASSERT_FALSE(abort.is_null());
  EXPECT_NE(reason_of(abort).find("duplicate hello"), std::string::npos) << reason_of(abort);
  EXPECT_FALSE(host.await("abort").is_null());
  EXPECT_EQ(coord.stats().aborts.load(), 1u);
  EXPECT_EQ(coord.stats().rehellos.load(), 0u);
}

/// One handshake per connection: a connection that says hello(0), then
/// hello(second_rank), before its welcome is dropped. A fresh rank 0 and a
/// rank 1 then rendezvous, and each gets its own welcome.
void expect_second_hello_drops_the_connection(int second_rank) {
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0;
  Coordinator coord(co);
  test::FakeRank twice(coord.port(), make_hello(0, 2));
  twice.send(make_hello(second_rank, 2));
  const auto sent = std::chrono::steady_clock::now();
  EXPECT_TRUE(twice.await("welcome").is_null());
  // await gives up after 30 s of silence; the drop must come long before.
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(10));

  test::FakeRank rank0(coord.port(), make_hello(0, 2));
  test::FakeRank rank1(coord.port(), make_hello(1, 2));
  const util::Json welcome0 = rank0.await("welcome");
  ASSERT_FALSE(welcome0.is_null());
  EXPECT_EQ(frame_int(welcome0, "rank"), 0);
  const util::Json welcome1 = rank1.await("welcome");
  ASSERT_FALSE(welcome1.is_null());
  EXPECT_EQ(frame_int(welcome1, "rank"), 1);
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
}

TEST(DistRebind, ARepeatedHelloOnOneConnectionDropsIt) {
  expect_second_hello_drops_the_connection(0);
}

TEST(DistRebind, AHelloForAnotherRankOnOneConnectionDropsIt) {
  expect_second_hello_drops_the_connection(1);
}

TEST(DistRebind, AReHelloAfterTheVacancyGraceIsRefusedAndTheWorldLivesOn) {
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0;
  co.rehello_grace_seconds = 0.2;
  Coordinator coord(co);
  test::FakeRank host(coord.port(), make_hello(0, 2));
  {
    test::FakeRank lost(coord.port(), make_hello(1, 2));
    ASSERT_FALSE(host.await("welcome").is_null());
  }
  ASSERT_TRUE(reaches(coord.stats().evictions, 1)) << "the vacancy was never settled";

  test::FakeRank late(coord.port(), make_hello(1, 2));
  const util::Json refusal = late.await("abort");
  ASSERT_FALSE(refusal.is_null());
  EXPECT_NE(reason_of(refusal).find("already retired"), std::string::npos)
      << reason_of(refusal);
  coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
  const util::Json opening = host.await("rebalance");
  ASSERT_FALSE(opening.is_null());
  EXPECT_EQ(frame_int(opening, "ranks"), 1);
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
  EXPECT_EQ(coord.stats().rehellos.load(), 0u);
}

TEST(DistRebind, ARetriedReconnectIsWelcomedAgainAndGetsTheResume) {
  // Member 1 promotes from the opening's mirror. Member 2 reconnects, then
  // retries on a fresh connection inside the window (its welcome was
  // lost): the retry is welcomed again, and once member 1 reconnects both
  // live connections get the resume rebalance.
  CoordinatorOptions co;
  co.ranks = 3;
  co.standby = true;
  co.heartbeat_timeout_seconds = 0;
  util::Json sync;
  {
    Coordinator coord(co);
    util::Json standby_hello = make_hello(1, 3);
    standby_hello["failover"] = "127.0.0.1:1";  // makes it eligible; never dialed here
    test::FakeRank host(coord.port(), make_hello(0, 3));
    test::FakeRank standby(coord.port(), standby_hello);
    test::FakeRank survivor(coord.port(), make_hello(2, 3));
    coord.open_hunt(1, "hunt", kSeed, kWalkers, 0);
    sync = standby.await("state_sync");  // the opening's mirror
    ASSERT_FALSE(sync.is_null());
    coord.stop();  // the host dies
  }

  std::string err;
  net::Fd listener = net::listen_tcp("127.0.0.1", 0, 4, err);
  ASSERT_TRUE(listener.valid()) << err;
  CoordinatorOptions po = co;
  po.host_member = 1;
  Coordinator promoted(po, std::move(listener), sync.at("state"));
  test::FakeRank first(promoted.port(), make_reconnect(2, 1, 0));
  ASSERT_FALSE(first.await("welcome").is_null());
  test::FakeRank retry(promoted.port(), make_reconnect(2, 1, 0));
  const util::Json again = retry.await("welcome");
  ASSERT_FALSE(again.is_null());
  EXPECT_EQ(frame_int(again, "rank"), 2);
  test::FakeRank standby(promoted.port(), make_reconnect(1, 1, 0));
  for (test::FakeRank* r : {&retry, &standby}) {
    const util::Json resume = r->await("rebalance");
    ASSERT_FALSE(resume.is_null());
    EXPECT_EQ(frame_u64(resume, "hunt"), 1u);
    EXPECT_EQ(frame_u64(resume, "epoch"), 0u);
    EXPECT_FALSE(frame_bool(resume, "final", true));
    EXPECT_EQ(frame_int(resume, "ranks"), 2);
    EXPECT_EQ(frame_int(resume, "promoted_from"), 0);
  }
  EXPECT_EQ(promoted.stats().reconnects.load(), 3u);
  EXPECT_EQ(promoted.stats().aborts.load(), 0u);
  promoted.stop();
}

TEST(DistFailover, DoubleFailureAbortsCleanly) {
  // Coordinator AND elected standby die at the same boundary: the last
  // survivor's reconnect has nowhere to land and must abort promptly, not
  // hang — the world is unrecoverable and says so.
  const auto reports =
      run_standby_world(3, costas_request(kSize, kWalkers, kSeed), [](int rank) {
        return rank <= 1 ? kill_host_at(2) : base_opts();
      });
  EXPECT_NE(reports[0].error.find("fault injection"), std::string::npos) << reports[0].error;
  EXPECT_NE(reports[1].error.find("fault injection"), std::string::npos) << reports[1].error;
  EXPECT_FALSE(reports[2].solved);
  EXPECT_NE(reports[2].error.find("recovery failed"), std::string::npos) << reports[2].error;
}

TEST(DistFailover, HostDeathWithoutStandbyStaysFatal) {
  // The negative control the failover feature is measured against: without
  // --standby nothing was replicated and nobody may invent an outcome.
  const auto reports = run_standby_world(
      2, costas_request(kSize, kWalkers, kSeed),
      [](int rank) { return rank == 0 ? kill_host_at(2) : base_opts(); },
      /*standby=*/false);
  EXPECT_NE(reports[0].error.find("fault injection"), std::string::npos) << reports[0].error;
  EXPECT_FALSE(reports[1].solved);
  EXPECT_NE(reports[1].error.find("no standby was ever elected"), std::string::npos)
      << reports[1].error;
}

TEST(DistFailover, PromotedCoordinatorWritesAResumableManifest) {
  const std::string dir = make_temp_dir();
  const auto req = costas_request(kSize, kWalkers, kSeed);

  // Phase 1: the host dies at epoch 2, the promoted survivor finishes the
  // wave and is then preempted — so the LAST manifest on disk was written
  // by the promoted coordinator, not the original host.
  const auto preempted = run_standby_world(3, req, [&](int rank) {
    ElasticOptions eo = rank == 0 ? kill_host_at(2) : base_opts();
    eo.ckpt_dir = dir;
    eo.max_epochs = 3;
    return eo;
  });
  const auto& promoted = preempted[1];
  ASSERT_TRUE(promoted.error.empty()) << promoted.error;
  EXPECT_FALSE(promoted.solved);
  EXPECT_TRUE(dist_extras(promoted).at("preempted").as_bool());
  EXPECT_EQ(dist_extras(promoted).at("promoted_from").as_int(), 0);
  ASSERT_TRUE(std::filesystem::exists(dir + "/" + std::string(kManifestFile)));

  // Phase 2: a FRESH world (no failover involved) resumes from that
  // manifest and lands on the pinned winner trajectory.
  const auto resumed = run_standby_world(
      2, req,
      [&](int) {
        ElasticOptions eo = base_opts();
        eo.ckpt_dir = dir;
        eo.resume = true;
        return eo;
      },
      /*standby=*/false);
  const auto& r0 = resumed[0];
  ASSERT_TRUE(r0.error.empty()) << r0.error;
  EXPECT_TRUE(r0.solved);
  EXPECT_TRUE(r0.check_passed);
  EXPECT_EQ(r0.winner, kRefWinner);
  EXPECT_EQ(r0.winner_stats.iterations, kRefWinnerIters);
  EXPECT_GE(dist_extras(r0).at("ckpt").at("restored").as_int(), 1);
}

TEST(DistFailover, JoinerAdmittedMidHuntSurvivesThePromotion) {
  // A long hunt (size 16 / 2 walkers / seed 10 solves at iteration 37644;
  // 200-iteration epochs): a late joiner is admitted within the first few
  // waves, the host dies at epoch 8, and both the promoted standby and the
  // joiner must carry the hunt to the verified solve.
  const runtime::SolveRequest req = costas_request(16, 2, 10);
  const std::string key = elastic_hunt_key(runtime::resolve(req));

  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::promise<void> hunt_announced;
  std::shared_future<void> announced = hunt_announced.get_future().share();
  runtime::SolveReport host_report, standby_report, join_report;

  std::jthread host([&] {
    WorldOptions wo;
    wo.rank = 0;
    wo.ranks = 2;
    wo.standby = true;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    hunt_announced.set_value();  // a join that beats the hunt's opening waits for it
    ElasticOptions eo = base_opts(200);
    eo.die_at_epoch = 8;
    host_report = solve_elastic(world, req, runtime::StrategyContext{}, eo);
    world.finalize();
  });
  std::jthread standby([&] {
    WorldOptions wo;
    wo.rank = 1;
    wo.ranks = 2;
    wo.standby = true;
    wo.port = port.get();
    World world(wo);
    standby_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts(200));
    world.finalize();
  });
  std::jthread joiner([&] {
    announced.wait();
    WorldOptions wo;
    wo.join = true;
    wo.rank = -1;
    wo.ranks = 0;
    wo.standby = true;
    wo.port = port.get();
    wo.hunt_key = key;
    wo.connect_timeout_seconds = 30.0;
    World world(wo);  // blocks until admitted at a wave boundary
    join_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts(200));
    world.finalize();
  });
  host.join();
  standby.join();
  joiner.join();

  EXPECT_NE(host_report.error.find("fault injection"), std::string::npos)
      << host_report.error;
  ASSERT_TRUE(standby_report.error.empty()) << standby_report.error;
  EXPECT_TRUE(standby_report.solved);
  EXPECT_TRUE(standby_report.check_passed);
  EXPECT_EQ(dist_extras(standby_report).at("promoted_from").as_int(), 0);
  ASSERT_TRUE(join_report.error.empty()) << join_report.error;
  EXPECT_TRUE(join_report.solved);
  EXPECT_EQ(join_report.winner, standby_report.winner);
}

}  // namespace
}  // namespace cas::dist
