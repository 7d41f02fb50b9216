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
// solved/leader frames each have a case.
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

/// One elastic world, one thread per initial rank. Returns reports[rank].
std::vector<runtime::SolveReport> run_elastic_world(
    int ranks, const runtime::SolveRequest& req,
    const std::function<ElasticOptions(int rank)>& opts_of) {
  std::vector<runtime::SolveReport> reports(static_cast<size_t>(ranks));
  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::vector<std::jthread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      WorldOptions wo;
      wo.rank = r;
      wo.ranks = ranks;
      wo.elastic = true;
      wo.collective_timeout_seconds = 60.0;
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
  EXPECT_TRUE(dist_extras(r0).at("elastic").as_bool());
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
    wo.elastic = true;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    // Pre-announce the hunt so the joiner's handshake cannot race
    // solve_elastic's own (idempotent) announcement.
    world.set_hunt(key, req.seed, req.walkers);
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
    wo.elastic = true;
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

TEST(DistElastic, JoinAfterTheHuntFinishedIsAnsweredWithTheWinner) {
  // The hunt completes before the joiner dials in; rank 0 holds its world
  // (and so the coordinator) open until the joiner has returned. A valid
  // join that comes too late is answered with the outcome, not refused.
  const runtime::SolveRequest req = costas_request(kSize, kWalkers, kSeed);
  std::promise<uint16_t> port_promise;
  std::promise<void> hunt_done;
  std::promise<void> joiner_done;
  runtime::SolveReport host_report, join_report;

  std::jthread host([&] {
    WorldOptions wo;
    wo.rank = 0;
    wo.ranks = 1;
    wo.elastic = true;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    host_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts());
    hunt_done.set_value();
    joiner_done.get_future().wait();
    world.finalize();
  });
  const uint16_t port = port_promise.get_future().get();
  hunt_done.get_future().wait();
  try {
    WorldOptions wo;
    wo.join = true;
    wo.rank = -1;
    wo.ranks = 0;
    wo.elastic = true;
    wo.port = port;
    wo.hunt_key = elastic_hunt_key(runtime::resolve(req));
    wo.connect_timeout_seconds = 30.0;
    World world(wo);
    join_report = solve_elastic(world, req, runtime::StrategyContext{}, base_opts());
    world.finalize();
  } catch (const std::exception& e) {
    join_report.error = e.what();
  }
  joiner_done.set_value();
  host.join();

  ASSERT_TRUE(host_report.error.empty()) << host_report.error;
  EXPECT_EQ(host_report.winner, kRefWinner);
  ASSERT_TRUE(join_report.error.empty()) << join_report.error;
  EXPECT_TRUE(join_report.solved);
  EXPECT_EQ(join_report.winner, kRefWinner);
  EXPECT_EQ(join_report.winner_stats.iterations, kRefWinnerIters);
  EXPECT_TRUE(join_report.check_passed);
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
    wo.elastic = true;
    World world(wo, [&](uint16_t p) { port_promise.set_value(p); });
    world.set_hunt(elastic_hunt_key(runtime::resolve(req)), req.seed, req.walkers);
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
  EXPECT_THROW(World world(wo), CommError);  // refused at the handshake
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
    co.elastic = true;
    co.heartbeat_timeout_seconds = 0;
    Coordinator coord(co);
    coord.set_hunt("hunt", kSeed, kWalkers);
    test::FakeRank member(coord.port(), 0, 1);
    ASSERT_FALSE(member.await("welcome").is_null());
    member.send(make_solved(0, kRefWinner, kRefWinnerIters, stats));
    const util::Json leader = member.await("leader");
    ASSERT_FALSE(leader.is_null());
    EXPECT_EQ(frame_u64(leader, "id"), static_cast<uint64_t>(kRefWinner));
    EXPECT_EQ(frame_u64(leader, "iters"), kRefWinnerIters);

    util::Json report = make_epoch_base(0, 0);
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
    CoordinatorOptions co;
    co.elastic = true;
    Coordinator coord(co);
    coord.set_hunt("hunt", 1, kWalkers);
    test::FakeRank fake(coord.port(), 0, 1);
    ASSERT_FALSE(fake.await("welcome").is_null());
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
    for (const util::Json& frame : {make_welcome(0, 1), make_leader(1, 50), make_leader(3, 40),
                                    make_leader(0, 45), make_rebalance_base(1)})
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
  comm.on_leader([&](uint64_t iters, int id) { seen.emplace_back(iters, id); });
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, int>>{{40, 3}}));
  comm.on_leader(nullptr);
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
      util::Json view = make_rebalance_base(0);
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
    wo.elastic = true;
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
  req.strategy = "cooperative";
  const auto reports = run_elastic_world(1, req, [](int) { return base_opts(); });
  EXPECT_FALSE(reports[0].error.empty());
  EXPECT_NE(reports[0].error.find("multiwalk"), std::string::npos) << reports[0].error;
}

}  // namespace
}  // namespace cas::dist
