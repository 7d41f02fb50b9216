// Independent multi-walk engine (paper Sec. V-A): first-win semantics,
// cancellation of losers, seed distribution, thread-capped oversubscription,
// the wall-clock deadline, the shared-pool executor, and error propagation.
#include "par/multiwalk.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/adaptive_search.hpp"
#include "costas/checker.hpp"
#include "costas/model.hpp"

namespace cas::par {
namespace {

using core::RunStats;
using core::StopToken;

/// A scripted race of `walkers` walkers, one worker each. Walker 1
/// "solves" once every walker has started and it has polled `solve_after`
/// times; every other walker polls until its stop token fires and returns
/// unsolved. Only walker 1 can finish, and every loser is running when it
/// does, so neither the winner nor the cancellations depend on thread
/// start order.
struct ScriptedRace {
  int walkers;
  uint64_t solve_after;
  std::atomic<int> started{0};
  std::atomic<int> cancelled{0};

  RunStats walk(int id, uint64_t seed, StopToken stop) {
    started.fetch_add(1);
    RunStats st;
    while (id != 1 || started.load() < walkers || st.iterations < solve_after) {
      if (stop.stop_requested()) {
        cancelled.fetch_add(1);
        return st;  // unsolved
      }
      ++st.iterations;
      std::this_thread::yield();
    }
    st.solved = true;
    st.solution = {id, static_cast<int>(seed & 0xFF)};
    return st;
  }
};

TEST(MultiWalk, FirstSolverWins) {
  ScriptedRace race{4, 500};
  const auto result = run_multiwalk(
      4, 1, [&](int id, uint64_t seed, StopToken stop) { return race.walk(id, seed, stop); });
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.winner, 1);
  EXPECT_TRUE(result.winner_stats.solved);
}

TEST(MultiWalk, LosersAreCancelled) {
  ScriptedRace race{4, 2000};
  const auto result = run_multiwalk(
      4, 2, [&](int id, uint64_t seed, StopToken stop) { return race.walk(id, seed, stop); });
  ASSERT_TRUE(result.solved);
  // Every other walker was running and never solves on its own: all three
  // must have been cancelled.
  EXPECT_EQ(race.cancelled.load(), 3);
  for (const int id : {0, 2, 3}) EXPECT_FALSE(result.walker_stats[static_cast<size_t>(id)].solved);
}

TEST(MultiWalk, UnsolvableReportsFailure) {
  const auto result = run_multiwalk(3, 3, [&](int, uint64_t, StopToken) {
    RunStats st;  // never solved
    st.iterations = 10;
    return st;
  });
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.winner, -1);
  EXPECT_EQ(result.total_iterations(), 30u);
}

TEST(MultiWalk, SeedsAreDistinctPerWalker) {
  std::mutex mu;
  std::set<uint64_t> seeds;
  run_multiwalk(16, 4, [&](int, uint64_t seed, StopToken) {
    {
      std::scoped_lock lock(mu);
      seeds.insert(seed);
    }
    return RunStats{};  // unsolved, so every walker runs and records
  });
  EXPECT_EQ(seeds.size(), 16u);
}

TEST(MultiWalk, SeedsMatchChaoticSequence) {
  const auto expected = core::ChaoticSeedSequence::generate(99, 4);
  std::mutex mu;
  std::vector<uint64_t> got(4);
  run_multiwalk(4, 99, [&](int id, uint64_t seed, StopToken) {
    std::scoped_lock lock(mu);
    got[static_cast<size_t>(id)] = seed;
    RunStats st;
    return st;
  });
  EXPECT_EQ(got, expected);
}

TEST(MultiWalk, ThreadCapOversubscription) {
  // 32 walkers on 2 OS threads: all must still run (sequentially chunked),
  // unless an earlier walker already solved.
  std::atomic<int> ran{0};
  const auto result = run_multiwalk(
      32, 5,
      [&](int, uint64_t, StopToken) {
        ran.fetch_add(1);
        RunStats st;  // nobody solves: every walker must execute
        return st;
      },
      MultiWalkOptions{.num_threads = 2});
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(ran.load(), 32);
}

TEST(MultiWalk, ThreadCapStopsLaunchingAfterWin) {
  // With 1 thread, walkers run in id order; walker 0 solves immediately, so
  // later walkers must be skipped without running.
  std::atomic<int> ran{0};
  const auto result = run_multiwalk(
      8, 6,
      [&](int, uint64_t, StopToken) {
        ran.fetch_add(1);
        RunStats st;
        st.solved = true;
        st.solution = {1};
        return st;
      },
      MultiWalkOptions{.num_threads = 1});
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(ran.load(), 1);
}

TEST(MultiWalk, WallSecondsPopulated) {
  const auto result = run_multiwalk(2, 7, [&](int, uint64_t, StopToken) {
    RunStats st;
    st.solved = true;
    st.solution = {1};
    return st;
  });
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_LT(result.wall_seconds, 30.0);
}

TEST(MultiWalk, WalkerErrorCancelsTheRestAndPropagates) {
  // Walker 0 throws; the others poll until the error cancels them (they
  // never stop otherwise). Both executor forms join every walker, then
  // rethrow.
  ThreadPool pool(4);
  for (ThreadPool* executor : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto walker = [](int id, uint64_t, StopToken stop) {
      if (id == 0) throw std::runtime_error("walker 0 failed");
      while (!stop.stop_requested()) std::this_thread::yield();
      return RunStats{};
    };
    EXPECT_THROW(run_multiwalk(4, 3, walker, MultiWalkOptions{.executor = executor}),
                 std::runtime_error);
  }
}

TEST(MultiWalk, SolvesRealCostasInstance) {
  const int n = 14;
  auto walker = [n](int, uint64_t seed, StopToken stop) {
    costas::CostasProblem problem(n);
    core::AdaptiveSearch<costas::CostasProblem> engine(problem,
                                                       costas::recommended_config(n, seed));
    return engine.solve(stop);
  };
  const auto result = run_multiwalk(4, 2012, walker);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
  EXPECT_EQ(static_cast<size_t>(4), result.walker_stats.size());
}

TEST(MultiWalk, CancellationLatencyBounded) {
  // After the winner finishes, losers polling every iteration must exit
  // quickly. They never stop on their own, so the run ends only through
  // the cancellation.
  util::WallTimer timer;
  ScriptedRace race{4, 1};
  const auto result = run_multiwalk(
      4, 9, [&](int id, uint64_t seed, StopToken stop) { return race.walk(id, seed, stop); });
  EXPECT_TRUE(result.solved);
  EXPECT_LT(timer.seconds(), 10.0);
}

TEST(MultiWalkTimed, GenerousBudgetSolves) {
  const auto result = run_multiwalk(
      2, 5,
      [&](int, uint64_t seed, StopToken stop) {
        costas::CostasProblem p(11);
        core::AdaptiveSearch<costas::CostasProblem> e(p, costas::recommended_config(11, seed));
        return e.solve(stop);
      },
      MultiWalkOptions{.timeout_seconds = 60.0});
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
}

TEST(MultiWalkTimed, DeadlineFiresOnHardInstance) {
  // CAP 19 cannot be solved in 50 ms on this box (paper Table I: ~30 s on
  // a much faster machine); every walker must give up at the deadline.
  util::WallTimer timer;
  const auto result = run_multiwalk(
      2, 7,
      [&](int, uint64_t seed, StopToken stop) {
        costas::CostasProblem p(19);
        auto cfg = costas::recommended_config(19, seed);
        cfg.probe_interval = 16;
        core::AdaptiveSearch<costas::CostasProblem> e(p, cfg);
        return e.solve(stop);
      },
      MultiWalkOptions{.timeout_seconds = 0.05});
  EXPECT_FALSE(result.solved);
  EXPECT_LT(timer.seconds(), 2.0);  // deadline + one probe window + slack
  for (const auto& st : result.walker_stats) EXPECT_FALSE(st.solved);
}

TEST(MultiWalkTimed, DeadlineReachesOversubscribedWalkers) {
  // 8 walkers on 2 OS threads with a 50 ms budget: walkers claimed after
  // the deadline has passed must still run (recording their stats) but
  // their very first probe fires, so the whole oversubscribed queue drains
  // in a bounded time instead of 8 x budget.
  util::WallTimer timer;
  std::atomic<int> ran{0};
  const auto result = run_multiwalk(
      8, 21,
      [&](int, uint64_t, StopToken stop) {
        ran.fetch_add(1);
        RunStats st;
        for (int i = 0; i < 50000000; ++i) {
          ++st.iterations;
          if (stop.stop_requested()) break;
          std::this_thread::yield();
        }
        return st;
      },
      MultiWalkOptions{.num_threads = 2, .timeout_seconds = 0.05});
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(result.walker_stats.size(), 8u);
  for (const auto& st : result.walker_stats) EXPECT_GT(st.iterations, 0u);
  EXPECT_LT(timer.seconds(), 5.0);  // not 8 x 50 ms serial budgets + loop time
}

TEST(MultiWalkTimed, DeadlineZeroMeansNoDeadline) {
  // timeout_seconds == 0 must mean "unlimited", not "instant cancel".
  const auto result = run_multiwalk(2, 23,
                                    [&](int, uint64_t seed, StopToken stop) {
                                      costas::CostasProblem p(10);
                                      core::AdaptiveSearch<costas::CostasProblem> e(
                                          p, costas::recommended_config(10, seed));
                                      return e.solve(stop);
                                    },
                                    MultiWalkOptions{});
  EXPECT_TRUE(result.solved);
}

TEST(MultiWalkExecutor, SharedPoolRunsAllWalkers) {
  // An executor narrower than the walker count: chunks run on the pool's
  // threads, every walker still executes, and no fresh jthread is spawned
  // per call (we can't observe thread creation directly, but the pool's
  // width bounds concurrency: with 2 pool threads at most 2 walkers run at
  // once, which the claim counter makes visible as full coverage).
  ThreadPool pool(2);
  MultiWalkOptions opts;
  opts.executor = &pool;
  std::atomic<int> ran{0};
  const auto result = run_multiwalk(
      16, 31,
      [&](int, uint64_t, StopToken) {
        ran.fetch_add(1);
        return RunStats{};  // nobody solves: every walker must execute
      },
      opts);
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(ran.load(), 16);
}

TEST(MultiWalkExecutor, FirstWinSemanticsOnSharedPool) {
  ThreadPool pool(4);
  MultiWalkOptions opts;
  opts.executor = &pool;
  ScriptedRace race{4, 500};
  const auto result = run_multiwalk(
      4, 1, [&](int id, uint64_t seed, StopToken stop) { return race.walk(id, seed, stop); },
      opts);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.winner, 1);  // same script, same winner as the jthread form
  EXPECT_EQ(race.cancelled.load(), 3);
}

TEST(MultiWalkExecutor, PoolSurvivesManySequentialRuns) {
  // The executor form exists so batches reuse one pool; after N runs the
  // pool must still be healthy (no leaked shutdowns, no deadlock).
  ThreadPool pool(2);
  MultiWalkOptions opts;
  opts.executor = &pool;
  for (int round = 0; round < 5; ++round) {
    const auto result = run_multiwalk(
        3, static_cast<uint64_t>(round),
        [&](int, uint64_t, StopToken) {
          RunStats st;
          st.solved = true;
          st.solution = {1};
          return st;
        },
        opts);
    EXPECT_TRUE(result.solved);
  }
}

TEST(MultiWalkExecutor, SolvesRealCostasOnSharedPool) {
  ThreadPool pool(2);
  MultiWalkOptions opts;
  opts.executor = &pool;
  const auto result = run_multiwalk(
      4, 2012,
      [&](int, uint64_t seed, StopToken stop) {
        costas::CostasProblem problem(12);
        core::AdaptiveSearch<costas::CostasProblem> engine(
            problem, costas::recommended_config(12, seed));
        return engine.solve(stop);
      },
      opts);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(costas::is_costas(result.winner_stats.solution));
}

TEST(MultiWalkTimed, FirstWinStillCancelsBeforeDeadline) {
  // A huge timeout must not delay the first-win cancellation: the whole
  // run ends as soon as one walker solves the easy instance.
  util::WallTimer timer;
  const auto result = run_multiwalk(
      3, 11,
      [&](int, uint64_t seed, StopToken stop) {
        costas::CostasProblem p(10);
        core::AdaptiveSearch<costas::CostasProblem> e(p, costas::recommended_config(10, seed));
        return e.solve(stop);
      },
      MultiWalkOptions{.timeout_seconds = 300.0});
  ASSERT_TRUE(result.solved);
  EXPECT_LT(timer.seconds(), 30.0);
}

}  // namespace
}  // namespace cas::par
