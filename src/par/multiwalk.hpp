// Independent multi-walk parallel search (paper Sec. V-A).
//
// "Fork a sequential AS method on every available core. But on the opposite
//  of the classical fork-join paradigm, parallel AS shall terminate as soon
//  as a solution is found, not wait until all the processes have finished."
//
// run_multiwalk() is the one in-process walker runner: walkers share one
// atomic stop flag that the first solver raises (first win cancels the
// rest), and run as fan_out() workers — chunks on a shared ThreadPool when
// one is given, jthreads otherwise. Every strategy that races walkers
// (sequential, multiwalk, portfolio, cooperative, and each rank's share of
// a distributed run) goes through it; the elastic wave hands its segments
// to the same fan_out().
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "core/chaotic_seed.hpp"
#include "core/problem.hpp"
#include "core/stats.hpp"
#include "par/thread_pool.hpp"
#include "util/timer.hpp"

namespace cas::par {

struct MultiWalkResult {
  bool solved = false;
  int winner = -1;             // walker id of the first solution
  double wall_seconds = 0.0;   // time until the winner finished
  core::RunStats winner_stats;
  std::vector<core::RunStats> walker_stats;  // indexed by walker id

  [[nodiscard]] uint64_t total_iterations() const {
    uint64_t total = 0;
    for (const auto& s : walker_stats) total += s.iterations;
    return total;
  }
};

/// Execution knobs of run_multiwalk.
struct MultiWalkOptions {
  /// Cap on concurrently running walkers. 0 = one worker per walker (or
  /// the executor's width when one is given). Values below the walker
  /// count oversubscribe: walkers are claimed from a shared counter and
  /// run in chunks.
  unsigned num_threads = 0;
  /// Run walker chunks on this shared pool instead of spawning fresh
  /// jthreads per call — the form SolverService uses so that many
  /// concurrent solve requests share one set of OS threads instead of
  /// oversubscribing the machine.
  ThreadPool* executor = nullptr;
  /// > 0: every walker's stop token also fires once this many wall-clock
  /// seconds elapse (measured from entry), whichever comes first with the
  /// first-win cancellation. Engines poll every probe_interval iterations,
  /// so the overshoot past the deadline is one probe window.
  double timeout_seconds = 0.0;
};

/// WalkerFn signature: core::RunStats fn(int walker_id, uint64_t seed,
/// core::StopToken stop). The walker must poll `stop` (engines do this
/// every cfg.probe_interval iterations) and return promptly once stopping.
///
/// Per-walker seeds come from the chaotic-map sequence (paper Sec. III-B3).
/// A walker that throws cancels the others; the exception is rethrown once
/// every walker has returned.
template <typename WalkerFn>
MultiWalkResult run_multiwalk(int num_walkers, uint64_t master_seed, WalkerFn&& fn,
                              const MultiWalkOptions& opts = {}) {
  MultiWalkResult result;
  result.walker_stats.resize(static_cast<size_t>(num_walkers));
  const auto seeds =
      core::ChaoticSeedSequence::generate(master_seed, static_cast<size_t>(num_walkers));

  std::atomic<bool> stop_flag{false};
  std::atomic<int> winner{-1};
  std::mutex result_mu;
  util::WallTimer timer;
  double winner_time = 0.0;

  // Combined token for runs with a deadline: first-win flag OR shared
  // deadline. Read-only, so every walker can poll the same one.
  const std::function<bool()> combined = [&] {
    return stop_flag.load(std::memory_order_relaxed) ||
           (opts.timeout_seconds > 0.0 && timer.seconds() >= opts.timeout_seconds);
  };
  const core::StopToken stop = opts.timeout_seconds > 0.0 ? core::StopToken(&combined)
                                                          : core::StopToken(&stop_flag);

  fan_out(num_walkers, opts.num_threads, opts.executor, [&](int id) {
    // A solution already exists: unstarted walkers record nothing.
    if (stop_flag.load(std::memory_order_relaxed)) return;
    core::RunStats st;
    try {
      st = fn(id, seeds[static_cast<size_t>(id)], stop);
    } catch (...) {
      stop_flag.store(true, std::memory_order_relaxed);
      throw;
    }
    if (st.solved) {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, id)) {
        // First finisher: freeze the clock and cancel everyone else.
        std::scoped_lock lock(result_mu);
        winner_time = timer.seconds();
        stop_flag.store(true, std::memory_order_relaxed);
      }
    }
    std::scoped_lock lock(result_mu);
    result.walker_stats[static_cast<size_t>(id)] = std::move(st);
  });

  const int w = winner.load();
  if (w >= 0) {
    result.solved = true;
    result.winner = w;
    result.wall_seconds = winner_time;
    result.winner_stats = result.walker_stats[static_cast<size_t>(w)];
  } else {
    result.wall_seconds = timer.seconds();
  }
  return result;
}

}  // namespace cas::par
