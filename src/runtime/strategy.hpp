// The Strategy abstraction: one SolveRequest -> SolveReport contract over
// every parallel execution scheme the par layer implements —
//
//   sequential    one walker, no parallelism (the paper's Table I setting)
//   multiwalk     independent multi-walk threads, first win cancels the rest
//                 (paper Sec. V-A); honours num_threads oversubscription,
//                 a shared executor, and the wall-clock deadline
//   portfolio     heterogeneous engines racing on the same instance
//   cooperative   dependent multi-walk sharing a best-configuration
//                 blackboard (the paper's Sec. VI future work)
//   neighborhood  single-walk parallelism: the sequential walk, its move
//                 rows split across threads (the other Sec. V branch)
//
// The first four race their walkers through the one runner,
// par::run_multiwalk, and differ only in the walker they hand it.
// Strategies are registry entries, so `cas_run --strategy=...` and the
// SolverService pick them by name at runtime.
#pragma once

#include <cstdint>

#include "par/thread_pool.hpp"
#include "runtime/registry.hpp"
#include "runtime/spec.hpp"

namespace cas::runtime {

/// Execution environment handed to a strategy by the caller. The
/// multi-walk-based strategies (sequential, multiwalk, portfolio,
/// cooperative) run their walkers on `executor` when provided (the
/// SolverService's shared pool) instead of spawning fresh threads.
/// neighborhood's scan threads meet at a barrier every iteration, which a
/// FIFO pool shared with other requests cannot promise: it runs its own,
/// ignores the executor and rejects a num_threads cap.
struct StrategyContext {
  par::ThreadPool* executor = nullptr;
};

struct StrategyInfo {
  std::string description;
  /// Executes the (already resolved) request; fills everything in `report`
  /// except `request`, which the caller has set. Throws on malformed
  /// strategy_config.
  std::function<void(const SolveRequest& req, const StrategyContext& ctx, SolveReport& report)>
      run;
};

/// The string-keyed strategy catalog.
const Registry<StrategyInfo>& strategy_registry();

/// Largest walker count resolve() admits: 8x the paper's 8,192 cores.
inline constexpr int kMaxWalkers = 1 << 16;

/// Validate a request and fill derived defaults: problem/engine/strategy
/// names must exist, the size is defaulted, rounded to a feasible instance
/// and at most the problem's max_size, 1 <= walkers <= kMaxWalkers. Throws
/// std::invalid_argument with a message naming the valid alternatives or
/// the limit.
SolveRequest resolve(SolveRequest req);

/// Resolve and execute one request. Never throws: validation and execution
/// failures come back in SolveReport::error.
SolveReport solve(const SolveRequest& req, const StrategyContext& ctx = {});

/// Fresh nonzero seed for a stochastic (seed = 0) request. Drawn per
/// execution — NOT in resolve(), so a request's canonical key (computed on
/// the resolved form) still reads seed 0 and identical stochastic requests
/// coalesce under dedup while bypassing the report cache.
uint64_t draw_seed();

}  // namespace cas::runtime
