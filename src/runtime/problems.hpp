// The problem registry: all seven CSP models (Costas plus the six side
// problems), each constructible by name and size from a SolveRequest, with
// its paper-tuned Adaptive Search defaults, an independent solution
// verifier where one exists, and type-erased walker factories the
// strategies consume.
//
// The entries hide the concrete model types: a registered problem exposes
//   * make_walker()            — a fresh, self-contained walker closure per
//                                {engine, config}; every walker invocation
//                                builds its own private problem replica,
//   * make_resumable_walker()  — pausable Adaptive Search walks for the
//                                checkpointed, elastic runner,
// so the strategy layer and SolverService never mention a model type.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/problem.hpp"
#include "core/stats.hpp"
#include "runtime/registry.hpp"
#include "runtime/spec.hpp"

namespace cas::runtime {

/// A multi-walk walker: runs one complete search with the given per-walker
/// seed, polling `stop` (the first-win cancellation) every probe interval.
using Walker = std::function<core::RunStats(int walker_id, uint64_t seed, core::StopToken stop)>;

/// Everything needed to reconstruct a mid-walk Adaptive Search walker in
/// another process: the engine state (RNG, tabu, counters — see
/// core::AsWalkState) plus the problem's current configuration by position.
/// The checkpoint layer serializes this; restore() + advance() continues
/// the original trajectory exactly.
struct WalkSnapshot {
  std::vector<int> config;  // problem value at each position
  core::AsWalkState engine;
};

/// A walk that can be paused at an iteration boundary, snapshotted, and
/// resumed later — on this instance or a freshly built one in a different
/// process. Owns a private problem replica. Adaptive Search only.
class ResumableWalk {
 public:
  virtual ~ResumableWalk() = default;
  /// Start a fresh walk (randomize + reset counters). Call this or
  /// restore() before the first advance().
  virtual void begin() = 0;
  /// Run up to `iter_budget` more iterations (0 = no segment cap; the
  /// engine's own budget/stop rules apply either way). Returns solved.
  virtual bool advance(uint64_t iter_budget, core::StopToken stop) = 0;
  [[nodiscard]] virtual WalkSnapshot snapshot() const = 0;
  virtual void restore(const WalkSnapshot& s) = 0;
  [[nodiscard]] virtual const core::RunStats& stats() const = 0;
};

struct ProblemEntry {
  std::string description;
  int default_size = 0;
  /// Round a requested size up to the nearest feasible instance (Langford's
  /// n = 0,3 mod 4; partition's multiples of 4). Null = any size >= min.
  std::function<int(int)> adjust_size;
  /// Largest size resolve() admits once adjusted: a walker replica stays
  /// within a few MB, and a Costas cost probe within ~10 ms.
  int max_size = 0;

  /// Build a walker for the request's {engine, engine_config}. Throws on
  /// unknown engines or malformed knobs. The returned closure is safe to
  /// invoke concurrently from many threads.
  std::function<Walker(const SolveRequest& req)> make_walker;

  /// Build a factory of pausable walks for checkpointed/elastic execution:
  /// each call with a per-walker seed yields a self-contained ResumableWalk
  /// (private problem replica) that advances in segments, snapshots, and
  /// restores. Throws unless req.engine == "as".
  std::function<std::function<std::unique_ptr<ResumableWalk>(uint64_t seed)>(
      const SolveRequest& req)>
      make_resumable_walker;

  /// Independent verifier for a reported solution (presentation values as
  /// produced by RunStats::solution). Null = no checker beyond cost == 0.
  std::function<bool(const std::vector<int>& solution)> check;
};

/// The string-keyed problem catalog: costas, queens, all-interval,
/// magic-square, langford, partition, alpha.
const Registry<ProblemEntry>& problem_registry();

/// The catalog entry of req.problem; throws naming the known problems.
const ProblemEntry& entry_of(const SolveRequest& req);

}  // namespace cas::runtime
