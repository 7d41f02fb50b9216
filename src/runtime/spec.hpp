// The solver runtime's wire types: a declarative SolveRequest (what to
// solve, with what engine, under which parallel strategy) and the
// SolveReport every strategy produces. Both round-trip through util::Json,
// which is what makes the cas_run CLI and the SolverService batch API
// driveable from a scenario file with no recompilation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "util/json.hpp"

namespace cas::runtime {

struct SolveRequest {
  /// Optional label echoed in the report (batch bookkeeping).
  std::string id;

  // --- problem selection ---
  std::string problem = "costas";
  /// Instance size in the problem's natural unit (Costas order, queens
  /// board, Langford order, ...). 0 = the problem's default; sizes that
  /// hit an infeasible instance (Langford, partition) are rounded up to
  /// the nearest valid one.
  int size = 0;
  /// Problem-specific options, e.g. {"err": "unit", "chang": false} for
  /// Costas. Null/absent = model defaults.
  util::Json problem_config;

  // --- engine selection ---
  std::string engine = "as";
  /// Engine knob overrides on top of the problem's tuned defaults, e.g.
  /// {"plateau_probability": 0.8}. Unknown keys are an error.
  util::Json engine_config;

  // --- parallel strategy ---
  std::string strategy = "multiwalk";
  int walkers = 4;
  /// Cap on concurrent OS threads (0 = one per walker / executor width).
  unsigned num_threads = 0;
  /// Strategy-specific knobs, e.g. {"engines": ["as", "tabu"]} for
  /// portfolio. Unknown keys are an error.
  util::Json strategy_config;

  // --- budget ---
  /// Master seed (per-walker seeds derive from it). Seed 0 marks the
  /// request STOCHASTIC: every execution draws a fresh seed (the report
  /// echoes the drawn one, so any individual run stays replayable). The
  /// SolverService caches only deterministic-seed requests; stochastic
  /// ones are dedup-only.
  uint64_t seed = 2012;
  double timeout_seconds = 0.0;       // 0 = unlimited
  uint64_t max_iterations = 0;        // per walker; 0 = unlimited
  uint64_t probe_interval = 0;        // 0 = engine default

  [[nodiscard]] util::Json to_json() const;
  /// Build from a spec object; unknown keys are an error (typos in
  /// scenario files fail loudly, mirroring util::Flags).
  static SolveRequest from_json(const util::Json& j);

  /// Canonical serialization for request identity (the SolverService's
  /// dedup/cache key). Unlike to_json, every field is emitted explicitly —
  /// absent-vs-default spellings collapse — and `id` is EXCLUDED: it is a
  /// bookkeeping label, not part of the work, so two requests differing
  /// only in id are the same computation. Configs are canonicalized (null
  /// members dropped; empty objects treated as absent). Call on a
  /// resolve()d request so size defaults are normalized too.
  [[nodiscard]] util::Json canonical_json() const;
  /// `canonical_json().dump(0)` — hashes/compares equal iff the requests
  /// describe identical work.
  [[nodiscard]] std::string canonical_key() const;
};

struct SolveReport {
  SolveRequest request;  // with defaults resolved (size filled in, ...)

  bool solved = false;
  int winner = -1;               // walker id of the first solution (-1: none)
  double wall_seconds = 0.0;     // time until the winner finished
  uint64_t total_iterations = 0; // summed over all walkers
  core::RunStats winner_stats;   // meaningful iff solved
  int walkers_run = 0;           // walkers that actually executed

  /// Solution checked against the problem's independent verifier (e.g.
  /// costas::is_costas); `checked` is false when no verifier exists.
  bool checked = false;
  bool check_passed = false;

  /// Strategy-specific extras (e.g. the portfolio's winner engine). Null
  /// when the strategy has none.
  util::Json extras;

  /// Serving provenance, stamped by the SolverService: "executed" (a real
  /// strategy run), "dedup" (coalesced onto a concurrent identical
  /// request's execution), "cache" (served from the report cache), or
  /// "rejected" (denied admission by the cost model). Empty when the
  /// report came from a bare runtime::solve call.
  std::string served_by;

  /// Non-empty when the request failed validation or execution; all other
  /// fields are then meaningless.
  std::string error;

  [[nodiscard]] util::Json to_json() const;
};

}  // namespace cas::runtime
