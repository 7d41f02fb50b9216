// The fixed-rank distributed runner: executes one multiwalk SolveRequest
// as ONE rank of a multi-process world. This is the paper's independent
// multi-walk across processes (Sec. V-A): the walkers are split across
// ranks, each rank runs its share through par::run_multiwalk, the first
// rank to solve announces SOLUTION_FOUND so every peer's walkers stop at
// their next probe, and the request closes with one gather of per-rank
// rows at rank 0 and one broadcast of rank 0's decision.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stats.hpp"
#include "dist/world.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {

/// One rank's row of the closing gather.
struct RankRow {
  int64_t wall_micros = -1;  // the local winner's wall time; -1: none solved
  int64_t iterations = 0;
  int64_t walkers_run = 0;
  int64_t winner_local = -1;  // the local winner's index within this rank's share
  core::RunStats winner_stats;  // the local winner's stats (when solved)

  [[nodiscard]] bool solved() const { return wall_micros >= 0; }
  [[nodiscard]] std::vector<int64_t> to_payload() const;
  static RankRow from_payload(const std::vector<int64_t>& p);
};

/// The winner rule, PURE: the rank whose local winner solved at the
/// earliest wall time, ties to the lowest rank; -1 when no rank solved.
int pick_winner(const std::vector<RankRow>& rows);

/// Execute one request as this process's rank of the world. Mirrors
/// runtime::solve's contract (never throws; failures land in
/// SolveReport::error). Every rank's report names the same global winner
/// and winner stats; rank 0's is the merged, authoritative one — per-rank
/// rows and comm counters in extras["dist"] — and the others return a
/// participation stub.
///
/// The MPI contract applies across requests too: every rank of the world
/// must call this with the SAME request sequence. Fixed-rank worlds assume
/// every rank survives the run: there is no standby and no promotion here.
/// Coordinator failover (surviving the host's death) is an elastic-world
/// feature — see solve_elastic and WorldOptions::standby.
runtime::SolveReport solve_distributed(World& world, const runtime::SolveRequest& req,
                                       const runtime::StrategyContext& ctx);

}  // namespace cas::dist
