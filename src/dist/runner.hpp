// The distributed strategy runner: executes one multiwalk or cooperative
// SolveRequest as ONE rank of a multi-process world, using the SAME
// strategy semantics the in-process runtime implements — walkers are split
// across ranks, each rank runs its share through par::run_multiwalk, and
// the cross-process parts (first-win termination, cooperation rounds, the
// merged report) go through par/collectives.hpp over the socket
// communicator.
//
// The cooperation-round protocol is factored into PURE pieces —
// RankOffer / RoundDecision payload codecs and decide_round() — plus a
// cooperation_round() template over any CollectiveEndpoint, so the exact
// decision a round produces from a given set of exchanged payloads is (a)
// unit-testable without sockets and (b) identical on the in-process and
// socket backends — the trajectory-compatibility contract the parity test
// pins.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/world.hpp"
#include "par/collectives.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {

/// One rank's contribution to a cooperation round: local completion state
/// plus the best configuration its blackboard holds.
struct RankOffer {
  bool done = false;       // local walk finished (solved, stopped, or failed)
  bool solved = false;     // local walk reached cost 0
  int64_t best_cost = -1;  // blackboard best (-1: nothing published yet)
  std::vector<int64_t> config;

  [[nodiscard]] std::vector<int64_t> to_payload() const;
  static RankOffer from_payload(const std::vector<int64_t>& p);
};

/// The decision rank 0 derives from a full set of offers and broadcasts.
struct RoundDecision {
  bool any_solved = false;
  bool all_done = false;
  int best_rank = -1;  // -1: no rank has a configuration yet
  int64_t best_cost = -1;
  std::vector<int64_t> config;

  [[nodiscard]] std::vector<int64_t> to_payload() const;
  static RoundDecision from_payload(const std::vector<int64_t>& p);
};

/// PURE round decision: cheapest configuration wins, ties break to the
/// LOWEST rank — deterministic given the offers, independent of transport
/// and arrival order.
RoundDecision decide_round(const std::vector<RankOffer>& offers);

/// One cooperation round over any endpoint: gather offers at rank 0,
/// decide there, broadcast the decision to everyone.
template <par::CollectiveEndpoint EP>
RoundDecision cooperation_round(EP& ep, const RankOffer& mine) {
  const auto rows = par::collective_gather(ep, ep.next_seq(), 0, mine.to_payload());
  std::vector<int64_t> payload;
  if (ep.rank() == 0) {
    std::vector<RankOffer> offers;
    offers.reserve(rows.size());
    for (const auto& row : rows) offers.push_back(RankOffer::from_payload(row));
    payload = decide_round(offers).to_payload();
  }
  payload = par::collective_broadcast(ep, ep.next_seq(), 0, std::move(payload));
  return RoundDecision::from_payload(payload);
}

/// Execute one request as this process's rank of the world. Mirrors
/// runtime::solve's contract (never throws; failures land in
/// SolveReport::error). Rank 0's report is the merged, authoritative one —
/// global winner, per-rank summaries, and comm counters in
/// extras["dist"]; other ranks return a participation stub.
///
/// The MPI contract applies across requests too: every rank of the world
/// must call this with the SAME request sequence. Fixed-rank worlds assume
/// every rank survives the run: there is no standby and no promotion here.
/// Coordinator failover (surviving the host's death) is an elastic-world
/// feature — see solve_elastic and WorldOptions::standby.
runtime::SolveReport solve_distributed(World& world, const runtime::SolveRequest& req,
                                       const runtime::StrategyContext& ctx);

}  // namespace cas::dist
