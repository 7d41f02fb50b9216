// The distributed runner: epoch-stepped independent multi-walk over a
// membership that can change while a hunt is running. A World runs its
// hunts one after another.
//
// Only the host knows what a world runs: it opens each hunt for a request it
// resolved and checked, and every member builds its walkers from the
// opening `rebalance` frame, which carries the hunt's definition (resolved
// request, segment length, epoch bound, and a resume's manifest wave and
// spent budget). Members hold no requests. Each
// member advances every owned walker a fixed iteration segment per epoch,
// checkpoints the mid-walk state, and reports to the coordinator; the
// coordinator completes the wave once every active member reported,
// evicting the dead, retiring the leaving, admitting late joiners, and
// sending the new walker partition in a `rebalance` frame. Work is
// deterministic per walker (global walker id -> chaotic-map seed), so
// ownership can move between members freely: a member that inherits a
// walker restores its snapshot from the last consistent checkpoint wave —
// or deterministically replays it from the seed when no checkpoint exists —
// and continues exactly where the previous owner left off. The same
// property makes `--resume` exact: a world killed outright and restarted
// from its manifest (at ANY rank count) follows the identical walker
// trajectories an uninterrupted run would.
//
// A member's walkers run up to two segments past the wave it is reporting;
// its own thread reports that wave from the states they recorded there.
//
// Invariants the protocol relies on:
//   - The winner is the solve with the minimum (solve iteration, walker id)
//     — a total order every membership agrees on, independent of
//     wall-clock racing. A member sends a `solved` frame the moment a
//     walker solves; the coordinator keeps the minimum as the leader and
//     sends it to every member. Against a leader at iteration L, a walker
//     with a lower id must run through L and one with a higher id to L - 1
//     before it cannot win; it then stops ("cleared"). A member whose
//     walkers all solved, cleared or capped reports settled at once, and
//     the hunt ends when every member settled.
//   - A wave is reported from boundary states: the epoch-E frame lists only
//     solves by the end of segment E, and its executed/owned_iters counts
//     stop at boundary E, however far the walkers have run ahead (a settled
//     report adds where each walker stopped). A solved frame precedes every
//     report that counts its walker stopped.
//   - The wave-E checkpoint file holds each walker's state at exactly
//     (E+1) * ckpt_iters iterations (or where it stopped before that), and
//     is durable BEFORE the epoch-E frame is sent, on the same FIFO
//     connection, so when the coordinator announces ckpt_epoch=E every
//     active member's wave-E file is on disk. Writing it stalls no walker.
//     A settled member skips it only when its leader solved by the end of
//     segment E and it neither halts nor runs out of epochs there: wave E's
//     reports then decide the hunt, so the world names the winner.
//   - Exactly one member hosts the coordinator and writes the resume
//     manifest. Without a standby (wire v2 behavior) that host may never
//     leave or die while the world survives. With WorldOptions::standby the
//     coordinator mirrors its wave machine to an elected standby every
//     completed wave; if the host dies, the standby promotes itself, the
//     survivors re-rendezvous with an epoch-stamped reconnect, and the
//     manifest-writer role migrates with the promotion — the hunt resumes
//     from the last completed wave on the same deterministic trajectory.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/world.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {

struct ElasticOptions {
  /// Checkpoint directory (shared by every member; typically a shared
  /// filesystem in multi-host worlds). Empty = no durable checkpoints:
  /// membership stays elastic, but inherited walkers are replayed from
  /// their seeds and --resume is unavailable.
  std::string ckpt_dir;
  /// Iterations each walker advances per epoch. The epoch boundary is the
  /// only point where membership changes, checkpoints cut, and budgets are
  /// checked — shorter segments mean finer-grained elasticity, at the cost
  /// of more waves to report. Walkers do not wait on a wave's report: they
  /// run up to two segments ahead of it. The host's value defines the hunt.
  uint64_t ckpt_iters = 100000;
  /// Absolute epoch bound: the member reports done once epoch index
  /// max_epochs - 1 has executed (0 = unbounded). The bound is absolute and
  /// the host's, so every member agrees on the final wave — this is the
  /// clean whole-world preemption knob.
  uint64_t max_epochs = 0;
  /// Host only: restore from ckpt_dir's manifest — adopt its seed and open
  /// the hunt at manifest epoch + 1. The hunt's definition carries the
  /// manifest wave and the budget spent before it, so every member (and a
  /// promoted host) counts that budget; every member restores its owned
  /// walkers from the manifest wave's files.
  bool resume = false;
  /// Graceful-drain latch (cas_run's SIGTERM handler): when set, the host
  /// halts the world at the next epoch boundary; other members send
  /// `leave` and retire once the coordinator rebalances them out, and
  /// follow() returns.
  const std::atomic<bool>* drain = nullptr;
  /// Fault injection: hard-kill the communicator (no bye — exactly what
  /// SIGKILL looks like to the coordinator) after this member has executed
  /// `die_at_epoch` epochs and written the wave's checkpoint, but before
  /// reporting the epoch frame. 0 = disabled.
  uint64_t die_at_epoch = 0;
  /// With die_at_epoch: die by raising SIGKILL on the whole process instead
  /// of hard-killing just the communicator. This is what cas_run's forked
  /// loopback ranks use to kill the COORDINATOR-hosting process — the
  /// coordinator lives in-process, so only process death takes it down with
  /// the member. (In-process tests use World::crash() for the same effect.)
  bool die_sigkill = false;
  /// Fault injection: sever just the TRANSPORT (no bye) after this member
  /// has executed `drop_conn_at_epoch` epochs — what a mid-epoch network
  /// partition looks like. Unlike die_at_epoch the process stays alive, so
  /// solve_elastic's rejoin path is the recovery under test: the member
  /// dials back in as a late joiner and inherits walkers at the next
  /// rebalance. 0 = disabled.
  uint64_t drop_conn_at_epoch = 0;
  /// How long to wait for the coordinator's rebalance frame after
  /// reporting an epoch before declaring the world dead.
  double control_timeout_seconds = 120.0;
};

/// Run the world's next hunt. The host opens one for `req` unless it refuses
/// it (unresolvable, not multiwalk, a checkpoint directory on a second hunt,
/// a manifest for another request). A member runs the next hunt the host
/// opens; it reads `req` only if a promotion makes it the host before that.
/// The host returns the merged world report (extras.dist carries the hunt
/// index, the per-member rows, membership counters, and checkpoint
/// provenance); other members return a participation stub that still names
/// the winner.
/// The owned walkers run as one par::fan_out per membership view (not per
/// wave) on ctx.executor (jthreads when null), at most num_threads
/// (default: one per core) at a time; a rebalance that moves walkers stops
/// and restarts it, one that keeps this member's walkers does not.
/// Errors come back in report.error — the call does not throw.
runtime::SolveReport solve_elastic(World& world, const runtime::SolveRequest& req,
                                   const runtime::StrategyContext& ctx,
                                   const ElasticOptions& opts);

/// A member without requests: run every hunt the host opens, one report
/// each, until the host closes the world, a hunt fails, the drain latch is
/// set (the member was retired, or its hunt ended first), or a promotion
/// made this member the host: it finishes the hunt it mirrored and opens no
/// other. A member promoted between hunts has no hunt to finish; its last
/// report is an error that says so.
std::vector<runtime::SolveReport> follow(World& world, const runtime::StrategyContext& ctx,
                                         const ElasticOptions& opts);

}  // namespace cas::dist
