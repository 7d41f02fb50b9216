#include "dist/runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/chaotic_seed.hpp"
#include "core/stats.hpp"
#include "dist/rank_comm.hpp"
#include "par/cooperative.hpp"
#include "par/multiwalk.hpp"
#include "runtime/knobs.hpp"
#include "runtime/problems.hpp"
#include "util/timer.hpp"

namespace cas::dist {

namespace {

constexpr int64_t kNoWall = std::numeric_limits<int64_t>::max();

// --- offer / decision codecs ------------------------------------------------
// Layout: fixed header fields, then the (possibly empty) configuration.

std::vector<int64_t> pack_tail(std::vector<int64_t> head, const std::vector<int64_t>& config) {
  head.insert(head.end(), config.begin(), config.end());
  return head;
}

// --- RunStats over the wire -------------------------------------------------
// The winner rank ships its FULL RunStats to everyone (the "winner blob"),
// so rank 0's merged report carries the same winner breakdown an in-process
// run would. Seconds travel as microseconds (integer payloads). "Rank 0" is
// literal here: fixed-rank worlds have no standby coordinator, so member 0
// is both the comm host and the report writer for the whole run (elastic
// worlds migrate that role on promotion; see elastic.cpp).

constexpr size_t kStatsHeader = 15;

std::vector<int64_t> runstats_to_payload(const core::RunStats& st) {
  std::vector<int64_t> p;
  p.reserve(kStatsHeader + st.solution.size());
  p.push_back(st.solved ? 1 : 0);
  p.push_back(st.final_cost);
  p.push_back(static_cast<int64_t>(st.iterations));
  p.push_back(static_cast<int64_t>(st.swaps));
  p.push_back(static_cast<int64_t>(st.local_minima));
  p.push_back(static_cast<int64_t>(st.plateau_moves));
  p.push_back(static_cast<int64_t>(st.plateau_refused));
  p.push_back(static_cast<int64_t>(st.resets));
  p.push_back(static_cast<int64_t>(st.custom_reset_escapes));
  p.push_back(static_cast<int64_t>(st.restarts));
  p.push_back(static_cast<int64_t>(st.move_evaluations));
  p.push_back(static_cast<int64_t>(st.reset_candidates));
  p.push_back(static_cast<int64_t>(st.reset_escape_chunks));
  p.push_back(static_cast<int64_t>(st.reset_seconds * 1e6));
  p.push_back(static_cast<int64_t>(st.wall_seconds * 1e6));
  for (int v : st.solution) p.push_back(v);
  return p;
}

core::RunStats runstats_from_payload(const std::vector<int64_t>& p) {
  if (p.size() < kStatsHeader) throw std::invalid_argument("winner blob: short payload");
  core::RunStats st;
  st.solved = p[0] != 0;
  st.final_cost = p[1];
  st.iterations = static_cast<uint64_t>(p[2]);
  st.swaps = static_cast<uint64_t>(p[3]);
  st.local_minima = static_cast<uint64_t>(p[4]);
  st.plateau_moves = static_cast<uint64_t>(p[5]);
  st.plateau_refused = static_cast<uint64_t>(p[6]);
  st.resets = static_cast<uint64_t>(p[7]);
  st.custom_reset_escapes = static_cast<uint64_t>(p[8]);
  st.restarts = static_cast<uint64_t>(p[9]);
  st.move_evaluations = static_cast<uint64_t>(p[10]);
  st.reset_candidates = static_cast<uint64_t>(p[11]);
  st.reset_escape_chunks = static_cast<uint64_t>(p[12]);
  st.reset_seconds = static_cast<double>(p[13]) / 1e6;
  st.wall_seconds = static_cast<double>(p[14]) / 1e6;
  st.solution.reserve(p.size() - kStatsHeader);
  for (size_t k = kStatsHeader; k < p.size(); ++k) st.solution.push_back(static_cast<int>(p[k]));
  return st;
}

/// Best-effort SOLUTION_FOUND broadcast: called from walker/background
/// threads, where a CommError must not unwind through the runner's thread
/// pool — a dead communicator already stops everyone via remote_stop.
void announce_solution(RankComm& comm) {
  try {
    comm.broadcast_others(par::Message{par::kTagSolutionFound, comm.rank(), {}});
  } catch (const CommError&) {
  }
}

struct LocalOutcome {
  par::MultiWalkResult res;
  std::string error;  // local walk failure (the epilogue still runs)
};

/// This rank's multi-walk options: the request's thread cap and deadline,
/// the caller's executor, and the remote-stop latch a SOLUTION_FOUND from
/// another rank flips.
par::MultiWalkOptions local_options(RankComm& comm, const runtime::SolveRequest& req,
                                    const runtime::StrategyContext& ctx) {
  par::MultiWalkOptions opts;
  opts.num_threads = req.num_threads;
  opts.executor = ctx.executor;
  opts.timeout_seconds = req.timeout_seconds;
  opts.external_stop = &comm.remote_stop();
  return opts;
}

/// The multiwalk strategy: this rank runs its share through run_multiwalk;
/// the first locally solved walker announces to the world.
LocalOutcome run_local_multiwalk(RankComm& comm, const runtime::SolveRequest& req, int share,
                                 uint64_t rank_seed, const runtime::StrategyContext& ctx) {
  LocalOutcome out;
  const auto& entry = runtime::entry_of(req);
  try {
    const auto walker = entry.make_walker(req);
    std::atomic<bool> announced{false};
    out.res = par::run_multiwalk(
        share, rank_seed,
        [&](int id, uint64_t seed, core::StopToken stop) {
          core::RunStats st = walker(id, seed, stop);
          if (st.solved && !announced.exchange(true)) announce_solution(comm);
          return st;
        },
        local_options(comm, req, ctx));
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// The cooperative strategy: the local blackboard walk runs in a background
/// thread while this (main) thread drives cooperation rounds — gather every
/// rank's blackboard best, decide globally, offer the winning configuration
/// back into the local board. The round decision is the shared
/// decide_round(), so both communicator backends take identical actions
/// from identical payloads.
LocalOutcome run_local_cooperative(RankComm& comm, const runtime::SolveRequest& req, int share,
                                   uint64_t rank_seed, const runtime::StrategyContext& ctx,
                                   double adopt, double round_seconds, par::Blackboard& board,
                                   int64_t& rounds_out) {
  LocalOutcome out;
  const auto& entry = runtime::entry_of(req);
  if (entry.run_cooperative == nullptr) {
    out.error = "problem '" + req.problem + "' cannot share configurations";
    return out;
  }
  runtime::SolveRequest local = req;
  local.walkers = share;
  local.seed = rank_seed;
  const par::MultiWalkOptions opts = local_options(comm, req, ctx);

  std::atomic<bool> local_done{false};
  std::atomic<bool> local_solved{false};
  std::thread walk([&] {
    try {
      out.res = entry.run_cooperative(local, adopt, opts, &board);
      if (out.res.solved) {
        local_solved.store(true, std::memory_order_release);
        announce_solution(comm);
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    local_done.store(true, std::memory_order_release);
  });

  try {
    while (true) {
      RankOffer mine;
      mine.done = local_done.load(std::memory_order_acquire);
      mine.solved = local_solved.load(std::memory_order_acquire);
      if (const auto best = board.best()) {
        mine.best_cost = best->first;
        mine.config.assign(best->second.begin(), best->second.end());
      }
      const RoundDecision dec = cooperation_round(comm, mine);
      ++rounds_out;
      if (dec.any_solved) comm.remote_stop().store(true, std::memory_order_release);
      if (dec.best_rank >= 0 && dec.best_rank != comm.rank() && !dec.config.empty()) {
        std::vector<int> config(dec.config.begin(), dec.config.end());
        board.offer(dec.best_cost, config);
      }
      if (dec.all_done) break;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(round_seconds * 1e6)));
    }
  } catch (...) {
    // Communicator failure mid-round: stop the local walk, join, rethrow so
    // the caller reports the CommError.
    comm.remote_stop().store(true, std::memory_order_release);
    walk.join();
    throw;
  }
  walk.join();
  return out;
}

}  // namespace

std::vector<int64_t> RankOffer::to_payload() const {
  return pack_tail({done ? 1 : 0, solved ? 1 : 0, best_cost}, config);
}

RankOffer RankOffer::from_payload(const std::vector<int64_t>& p) {
  if (p.size() < 3) throw std::invalid_argument("RankOffer: short payload");
  RankOffer o;
  o.done = p[0] != 0;
  o.solved = p[1] != 0;
  o.best_cost = p[2];
  o.config.assign(p.begin() + 3, p.end());
  return o;
}

std::vector<int64_t> RoundDecision::to_payload() const {
  return pack_tail({any_solved ? 1 : 0, all_done ? 1 : 0, best_rank, best_cost}, config);
}

RoundDecision RoundDecision::from_payload(const std::vector<int64_t>& p) {
  if (p.size() < 4) throw std::invalid_argument("RoundDecision: short payload");
  RoundDecision d;
  d.any_solved = p[0] != 0;
  d.all_done = p[1] != 0;
  d.best_rank = static_cast<int>(p[2]);
  d.best_cost = p[3];
  d.config.assign(p.begin() + 4, p.end());
  return d;
}

RoundDecision decide_round(const std::vector<RankOffer>& offers) {
  RoundDecision dec;
  dec.all_done = !offers.empty();
  for (size_t r = 0; r < offers.size(); ++r) {
    const RankOffer& o = offers[r];
    dec.any_solved = dec.any_solved || o.solved;
    dec.all_done = dec.all_done && o.done;
    if (o.best_cost >= 0 && !o.config.empty() &&
        (dec.best_rank < 0 || o.best_cost < dec.best_cost)) {
      dec.best_rank = static_cast<int>(r);
      dec.best_cost = o.best_cost;
      dec.config = o.config;
    }
  }
  return dec;
}

runtime::SolveReport solve_distributed(World& world, const runtime::SolveRequest& req,
                                       const runtime::StrategyContext& ctx) {
  runtime::SolveReport report;
  report.request = req;
  RankComm& comm = world.comm();
  const int R = world.size();
  const int rank = world.rank();
  util::WallTimer timer;

  try {
    // --- deterministic validation, identical on every rank, BEFORE any
    // collective: a rank that fails here fails everywhere, so nobody is
    // left waiting inside a collective for a rank that bailed early.
    runtime::SolveRequest resolved = runtime::resolve(req);
    const std::string& strategy = resolved.strategy;
    const bool is_cooperative = strategy == "cooperative";
    if (strategy != "multiwalk" && !is_cooperative)
      throw std::invalid_argument("strategy '" + strategy +
                                  "' is not distributable (use multiwalk or cooperative)");
    if (resolved.walkers < R)
      throw std::invalid_argument("distributed run needs walkers >= ranks (" +
                                  std::to_string(resolved.walkers) + " < " +
                                  std::to_string(R) + ")");

    double adopt = 0.25;
    double round_seconds = 0.05;
    runtime::KnobReader knobs(resolved.strategy_config, "strategy '" + strategy + "'");
    if (is_cooperative) {
      knobs.read("adopt_probability", adopt);
      knobs.read("round_seconds", round_seconds);
      if (round_seconds <= 0)
        throw std::invalid_argument("cooperative: round_seconds must be > 0");
    }
    knobs.finish();

    // --- stochastic requests: ONE seed for the whole world. Rank 0 draws
    // and broadcasts it, so every rank derives the same per-rank seeds and
    // the echoed request is replayable.
    if (resolved.seed == 0) {
      std::vector<int64_t> wire(1);
      if (rank == 0) wire[0] = std::bit_cast<int64_t>(runtime::draw_seed());
      wire = par::collective_broadcast(comm, comm.next_seq(), 0, std::move(wire));
      resolved.seed = std::bit_cast<uint64_t>(wire[0]);
    }
    report.request = resolved;

    const int share = share_of(resolved.walkers, R, rank);
    const uint64_t rank_seed =
        core::ChaoticSeedSequence::generate(resolved.seed, static_cast<size_t>(R))[rank];

    // --- the local walk ---
    par::Blackboard board;
    int64_t rounds = 0;
    LocalOutcome local =
        is_cooperative
            ? run_local_cooperative(comm, resolved, share, rank_seed, ctx, adopt, round_seconds,
                                    board, rounds)
            : run_local_multiwalk(comm, resolved, share, rank_seed, ctx);

    // --- epilogue on the communicator, same fixed order on every rank ---
    // Barrier first: after it, every rank's walk has finished, so every
    // SOLUTION_FOUND broadcast was routed before the barrier released
    // (frames are FIFO per connection through the coordinator) and the
    // mailbox holds nothing but strays for begin_epoch() to drain.
    par::collective_barrier(comm, comm.next_seq());

    // Who won: the solved rank with the earliest local wall-clock, ties to
    // the lowest rank (deterministic given the exchanged payloads).
    const bool local_solved = local.res.solved;
    const int64_t my_wall =
        local_solved ? static_cast<int64_t>(local.res.wall_seconds * 1e6) : kNoWall;
    const par::MinLoc win = par::allreduce_minloc(comm, my_wall);
    const bool solved = win.value != kNoWall;
    const int winner_rank = solved ? win.rank : -1;

    // The winner ships its full RunStats — prefixed with its LOCAL winner
    // index, so every rank (not just rank 0) can name the same global
    // walker id — and rank 0's report carries the same winner breakdown an
    // in-process run would.
    core::RunStats winner_stats;
    int64_t winner_local = 0;
    if (solved) {
      std::vector<int64_t> blob;
      if (rank == winner_rank) {
        blob = runstats_to_payload(local.res.winner_stats);
        blob.insert(blob.begin(), static_cast<int64_t>(local.res.winner));
      }
      blob = par::collective_broadcast(comm, comm.next_seq(), winner_rank, std::move(blob));
      if (blob.empty()) throw CommError("winner stats broadcast came back empty");
      winner_local = blob.front();
      winner_stats =
          runstats_from_payload(std::vector<int64_t>(blob.begin() + 1, blob.end()));
    }

    // Per-rank summaries at rank 0 — the report's provenance rows.
    par::RankSummary mine;
    mine.iterations = static_cast<int64_t>(local.res.total_iterations());
    mine.solved = local_solved ? 1 : 0;
    for (const auto& st : local.res.walker_stats)
      if (st.iterations > 0 || st.solved) ++mine.walkers_run;
    mine.final_cost = local_solved ? 0 : -1;
    mine.wall_micros = static_cast<int64_t>(local.res.wall_seconds * 1e6);
    mine.winner_local = local.res.winner;
    const auto summaries = par::gather_summaries(comm, mine);

    // Final barrier: every rank is past every collective of this request,
    // so the epoch boundary (drain stray SOLUTION_FOUND frames, re-arm the
    // remote-stop latch) cannot eat a peer's still-needed frame.
    par::collective_barrier(comm, comm.next_seq());
    comm.begin_epoch();

    // --- merge ---
    report.solved = solved;
    if (solved) {
      // Global walker id: the winner rank's slice offset plus its local
      // index — identical on every rank because both parts travelled
      // through collectives.
      report.winner = offset_of(resolved.walkers, R, winner_rank) +
                      static_cast<int>(winner_local);
      report.winner_stats = winner_stats;
      report.wall_seconds = static_cast<double>(win.value) / 1e6;
    }
    if (rank == 0) {
      int64_t total_iterations = 0;
      int64_t walkers_run = 0;
      int64_t max_wall = 0;
      util::Json per_rank = util::Json::array();
      for (size_t r = 0; r < summaries.size(); ++r) {
        const auto& s = summaries[r];
        total_iterations += s.iterations;
        walkers_run += s.walkers_run;
        max_wall = std::max(max_wall, s.wall_micros);
        util::Json row = util::Json::object();
        row["rank"] = static_cast<int64_t>(r);
        row["walkers"] = static_cast<int64_t>(share_of(resolved.walkers, R, static_cast<int>(r)));
        row["walker_offset"] =
            static_cast<int64_t>(offset_of(resolved.walkers, R, static_cast<int>(r)));
        row["iterations"] = s.iterations;
        row["solved"] = s.solved != 0;
        row["walkers_run"] = s.walkers_run;
        row["wall_seconds"] = static_cast<double>(s.wall_micros) / 1e6;
        row["winner_local"] = s.winner_local;
        per_rank.push_back(std::move(row));
      }
      report.total_iterations = static_cast<uint64_t>(total_iterations);
      report.walkers_run = static_cast<int>(walkers_run);
      if (!solved) report.wall_seconds = static_cast<double>(max_wall) / 1e6;
      const auto& entry = runtime::entry_of(resolved);
      if (solved && entry.check != nullptr) {
        report.checked = true;
        report.check_passed = entry.check(report.winner_stats.solution);
      }
      util::Json extras = util::Json::object();
      if (is_cooperative) {
        extras["blackboard_offers"] = static_cast<int64_t>(board.offers());
        extras["blackboard_improvements"] = static_cast<int64_t>(board.improvements());
      }
      util::Json distj = util::Json::object();
      distj["ranks"] = static_cast<int64_t>(R);
      distj["strategy"] = strategy;
      if (is_cooperative) distj["cooperation_rounds"] = rounds;
      distj["per_rank"] = std::move(per_rank);
      distj["comm"] = world.stats_json();
      extras["dist"] = std::move(distj);
      report.extras = std::move(extras);
    } else {
      // Participation stub: enough for the launcher's logs, not a report.
      report.total_iterations = local.res.total_iterations();
      report.walkers_run = static_cast<int>(mine.walkers_run);
      if (!solved) report.wall_seconds = timer.seconds();
      util::Json extras = util::Json::object();
      util::Json distj = util::Json::object();
      distj["ranks"] = static_cast<int64_t>(R);
      distj["rank"] = static_cast<int64_t>(rank);
      distj["comm"] = comm.stats_json();
      extras["dist"] = std::move(distj);
      report.extras = std::move(extras);
    }
    // A local walk failure surfaces AFTER the epilogue so the world stays
    // in lockstep; the other ranks saw this rank as done-unsolved.
    if (!local.error.empty()) report.error = local.error;
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace cas::dist
