#include "dist/runner.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chaotic_seed.hpp"
#include "dist/rank_comm.hpp"
#include "par/multiwalk.hpp"
#include "runtime/knobs.hpp"
#include "runtime/problems.hpp"
#include "util/timer.hpp"

namespace cas::dist {

namespace {

// --- RunStats over the wire -------------------------------------------------
// A solved rank's row carries its local winner's FULL RunStats, and rank 0
// broadcasts the global winner's, so every rank's report carries the same
// winner breakdown an in-process run would. Seconds travel as microseconds
// (integer payloads). "Rank 0" is literal here: fixed-rank worlds have no
// standby coordinator, so member 0 is both the comm host and the report
// writer for the whole run (elastic worlds migrate that role on promotion;
// see elastic.cpp).

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
  if (p.size() < kStatsHeader) throw std::invalid_argument("winner stats: short payload");
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

constexpr size_t kRowHeader = 4;  // RankRow fields ahead of the winner stats

struct LocalOutcome {
  par::MultiWalkResult res;
  std::string error;  // local walk failure (the epilogue still runs)
};

/// This rank's share of the walkers through run_multiwalk, under the
/// request's thread cap and deadline, on the caller's executor, stopped by
/// a peer's SOLUTION_FOUND; the first locally solved walker announces.
LocalOutcome run_local_multiwalk(RankComm& comm, const runtime::SolveRequest& req, int share,
                                 uint64_t rank_seed, const runtime::StrategyContext& ctx) {
  LocalOutcome out;
  par::MultiWalkOptions opts;
  opts.num_threads = req.num_threads;
  opts.executor = ctx.executor;
  opts.timeout_seconds = req.timeout_seconds;
  opts.external_stop = &comm.remote_stop();
  try {
    const auto walker = runtime::entry_of(req).make_walker(req);
    std::atomic<bool> announced{false};
    out.res = par::run_multiwalk(
        share, rank_seed,
        [&](int id, uint64_t seed, core::StopToken stop) {
          core::RunStats st = walker(id, seed, stop);
          if (st.solved && !announced.exchange(true)) comm.announce_solution();
          return st;
        },
        opts);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

std::vector<int64_t> RankRow::to_payload() const {
  std::vector<int64_t> p{wall_micros, iterations, walkers_run, winner_local};
  if (solved()) {
    const std::vector<int64_t> stats = runstats_to_payload(winner_stats);
    p.insert(p.end(), stats.begin(), stats.end());
  }
  return p;
}

RankRow RankRow::from_payload(const std::vector<int64_t>& p) {
  if (p.size() < kRowHeader) throw std::invalid_argument("rank row: short payload");
  RankRow row;
  row.wall_micros = p[0];
  row.iterations = p[1];
  row.walkers_run = p[2];
  row.winner_local = p[3];
  if (row.solved() != (p.size() > kRowHeader))
    throw std::invalid_argument("rank row: winner stats do not match the solved flag");
  if (row.solved())
    row.winner_stats = runstats_from_payload({p.begin() + kRowHeader, p.end()});
  return row;
}

int pick_winner(const std::vector<RankRow>& rows) {
  int winner = -1;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].solved()) continue;
    if (winner < 0 || rows[r].wall_micros < rows[static_cast<size_t>(winner)].wall_micros)
      winner = static_cast<int>(r);
  }
  return winner;
}

runtime::SolveReport solve_distributed(World& world, const runtime::SolveRequest& req,
                                       const runtime::StrategyContext& ctx) {
  runtime::SolveReport report;
  report.request = req;
  RankComm& comm = world.comm();
  const int R = world.size();
  const int rank = world.rank();
  util::WallTimer timer;
  // Every rank enters the request, even one that fails validation below,
  // so the request index stamped on SOLUTION_FOUND agrees across the world.
  comm.begin_request();

  try {
    // --- deterministic validation, identical on every rank, BEFORE any
    // collective: a rank that fails here fails everywhere, so nobody is
    // left waiting inside a collective for a rank that bailed early.
    runtime::SolveRequest resolved = runtime::resolve(req);
    if (resolved.strategy != "multiwalk")
      throw std::invalid_argument("strategy '" + resolved.strategy +
                                  "' is not distributable (use multiwalk)");
    if (resolved.walkers < R)
      throw std::invalid_argument("distributed run needs walkers >= ranks (" +
                                  std::to_string(resolved.walkers) + " < " +
                                  std::to_string(R) + ")");
    runtime::KnobReader(resolved.strategy_config, "strategy 'multiwalk'").finish();

    // --- stochastic requests: ONE seed for the whole world. Rank 0 draws
    // and broadcasts it, so every rank derives the same per-rank seeds and
    // the echoed request is replayable.
    if (resolved.seed == 0) {
      std::vector<int64_t> wire(1);
      if (rank == 0) wire[0] = std::bit_cast<int64_t>(runtime::draw_seed());
      wire = comm.broadcast(std::move(wire));
      resolved.seed = std::bit_cast<uint64_t>(wire.at(0));
    }
    report.request = resolved;

    const int share = share_of(resolved.walkers, R, rank);
    const uint64_t rank_seed =
        core::ChaoticSeedSequence::generate(resolved.seed, static_cast<size_t>(R))[rank];
    const LocalOutcome local = run_local_multiwalk(comm, resolved, share, rank_seed, ctx);

    // --- epilogue: every rank's row to rank 0, rank 0's decision to all.
    // The gather completes only once every rank's walk has finished.
    RankRow mine;
    if (local.res.solved) {
      mine.wall_micros = static_cast<int64_t>(local.res.wall_seconds * 1e6);
      mine.winner_local = local.res.winner;
      mine.winner_stats = local.res.winner_stats;
    }
    mine.iterations = static_cast<int64_t>(local.res.total_iterations());
    for (const auto& st : local.res.walker_stats)
      if (st.iterations > 0 || st.solved) ++mine.walkers_run;
    std::vector<RankRow> rows;
    std::vector<int64_t> decision;  // [winner rank, local index, wall µs, stats...] or [-1]
    for (const auto& payload : comm.gather(mine.to_payload()))
      rows.push_back(RankRow::from_payload(payload));
    if (rank == 0) {
      const int w = pick_winner(rows);
      decision = {w};
      if (w >= 0) {
        const RankRow& win = rows[static_cast<size_t>(w)];
        decision.push_back(win.winner_local);
        decision.push_back(win.wall_micros);
        const std::vector<int64_t> stats = runstats_to_payload(win.winner_stats);
        decision.insert(decision.end(), stats.begin(), stats.end());
      }
    }
    decision = comm.broadcast(std::move(decision));
    const int64_t winner_rank = decision.empty() ? -2 : decision[0];
    if (winner_rank < -1 || winner_rank >= R || (winner_rank >= 0 && decision.size() < 3))
      throw CommError("solve_distributed: malformed winner decision");

    // --- merge ---
    report.solved = winner_rank >= 0;
    if (report.solved) {
      // Global walker id: the winner rank's slice offset plus its local
      // index — identical on every rank because both came from rank 0.
      report.winner = offset_of(resolved.walkers, R, static_cast<int>(winner_rank)) +
                      static_cast<int>(decision[1]);
      report.wall_seconds = static_cast<double>(decision[2]) / 1e6;
      report.winner_stats = runstats_from_payload({decision.begin() + 3, decision.end()});
    } else {
      report.wall_seconds = timer.seconds();
    }
    util::Json distj = util::Json::object();
    distj["ranks"] = static_cast<int64_t>(R);
    if (rank == 0) {
      int64_t total_iterations = 0;
      int64_t walkers_run = 0;
      util::Json per_rank = util::Json::array();
      for (size_t r = 0; r < rows.size(); ++r) {
        const RankRow& row = rows[r];
        total_iterations += row.iterations;
        walkers_run += row.walkers_run;
        util::Json j = util::Json::object();
        j["rank"] = static_cast<int64_t>(r);
        j["walkers"] = static_cast<int64_t>(share_of(resolved.walkers, R, static_cast<int>(r)));
        j["walker_offset"] =
            static_cast<int64_t>(offset_of(resolved.walkers, R, static_cast<int>(r)));
        j["iterations"] = row.iterations;
        j["solved"] = row.solved();
        j["walkers_run"] = row.walkers_run;
        j["winner_local"] = row.winner_local;
        if (row.solved()) j["wall_seconds"] = static_cast<double>(row.wall_micros) / 1e6;
        per_rank.push_back(std::move(j));
      }
      report.total_iterations = static_cast<uint64_t>(total_iterations);
      report.walkers_run = static_cast<int>(walkers_run);
      const auto& entry = runtime::entry_of(resolved);
      if (report.solved && entry.check != nullptr) {
        report.checked = true;
        report.check_passed = entry.check(report.winner_stats.solution);
      }
      distj["strategy"] = resolved.strategy;
      distj["per_rank"] = std::move(per_rank);
      distj["comm"] = world.stats_json();
    } else {
      // Participation stub: enough for the launcher's logs, not a report.
      report.total_iterations = local.res.total_iterations();
      report.walkers_run = static_cast<int>(mine.walkers_run);
      distj["rank"] = static_cast<int64_t>(rank);
      distj["comm"] = comm.stats_json();
    }
    report.extras = util::Json::object();
    report.extras["dist"] = std::move(distj);
    // A local walk failure surfaces AFTER the epilogue so the world stays
    // in lockstep; the other ranks saw this rank as done-unsolved.
    if (!local.error.empty()) report.error = local.error;
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace cas::dist
