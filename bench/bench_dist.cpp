// Distributed scaling bench — a world under a fixed total walker budget
// split across 1/2/4 ranks (strong scaling, paper Sec. V framing:
// parallelism buys latency, the machine-time floor stays).
//
// Every rung hosts a full loopback world — rank-0 coordinator plus one
// RankComm endpoint per rank, each rank on its own thread — and pushes the
// SAME multiwalk request ladder through dist::solve_elastic, one hunt per
// request on the one world, so the measured path is exactly what
// multi-process cas_run --ranks=N executes: TCP frames, JSON codec, the
// opening rebalance, the wave reports, the solved/leader frames. (Threads
// stand in for processes; the wire path is identical, only address-space
// isolation differs, and that costs nothing on loopback.)
//
// Emits BENCH_dist.json with a "dist" block (ladder of per-rung wall-time
// summaries, solve rates within the budget, frames sent and waves run)
// guarded by check_bench.py: solve rates must hold, multi-rank rungs must
// actually have communicated, and splitting must not multiply wall time
// beyond a generous overhead bound.
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/summary.hpp"
#include "dist/elastic.hpp"
#include "dist/world.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/provenance.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace cas;

namespace {

struct Rung {
  int ranks = 1;
  int reps = 0;
  int solved = 0;
  analysis::Summary wall;
  // Cumulative rank-0 comm counters over the whole rung (the world is
  // long-lived: one hunt per request), and the waves its hunts ran.
  int64_t frames_sent = 0;
  int64_t bytes_sent = 0;
  int64_t waves = 0;
};

/// One world of `ranks` ranks (thread-per-rank, loopback sockets), the
/// whole request ladder run back to back on it. Returns rank 0's reports.
std::vector<runtime::SolveReport> run_rung(int ranks,
                                           const std::vector<runtime::SolveRequest>& reqs) {
  std::vector<runtime::SolveReport> root_reports;
  std::promise<uint16_t> port_promise;
  std::shared_future<uint16_t> port = port_promise.get_future().share();
  std::vector<std::jthread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      dist::WorldOptions wo;
      wo.rank = r;
      wo.ranks = ranks;
      std::optional<dist::World> world;
      if (r == 0) {
        world.emplace(wo, [&](uint16_t p) { port_promise.set_value(p); });
      } else {
        wo.port = port.get();
        world.emplace(wo);
      }
      const runtime::StrategyContext ctx;
      const dist::ElasticOptions eo;
      for (const auto& req : reqs) {
        runtime::SolveReport rep = dist::solve_elastic(*world, req, ctx, eo);
        if (r == 0) root_reports.push_back(std::move(rep));
      }
      world->finalize();
    });
  }
  threads.clear();  // join
  return root_reports;
}

Rung measure(int ranks, int n, int walkers, int reps, double budget_seconds, uint64_t seed) {
  std::vector<runtime::SolveRequest> reqs;
  for (int rep = 0; rep < reps; ++rep) {
    runtime::SolveRequest req;
    req.problem = "costas";
    req.size = n;
    req.strategy = "multiwalk";
    req.walkers = walkers;
    req.seed = seed + static_cast<uint64_t>(rep);
    req.timeout_seconds = budget_seconds;
    reqs.push_back(std::move(req));
  }
  const auto reports = run_rung(ranks, reqs);

  Rung rung;
  rung.ranks = ranks;
  rung.reps = reps;
  std::vector<double> walls;
  for (const auto& rep : reports) {
    if (!rep.error.empty()) {
      std::fprintf(stderr, "bench_dist: ranks=%d request failed: %s\n", ranks,
                   rep.error.c_str());
      continue;
    }
    if (rep.solved) ++rung.solved;
    walls.push_back(rep.wall_seconds);
    const util::Json* d = rep.extras.find("dist");
    if (d == nullptr) continue;
    rung.waves += d->at("epochs").as_int();
    const util::Json& comm = d->at("comm");  // cumulative: the last report's counters win
    rung.frames_sent = comm.at("frames_sent").as_int();
    rung.bytes_sent = comm.at("bytes_sent").as_int();
  }
  if (!walls.empty()) rung.wall = analysis::summarize(walls);
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "bench_dist — strong scaling of a distributed world: a fixed total "
      "walker budget split across 1/2/4 loopback ranks.");
  flags.add_int("n", 16, "Costas instance size");
  flags.add_int("walkers", 8, "TOTAL walkers, split across the ranks of each rung");
  flags.add_int("reps", 10, "requests per rung");
  flags.add_int("seed", 16012, "base seed (rep r uses seed + r)");
  flags.add_double("budget", 20.0, "per-request wall budget in seconds "
                                   "(unsolved past it counts against the solve rate)");
  flags.add_string("json_out", "BENCH_dist.json", "output artifact path");
  if (!flags.parse(argc, argv)) return 0;

  const int n = static_cast<int>(flags.get_int("n"));
  const int walkers = static_cast<int>(flags.get_int("walkers"));
  const int reps = static_cast<int>(flags.get_int("reps"));
  const double budget = flags.get_double("budget");
  const auto seed = static_cast<uint64_t>(flags.get_int("seed"));

  std::printf("bench_dist: CAP n=%d, %d total walkers, %d reps/rung, multiwalk\n", n, walkers,
              reps);

  util::Table table(util::strf("fixed %d walkers split across ranks", walkers));
  table.header({"ranks", "solved", "mean wall (s)", "med wall (s)", "frames", "KiB", "waves"});

  util::Json ladder = util::Json::array();
  std::vector<Rung> rungs;
  for (const int ranks : {1, 2, 4}) {
    const Rung rung = measure(ranks, n, walkers, reps, budget, seed);
    rungs.push_back(rung);
    table.row({std::to_string(ranks), util::strf("%d/%d", rung.solved, rung.reps),
               util::strf("%.3f", rung.wall.mean), util::strf("%.3f", rung.wall.median),
               std::to_string(rung.frames_sent),
               util::strf("%.1f", static_cast<double>(rung.bytes_sent) / 1024.0),
               std::to_string(rung.waves)});

    util::Json row = util::Json::object();
    row["ranks"] = rung.ranks;
    row["reps"] = rung.reps;
    row["solved"] = rung.solved;
    row["solve_rate"] = rung.reps > 0 ? static_cast<double>(rung.solved) / rung.reps : 0.0;
    row["mean_wall_seconds"] = rung.wall.mean;
    row["median_wall_seconds"] = rung.wall.median;
    row["max_wall_seconds"] = rung.wall.max;
    row["frames_sent"] = rung.frames_sent;
    row["bytes_sent"] = rung.bytes_sent;
    row["waves"] = rung.waves;
    ladder.push_back(std::move(row));
  }

  std::printf("%s\n", table.to_text().c_str());
  std::printf(
      "Reading: total walkers are fixed, so more ranks means FEWER walkers per\n"
      "process plus real communication — wall time should stay in the same\n"
      "regime (the min-of-k race is unchanged), and the comm columns price what\n"
      "the distribution actually cost.\n");

  util::Json doc = util::Json::object();
  doc["bench"] = "bench_dist";
  doc["provenance"] = util::build_provenance();
  util::Json dist = util::Json::object();
  dist["problem"] = "costas";
  dist["size"] = n;
  dist["total_walkers"] = walkers;
  dist["reps"] = reps;
  dist["budget_seconds"] = budget;
  dist["ladder"] = std::move(ladder);
  doc["dist"] = std::move(dist);

  const std::string path = flags.get_string("json_out");
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
