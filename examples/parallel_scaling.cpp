// parallel_scaling — the paper's experiment at YOUR machine's scale, with
// REAL threads (no simulation): run independent multi-walk at 1, 2, 4, ...
// walkers and watch expected time-to-solution shrink.
//
// This is the ground-truth companion to the cluster simulator: on a
// many-core host it directly reproduces the left edge of Table III; the
// simulator extrapolates the rest via order statistics (sim/cluster_sim.hpp).
//
// Built on the solver runtime: each cell is a declarative "multiwalk"
// SolveRequest, so this driver is a thin scenario loop over runtime::solve.
//
//   $ ./parallel_scaling --n 16 --reps 10 --max-walkers 8
#include <cstdio>
#include <vector>

#include "analysis/summary.hpp"
#include "runtime/runtime.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace cas;

int main(int argc, char** argv) {
  util::Flags flags(
      "parallel_scaling — real-thread independent multi-walk scaling on this host.");
  flags.add_int("n", 15, "CAP instance size");
  flags.add_int("reps", 10, "repetitions per walker count");
  flags.add_int("max-walkers", 8, "largest multi-walk width (powers of two up to this)");
  flags.add_int("seed", 2012, "master seed");
  if (!flags.parse(argc, argv)) return 0;

  const int n = static_cast<int>(flags.get_int("n"));
  const int reps = static_cast<int>(flags.get_int("reps"));
  const int max_walkers = static_cast<int>(flags.get_int("max-walkers"));
  const auto seed = static_cast<uint64_t>(flags.get_int("seed"));

  std::printf("CAP n=%d, %d repetitions per point, hardware threads: %u\n\n", n, reps,
              std::thread::hardware_concurrency());
  std::printf("Note: beyond the physical core count walkers time-share, so wall-clock\n"
              "gains flatten — the simulator (bench_table3_ha8000) models what a\n"
              "machine with genuinely more cores would do.\n\n");

  runtime::SolveRequest base;
  base.problem = "costas";
  base.size = n;
  base.strategy = "multiwalk";

  util::Table table("Real-thread multi-walk (wall seconds)");
  table.header({"walkers", "avg", "med", "min", "max", "speedup", "winner iters (avg)"});
  double ref = -1;
  for (int w = 1; w <= max_walkers; w *= 2) {
    std::vector<double> times;
    double winner_iters = 0;
    for (int r = 0; r < reps; ++r) {
      runtime::SolveRequest req = base;
      req.walkers = w;
      req.seed = seed + static_cast<uint64_t>(r) * 7919 + static_cast<uint64_t>(w);
      const auto report = runtime::solve(req);
      if (!report.error.empty() || !report.solved) {
        std::fprintf(stderr, "unsolved run (should not happen): %s\n", report.error.c_str());
        return 1;
      }
      times.push_back(report.wall_seconds);
      winner_iters += static_cast<double>(report.winner_stats.iterations);
    }
    const auto s = analysis::summarize(times);
    if (ref < 0) ref = s.mean;
    table.row({util::strf("%d", w), util::strf("%.3f", s.mean), util::strf("%.3f", s.median),
               util::strf("%.3f", s.min), util::strf("%.3f", s.max),
               util::strf("%.2fx", ref / s.mean),
               util::with_commas(static_cast<long long>(winner_iters / reps))});
  }
  std::printf("%s\n", table.to_text().c_str());
  return 0;
}
