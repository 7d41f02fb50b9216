// Ablation A7 — single-walk vs multiple-walk parallelism (paper Sec. V).
//
// The paper chooses *independent multi-walk* parallelism and reports
// near-linear speedups. The other taxonomy branch — parallelizing the
// neighborhood exploration inside one walk — is measured head to head on
// the same hardware. For the CAP the neighborhood is only n-1 cheap
// incremental evaluations, so per-iteration barrier synchronization
// dominates and single-walk parallelism yields no speedup (often a
// slowdown), while multi-walk over the same threads shows the paper's
// near-linear gain. This is the quantitative justification for the paper's
// design choice.
//
// Both schemes are the runtime's registered strategies ("neighborhood" and
// "multiwalk"); each cell is a SolveRequest differing only in the strategy
// name and thread count. The neighborhood cells run on the baseline's
// seeds: a neighborhood request replays the sequential request's walk, so
// the iteration means must match exactly (the bench exits 1 otherwise) and
// the single-walk speedup measures only the per-iteration cost of the
// parallel scan.
#include <cstdio>

#include "common.hpp"
#include "runtime/runtime.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace cas;
using namespace cas::bench;

namespace {

struct Cell {
  double seconds = 0;       // mean time to solution
  uint64_t iterations = 0;  // summed over the reps
};

Cell run_cell(int n, const std::string& strategy, int walkers, int reps, uint64_t seed) {
  runtime::SolveRequest req;
  req.problem = "costas";
  req.size = n;
  req.strategy = strategy;
  req.walkers = walkers;
  Cell cell;
  for (int r = 0; r < reps; ++r) {
    req.seed = seed + static_cast<uint64_t>(1000 * r);
    const auto report = runtime::solve(req);
    if (!report.error.empty()) {
      std::fprintf(stderr, "error: %s\n", report.error.c_str());
      std::exit(1);
    }
    cell.seconds += report.wall_seconds / reps;
    cell.iterations += report.total_iterations;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "bench_ablation_singlewalk — parallel neighborhood (single-walk) vs independent "
      "multi-walk on the same thread counts.");
  flags.add_bool("full", false, "n = 16, more reps");
  flags.add_int("reps", 0, "override repetitions");
  flags.add_int("seed", 515, "master seed");
  if (!flags.parse(argc, argv)) return 0;

  print_banner("Ablation — single-walk vs multi-walk parallelism (paper Sec. V taxonomy)");

  const bool full = flags.get_bool("full");
  const int n = full ? 16 : 14;
  int reps = full ? 30 : 15;
  if (flags.get_int("reps") > 0) reps = static_cast<int>(flags.get_int("reps"));
  const auto seed = static_cast<uint64_t>(flags.get_int("seed"));

  std::printf("CAP %d, %d runs per cell. Sequential AS is the baseline for both columns.\n\n",
              n, reps);

  const Cell base = run_cell(n, "sequential", 1, reps, seed);
  const auto mean_iters = [reps](const Cell& c) {
    return util::strf("%.1f", static_cast<double>(c.iterations) / reps);
  };

  util::Table table("speedup = sequential mean time / scheme mean time");
  table.header({"threads", "single-walk time", "single-walk iters", "single-walk speedup",
                "multi-walk time", "multi-walk speedup"});
  table.row({"1 (seq)", util::strf("%.4f", base.seconds), mean_iters(base), "1.00",
             util::strf("%.4f", base.seconds), "1.00"});
  bool same_walks = true;
  for (int t : {2, 4}) {
    const Cell sw = run_cell(n, "neighborhood", t, reps, seed);
    const Cell mw = run_cell(n, "multiwalk", t, reps, seed + 13);
    same_walks = same_walks && sw.iterations == base.iterations;
    table.row({util::strf("%d", t), util::strf("%.4f", sw.seconds), mean_iters(sw),
               util::strf("%.2f", base.seconds / sw.seconds), util::strf("%.4f", mw.seconds),
               util::strf("%.2f", base.seconds / mw.seconds)});
  }
  std::printf("%s\n", table.to_text().c_str());
  if (!same_walks) {
    std::fprintf(stderr,
                 "error: the neighborhood cells did not replay the sequential walks "
                 "(mean iterations differ)\n");
    return 1;
  }
  std::printf(
      "Shape check: multi-walk speedup grows with threads (the paper's scheme);\n"
      "single-walk stays near or below 1.0 because the CAP neighborhood (n-1\n"
      "incremental evaluations) is far too fine-grained to amortize a per-\n"
      "iteration barrier — the quantitative reason the paper went multi-walk.\n");
  return 0;
}
