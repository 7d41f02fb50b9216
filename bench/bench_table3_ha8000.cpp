// Experiment E3 — Table III of the paper: CAP execution times on the
// HA8000 supercomputer, 1..256 cores.
//
// Substitution (sim/cluster_sim.hpp): independent multi-walk wall-clock time on k
// cores equals the minimum of k i.i.d. sequential run times, so the table
// is regenerated by (1) recording a bank of real sequential run lengths on
// this machine, (2) resampling min-of-k, (3) converting iterations to
// seconds with the HA8000 platform profile calibrated from the paper's own
// 1-core column. A real-thread multi-walk run validates the mechanism.
#include <cstdio>

#include "common.hpp"
#include "par/multiwalk.hpp"
#include "parallel_table.hpp"
#include "util/flags.hpp"

using namespace cas;
using namespace cas::bench;

int main(int argc, char** argv) {
  util::Flags flags("bench_table3_ha8000 — reproduce Table III (HA8000, 1..256 cores).");
  flags.add_bool("full", false, "paper sizes n=18..20 with 100-sample banks (hours)");
  flags.add_int("samples", 0, "override bank samples per size");
  flags.add_int("runs", 50, "simulated executions per cell (paper: 50)");
  flags.add_int("seed", 20120521, "master seed");
  flags.add_bool("no-cache", false, "ignore bank caches");
  flags.add_bool("skip-validation", false, "skip the real-thread multiwalk validation");
  if (!flags.parse(argc, argv)) return 0;

  print_banner("Table III — execution times on HA8000 (simulated; see src/sim/cluster_sim.hpp)");

  ParallelBenchPlan plan;
  plan.core_counts = {1, 32, 64, 128, 256};
  plan.runs_per_cell = static_cast<int>(flags.get_int("runs"));
  plan.seed = static_cast<uint64_t>(flags.get_int("seed"));
  plan.use_cache = !flags.get_bool("no-cache");
  if (flags.get_bool("full")) {
    plan.sizes = {18, 19, 20};
    plan.bank_samples = 100;
  } else {
    plan.sizes = {15, 16, 17};
    plan.bank_samples = 48;
  }
  if (flags.get_int("samples") > 0)
    plan.bank_samples = static_cast<int>(flags.get_int("samples"));

  std::vector<sim::SampleBank> banks;
  for (int n : plan.sizes) banks.push_back(get_bank(n, plan));
  std::printf("\n");

  print_simulated_table(
      util::strf("Simulated execution times (s) on %s [%s profile, %.1fM cellops/s]",
                 sim::ha8000().name.c_str(), sim::ha8000().cpu.c_str(),
                 sim::ha8000().cellops_per_second / 1e6),
      sim::ha8000(), banks, plan);
  print_doubling_summary(sim::ha8000(), banks, plan);
  print_paper_table("Paper Table III (HA8000, 50 executions per cell)", paper_table3_ha8000(),
                    plan.core_counts);

  if (!flags.get_bool("skip-validation")) {
    // Mechanism validation: REAL threads on this host, walkers == 4,
    // oversubscribed onto the available cores; first-win semantics.
    const int n = plan.sizes.front();
    std::printf("Real-thread multi-walk validation (n=%d, 4 walkers on this host):\n", n);
    for (int trial = 0; trial < 3; ++trial) {
      auto walker = [n](int, uint64_t seed, core::StopToken stop) {
        costas::CostasProblem problem(n);
        core::AdaptiveSearch<costas::CostasProblem> engine(problem,
                                                           costas::recommended_config(n, seed));
        return engine.solve(stop);
      };
      const auto res =
          par::run_multiwalk(4, plan.seed + static_cast<uint64_t>(trial), walker);
      std::printf("  trial %d: winner walker %d in %.3f s (winning walk: %llu iterations)\n",
                  trial, res.winner, res.wall_seconds,
                  static_cast<unsigned long long>(res.winner_stats.iterations));
    }
    std::printf("\n");
  }

  std::printf("Shape checks (paper Sec. V-B): avg time shrinks ~linearly with cores;\n"
              "median < average everywhere; the max/min spread tightens as cores grow.\n");
  return 0;
}
