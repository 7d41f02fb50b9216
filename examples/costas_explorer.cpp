// costas_explorer — the command-line workbench for this library.
//
// Solve a CAP instance with any engine (sequential AS, parallel multi-walk
// AS, Dialectic Search, hill climbing), print the array, its grid and
// difference triangle, verify it with the independent checker, or generate
// arrays with the algebraic constructions.
//
// Examples:
//   costas_explorer --n 18                          # sequential AS
//   costas_explorer --n 20 --walkers 8              # parallel multi-walk
//   costas_explorer --n 17 --engine ds              # Dialectic Search
//   costas_explorer --n 22 --construct              # algebraic construction
//   costas_explorer --n 16 --seed 7 --verbose
//   costas_explorer --n 24 --info                   # order status (database)
//   costas_explorer --n 14 --ambiguity              # radar sidelobe matrix
#include <cstdio>
#include <string>

#include "core/adaptive_search.hpp"
#include "core/dialectic_search.hpp"
#include "core/hill_climber.hpp"
#include "core/rickard_healy.hpp"
#include "core/simulated_annealing.hpp"
#include "core/tabu_search.hpp"
#include "costas/ambiguity.hpp"
#include "costas/checker.hpp"
#include "costas/construction.hpp"
#include "costas/database.hpp"
#include "costas/model.hpp"
#include "par/multiwalk.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace cas;

namespace {

void print_solution(const std::vector<int>& perm, bool verbose) {
  std::string s = "[";
  for (size_t i = 0; i < perm.size(); ++i) {
    s += util::strf("%d%s", perm[i], i + 1 < perm.size() ? "," : "");
  }
  s += "]";
  std::printf("solution: %s\n", s.c_str());
  const bool ok = costas::is_costas(perm);
  std::printf("checker : %s\n", ok ? "VALID Costas array" : "INVALID!");
  if (!ok) std::printf("  reason: %s\n", costas::explain_violation(perm).c_str());
  if (verbose) {
    std::printf("\n%s\n", costas::render_grid(perm).c_str());
    std::printf("difference triangle:\n%s", costas::render_triangle(perm).c_str());
  }
}

void print_ambiguity(const std::vector<int>& perm) {
  const auto amb = costas::auto_ambiguity(perm);
  const auto st = costas::sidelobe_stats(amb);
  std::printf("\nauto-ambiguity: max sidelobe %d, mainlobe/sidelobe %.1f, "
              "%lld hits / %lld cells\n",
              st.max_sidelobe, st.thumbtack_ratio, static_cast<long long>(st.total_hits),
              static_cast<long long>(st.occupied_cells));
  if (perm.size() <= 24)
    std::printf("delay-Doppler hit matrix:\n%s", costas::render_ambiguity(amb).c_str());
}

void print_stats(const core::RunStats& st) {
  std::printf("stats   : %llu iterations, %llu local minima, %llu resets "
              "(%llu early escapes), %llu swaps, %.3f s\n",
              static_cast<unsigned long long>(st.iterations),
              static_cast<unsigned long long>(st.local_minima),
              static_cast<unsigned long long>(st.resets),
              static_cast<unsigned long long>(st.custom_reset_escapes),
              static_cast<unsigned long long>(st.swaps), st.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "costas_explorer — solve, construct and inspect Costas arrays.\n"
      "Part of the reproduction of Diaz et al., 'Parallel local search for\n"
      "the Costas Array Problem' (IPPS 2012).");
  flags.add_int("n", 18, "instance size (order of the Costas array)");
  flags.add_int("walkers", 1, "parallel walkers (independent multi-walk) ");
  flags.add_int("seed", 42, "random seed");
  flags.add_string("engine", "as", "engine: as | ds | sa | hc | ts | rh");
  flags.add_bool("construct", false, "use algebraic constructions instead of search");
  flags.add_bool("info", false, "print the order's database status and exit");
  flags.add_bool("ambiguity", false, "also print the radar ambiguity analysis");
  flags.add_bool("verbose", false, "print grid and difference triangle");
  flags.add_bool("no-chang", false, "disable the Chang half-triangle optimization");
  flags.add_bool("err-unit", false, "use ERR(d)=1 instead of n^2-d^2");
  if (!flags.parse(argc, argv)) return 0;

  const int n = static_cast<int>(flags.get_int("n"));
  const auto seed = static_cast<uint64_t>(flags.get_int("seed"));
  const bool verbose = flags.get_bool("verbose");

  if (flags.get_bool("info")) {
    std::printf("%s\n", costas::describe_order(n).c_str());
    const auto methods = costas::available_constructions(n);
    if (methods.empty()) {
      std::printf("constructions: none covered by this library\n");
    } else {
      std::printf("constructions:\n");
      for (const auto& m : methods) std::printf("  - %s\n", m.c_str());
    }
    if (const auto d = costas::known_density(n))
      std::printf("solution density: %.2e of %d! permutations\n", *d, n);
    return 0;
  }

  if (flags.get_bool("construct")) {
    const auto methods = costas::available_constructions(n);
    if (auto perm = costas::construct_any(n)) {
      std::printf("constructions available for n=%d:\n", n);
      for (const auto& m : methods) std::printf("  - %s\n", m.c_str());
      print_solution(*perm, verbose);
      if (flags.get_bool("ambiguity")) print_ambiguity(*perm);
      return 0;
    }
    std::printf("no covered construction for n=%d", n);
    if (n == 32 || n == 33)
      std::printf(" (whether ANY Costas array of this order exists is an open problem)");
    std::printf("\n");
    return 1;
  }

  costas::CostasOptions mopts;
  if (flags.get_bool("no-chang")) mopts.use_chang = false;
  if (flags.get_bool("err-unit")) mopts.err = costas::ErrFunction::kUnit;

  const std::string engine = flags.get_string("engine");
  const int walkers = static_cast<int>(flags.get_int("walkers"));

  if (walkers > 1) {
    auto walker = [&](int, uint64_t walker_seed, core::StopToken stop) {
      costas::CostasProblem problem(n, mopts);
      auto cfg = costas::recommended_config(n, walker_seed);
      core::AdaptiveSearch<costas::CostasProblem> eng(problem, cfg);
      return eng.solve(stop);
    };
    const auto result = par::run_multiwalk(walkers, seed, walker);
    if (!result.solved) {
      std::printf("no solution found\n");
      return 1;
    }
    std::printf("multi-walk: %d walkers, winner %d after %.3f s (total %llu iterations)\n",
                walkers, result.winner, result.wall_seconds,
                static_cast<unsigned long long>(result.total_iterations()));
    print_solution(result.winner_stats.solution, verbose);
    print_stats(result.winner_stats);
    if (flags.get_bool("ambiguity")) print_ambiguity(result.winner_stats.solution);
    return 0;
  }

  costas::CostasProblem problem(n, mopts);
  core::RunStats st;
  if (engine == "as") {
    auto cfg = costas::recommended_config(n, seed);
    core::AdaptiveSearch<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else if (engine == "ds") {
    core::DsConfig cfg;
    cfg.seed = seed;
    core::DialecticSearch<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else if (engine == "sa") {
    core::SaConfig cfg;
    cfg.seed = seed;
    core::SimulatedAnnealing<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else if (engine == "hc") {
    core::HcConfig cfg;
    cfg.seed = seed;
    core::HillClimber<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else if (engine == "ts") {
    core::TsConfig cfg;
    cfg.seed = seed;
    core::TabuSearch<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else if (engine == "rh") {
    core::RhConfig cfg;
    cfg.seed = seed;
    core::RickardHealySearch<costas::CostasProblem> eng(problem, cfg);
    st = eng.solve();
  } else {
    std::fprintf(stderr, "unknown engine '%s' (use as | ds | sa | hc | ts | rh)\n",
                 engine.c_str());
    return 2;
  }
  if (!st.solved) {
    std::printf("no solution found\n");
    return 1;
  }
  print_solution(st.solution, verbose);
  print_stats(st);
  if (flags.get_bool("ambiguity")) print_ambiguity(st.solution);
  return 0;
}
