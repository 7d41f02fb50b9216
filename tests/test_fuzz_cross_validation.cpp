// Cross-validation fuzzing: the repo has FOUR independent answers to "is
// this a Costas array / what does it cost" — the naive checker, the
// incremental model, the bitmask enumerator, and the CP solver. This suite
// drives randomized workloads through all of them and insists they agree,
// plus stress-tests the engines under randomized configurations.
#include <gtest/gtest.h>

#include <set>

#include "core/adaptive_search.hpp"
#include "core/delta_adapter.hpp"
#include "core/dialectic_search.hpp"
#include "core/genetic.hpp"
#include "core/rickard_healy.hpp"
#include "core/simulated_annealing.hpp"
#include "core/tabu_search.hpp"
#include "costas/ambiguity.hpp"
#include "costas/checker.hpp"
#include "costas/construction.hpp"
#include "costas/cp_solver.hpp"
#include "costas/enumerate.hpp"
#include "costas/model.hpp"
#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/queens.hpp"

namespace cas {
namespace {

// ---------------------------------------------------------------------------
// Incremental-evaluation cross-validation: for every LocalSearchProblem
// model, the pure delta_cost must predict exactly what applying the swap
// does, without mutating anything, and the incrementally maintained
// errors() table must match the from-scratch compute_errors projection
// after arbitrary mutation histories.
// ---------------------------------------------------------------------------

template <core::LocalSearchProblem P>
void fuzz_delta_against_oracle(P& p, core::Rng& rng, int rounds, int steps) {
  const int n = p.size();
  std::vector<core::Cost> oracle_errs(static_cast<size_t>(n));
  for (int r = 0; r < rounds; ++r) {
    p.randomize(rng);
    for (int s = 0; s < steps; ++s) {
      const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      if (j == i) j = (j + 1) % n;
      const core::Cost before = p.cost();
      const core::Cost delta = p.delta_cost(i, j);
      // Purity: probing must not change the observable state.
      ASSERT_EQ(p.cost(), before) << "delta_cost mutated cost";
      ASSERT_EQ(p.delta_cost(i, j), delta) << "delta_cost not repeatable";
      // The oracle: actually applying the swap lands exactly on cost + delta.
      P probe = p;
      probe.apply_swap(i, j);
      ASSERT_EQ(probe.cost(), before + delta)
          << "delta mispredicts swap (" << i << "," << j << ") at step " << s;
      // Advance the real state most of the time so the incremental error
      // table accumulates a long mutation history before each check.
      if (rng.chance(0.7)) p.apply_swap(i, j);
      const std::span<const core::Cost> errs = p.errors();
      ASSERT_EQ(static_cast<int>(errs.size()), n);
      p.compute_errors(std::span<core::Cost>(oracle_errs.data(), oracle_errs.size()));
      for (int k = 0; k < n; ++k) {
        ASSERT_EQ(errs[static_cast<size_t>(k)], oracle_errs[static_cast<size_t>(k)])
            << "errors() diverged from compute_errors at var " << k << " step " << s;
      }
    }
  }
}

TEST(FuzzDelta, CostasAllOptionCombinations) {
  core::Rng rng(0xDE17A1);
  for (const int n : {5, 9, 14, 19, 25}) {
    for (const auto err : {costas::ErrFunction::kUnit, costas::ErrFunction::kQuadratic}) {
      for (const bool chang : {false, true}) {
        costas::CostasProblem p(n, {err, chang});
        fuzz_delta_against_oracle(p, rng, 2, 150);
      }
    }
  }
}

TEST(FuzzDelta, Queens) {
  core::Rng rng(0xDE17A2);
  for (const int n : {4, 9, 16, 40}) {
    problems::QueensProblem p(n);
    fuzz_delta_against_oracle(p, rng, 2, 250);
  }
}

TEST(FuzzDelta, AllInterval) {
  core::Rng rng(0xDE17A3);
  for (const int n : {5, 10, 17, 30}) {
    problems::AllIntervalProblem p(n);
    fuzz_delta_against_oracle(p, rng, 2, 250);
  }
}

TEST(FuzzDelta, Langford) {
  core::Rng rng(0xDE17A4);
  for (const int n : {3, 4, 8, 15}) {
    problems::LangfordProblem p(n);
    fuzz_delta_against_oracle(p, rng, 2, 250);
  }
}

TEST(FuzzDelta, MagicSquare) {
  core::Rng rng(0xDE17A5);
  for (const int order : {3, 5, 8}) {
    problems::MagicSquareProblem p(order);
    fuzz_delta_against_oracle(p, rng, 2, 250);
  }
}

TEST(FuzzDelta, Partition) {
  core::Rng rng(0xDE17A6);
  for (const int n : {8, 16, 32}) {
    problems::PartitionProblem p(n);
    fuzz_delta_against_oracle(p, rng, 2, 250);
  }
}

TEST(FuzzDelta, Alpha) {
  core::Rng rng(0xDE17A7);
  problems::AlphaProblem p;
  fuzz_delta_against_oracle(p, rng, 4, 250);
}

TEST(FuzzDelta, CostasDeltaMatchesStatelessEvaluate) {
  // The ISSUE-level identity: cost() + delta_cost(i, j) equals the
  // stateless evaluation of the explicitly swapped permutation.
  core::Rng rng(0xDE17A8);
  for (const int n : {6, 11, 17, 24}) {
    costas::CostasProblem p(n);
    p.randomize(rng);
    for (int s = 0; s < 400; ++s) {
      const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      if (j == i) j = (j + 1) % n;
      std::vector<int> swapped = p.permutation();
      std::swap(swapped[static_cast<size_t>(i)], swapped[static_cast<size_t>(j)]);
      ASSERT_EQ(p.cost() + p.delta_cost(i, j), p.evaluate(swapped));
      if (rng.chance(0.5)) p.apply_swap(i, j);
    }
  }
}

static_assert(core::LocalSearchProblem<core::DoUndoAdapter<costas::CostasProblem>>);
static_assert(core::HasCustomReset<core::DoUndoAdapter<costas::CostasProblem>>);

TEST(FuzzDelta, DoUndoAdapterAgreesWithNativeDelta) {
  // The shared fallback adapter (apply/read/undo) and the native pure delta
  // must be indistinguishable move evaluators on identical states.
  core::Rng rng(0xDE17A9);
  for (const int n : {7, 13, 20}) {
    costas::CostasProblem native(n);
    native.randomize(rng);
    core::DoUndoAdapter<costas::CostasProblem> wrapped(costas::CostasProblem{n});
    wrapped.base().set_permutation(native.permutation());
    for (int s = 0; s < 300; ++s) {
      const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      if (j == i) j = (j + 1) % n;
      ASSERT_EQ(native.delta_cost(i, j), wrapped.delta_cost(i, j));
      ASSERT_EQ(native.cost(), wrapped.cost());
      const auto ne = native.errors();
      const auto we = wrapped.errors();
      ASSERT_EQ(std::vector<core::Cost>(ne.begin(), ne.end()),
                std::vector<core::Cost>(we.begin(), we.end()));
      if (rng.chance(0.8)) {
        native.apply_swap(i, j);
        wrapped.apply_swap(i, j);
      }
    }
  }
}

TEST(Fuzz, CheckerVsModelOnRandomPermutations) {
  core::Rng rng(101);
  for (int t = 0; t < 2000; ++t) {
    const int n = 3 + static_cast<int>(rng.below(12));
    const auto perm = rng.permutation(n);
    costas::CostasProblem model(n);
    EXPECT_EQ(model.evaluate(perm) == 0, costas::is_costas(perm))
        << testing::PrintToString(perm);
  }
}

TEST(Fuzz, FullTriangleModelVsChecker) {
  core::Rng rng(102);
  for (int t = 0; t < 1000; ++t) {
    const int n = 3 + static_cast<int>(rng.below(10));
    const auto perm = rng.permutation(n);
    costas::CostasOptions opts;
    opts.use_chang = false;
    costas::CostasProblem model(n, opts);
    EXPECT_EQ(model.evaluate(perm) == 0, costas::is_costas(perm));
  }
}

TEST(Fuzz, RandomSwapChainsKeepAllInvariants) {
  core::Rng rng(103);
  for (int n : {6, 11, 17, 23}) {
    costas::CostasProblem p(n);
    p.randomize(rng);
    for (int step = 0; step < 500; ++step) {
      const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      if (i == j) continue;
      // Interleave the three mutation paths randomly.
      switch (rng.below(3)) {
        case 0:
          p.apply_swap(i, j);
          break;
        case 1: {
          const auto predicted = p.cost() + p.delta_cost(i, j);
          p.apply_swap(i, j);
          ASSERT_EQ(p.cost(), predicted);
          break;
        }
        case 2:
          p.custom_reset(rng);
          break;
      }
      ASSERT_TRUE(costas::is_permutation(p.permutation()));
      ASSERT_EQ(p.cost(), p.evaluate(p.permutation()));
      ASSERT_GE(p.cost(), 0);
    }
  }
}

TEST(Fuzz, EnumeratorVsCpSolverSolutionSets) {
  for (int n : {5, 6, 7}) {
    std::set<std::vector<int>> cp;
    costas::CpSolver solver(n);
    solver.solve([&](std::span<const int> s) {
      cp.emplace(s.begin(), s.end());
      return true;
    });
    const auto ref = costas::all_costas(n);
    EXPECT_EQ(cp, std::set<std::vector<int>>(ref.begin(), ref.end())) << "n=" << n;
  }
}

TEST(Fuzz, EnginesAgreeOnSolvability) {
  // Every engine must find SOME valid array on every seed at an easy size.
  const int n = 10;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    {
      costas::CostasProblem p(n);
      core::AdaptiveSearch<costas::CostasProblem> e(p, costas::recommended_config(n, seed));
      const auto st = e.solve();
      ASSERT_TRUE(st.solved);
      EXPECT_TRUE(costas::is_costas(st.solution));
    }
    {
      costas::CostasProblem p(n);
      core::DsConfig cfg;
      cfg.seed = seed;
      core::DialecticSearch<costas::CostasProblem> e(p, cfg);
      const auto st = e.solve();
      ASSERT_TRUE(st.solved);
      EXPECT_TRUE(costas::is_costas(st.solution));
    }
    {
      costas::CostasProblem p(n);
      core::SaConfig cfg;
      cfg.seed = seed;
      core::SimulatedAnnealing<costas::CostasProblem> e(p, cfg);
      const auto st = e.solve();
      ASSERT_TRUE(st.solved);
      EXPECT_TRUE(costas::is_costas(st.solution));
    }
  }
}

TEST(Fuzz, RandomizedEngineConfigurationsNeverCorruptState) {
  // Failure injection for the engine parameter space: random (legal but
  // possibly silly) configurations must never produce an invalid
  // "solution" or a negative cost, even when they fail to solve.
  core::Rng rng(104);
  for (int t = 0; t < 25; ++t) {
    const int n = 6 + static_cast<int>(rng.below(8));
    costas::CostasProblem p(n);
    core::AsConfig cfg;
    cfg.seed = rng();
    cfg.tabu_tenure = 1 + static_cast<int>(rng.below(30));
    cfg.plateau_probability = rng.uniform01();
    cfg.reset_limit = 1 + static_cast<int>(rng.below(4));
    cfg.reset_fraction = rng.uniform01() * 0.6;
    cfg.use_custom_reset = rng.chance(0.5);
    cfg.hybrid_reset = rng.chance(0.5);
    cfg.keep_tabu_on_reset = rng.chance(0.5);
    cfg.restart_interval = 1000 + rng.below(100000);
    cfg.max_iterations = 30000;
    core::AdaptiveSearch<costas::CostasProblem> engine(p, cfg);
    const auto st = engine.solve();
    EXPECT_GE(st.final_cost, 0);
    EXPECT_TRUE(costas::is_permutation(p.permutation()));
    if (st.solved) {
      EXPECT_TRUE(costas::is_costas(st.solution));
    } else {
      EXPECT_GT(st.final_cost, 0);
    }
  }
}

TEST(Fuzz, ConstructionsAgreeWithCpFeasibility) {
  // Every constructible order has solutions; the CP solver must confirm
  // feasibility instantly when seeded sizes are small.
  for (int n = 3; n <= 11; ++n) {
    const auto c = costas::construct_any(n);
    ASSERT_TRUE(c.has_value());
    costas::CpSolver solver(n);
    const auto first = solver.first_solution();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(costas::is_costas(*first));
  }
}

TEST(Fuzz, ThreeWayCostasDefinitionsAgree) {
  // Three independent implementations of "is this a Costas array":
  //   1. the O(n^3) difference-triangle checker (costas/checker),
  //   2. the incremental model's cost-zero predicate (costas/model),
  //   3. the ambiguity characterization max-sidelobe <= 1 (costas/ambiguity).
  // They share no code; agreement over random permutations pins all three.
  core::Rng rng(0xC057A5);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(11));
    const auto perm = rng.permutation(n);
    const bool by_checker = costas::is_costas(perm);
    costas::CostasProblem model(n);
    model.set_permutation(perm);
    const bool by_model = model.cost() == 0;
    const bool by_ambiguity = costas::is_costas_by_ambiguity(perm);
    ASSERT_EQ(by_checker, by_model) << "n=" << n << " trial=" << trial;
    ASSERT_EQ(by_checker, by_ambiguity) << "n=" << n << " trial=" << trial;
  }
}

TEST(Fuzz, EveryEngineProducesCheckerValidSolutions) {
  // All seven engines on one instance, many seeds: anything any engine
  // calls a solution must satisfy the independent checker.
  const int n = 10;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    costas::CostasProblem p1(n);
    core::AdaptiveSearch<costas::CostasProblem> as(p1, costas::recommended_config(n, seed));
    const auto s1 = as.solve();
    ASSERT_TRUE(s1.solved);
    EXPECT_TRUE(costas::is_costas(s1.solution));

    costas::CostasProblem p2(n);
    core::TsConfig tcfg;
    tcfg.seed = seed;
    core::TabuSearch<costas::CostasProblem> ts(p2, tcfg);
    const auto s2 = ts.solve();
    ASSERT_TRUE(s2.solved);
    EXPECT_TRUE(costas::is_costas(s2.solution));

    costas::CostasProblem p3(n);
    core::RhConfig rcfg;
    rcfg.seed = seed;
    core::RickardHealySearch<costas::CostasProblem> rh(p3, rcfg);
    const auto s3 = rh.solve();
    ASSERT_TRUE(s3.solved);
    EXPECT_TRUE(costas::is_costas(s3.solution));

    costas::CostasProblem p4(n);
    core::GaConfig gcfg;
    gcfg.seed = seed;
    core::GeneticSearch<costas::CostasProblem> ga(p4, gcfg);
    const auto s4 = ga.solve();
    ASSERT_TRUE(s4.solved);
    EXPECT_TRUE(costas::is_costas(s4.solution));
  }
}

}  // namespace
}  // namespace cas
