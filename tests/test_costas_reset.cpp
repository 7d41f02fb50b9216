// The paper's custom reset procedure (Sec. IV-B): permutation safety,
// early-escape semantics, best-candidate adoption, and its measured escape
// rate in live search (the paper reports ~32% independently of n).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/candidate_batch.hpp"
#include "costas/checker.hpp"
#include "costas/model.hpp"

namespace cas::costas {
namespace {

TEST(CustomReset, PreservesPermutationProperty) {
  core::Rng rng(1);
  for (int n : {6, 9, 13, 18}) {
    CostasProblem p(n);
    p.randomize(rng);
    for (int t = 0; t < 50; ++t) {
      p.custom_reset(rng);
      ASSERT_TRUE(is_permutation(p.permutation())) << "n=" << n << " t=" << t;
      ASSERT_EQ(p.cost(), p.evaluate(p.permutation()));
    }
  }
}

TEST(CustomReset, EscapeImpliesStrictImprovement) {
  core::Rng rng(2);
  for (int n : {8, 12, 16}) {
    CostasProblem p(n);
    for (int t = 0; t < 100; ++t) {
      p.randomize(rng);
      const auto before = p.cost();
      if (before == 0) continue;
      const bool escaped = p.custom_reset(rng);
      if (escaped) {
        EXPECT_LT(p.cost(), before) << "escape must strictly improve";
      }
    }
  }
}

TEST(CustomReset, AlwaysChangesConfigurationOrImproves) {
  // The reset must never be a silent no-op at a non-zero-cost config: it
  // adopts either an improving perturbation or the best of all candidates.
  core::Rng rng(3);
  CostasProblem p(14);
  int changed = 0, trials = 0;
  for (int t = 0; t < 60; ++t) {
    p.randomize(rng);
    if (p.cost() == 0) continue;
    const auto before_perm = p.permutation();
    const auto before_cost = p.cost();
    const bool escaped = p.custom_reset(rng);
    ++trials;
    if (p.permutation() != before_perm) ++changed;
    if (escaped) EXPECT_LT(p.cost(), before_cost);
  }
  // The identity is never among the candidate perturbations, so virtually
  // every reset must move the configuration.
  EXPECT_GE(changed, trials - 1);
}

TEST(CustomReset, CandidateCountFormula) {
  EXPECT_EQ(CostasProblem(10).reset_candidate_count(), 2 * 9 + 4 + 3);
  EXPECT_EQ(CostasProblem(20).reset_candidate_count(), 2 * 19 + 4 + 3);
}

TEST(CustomReset, EscapeRateInLiveSearchNearPaperValue) {
  // Run real searches at n=14..16 and pool the escape statistics. The paper
  // reports ~32% "independently from n"; we accept a generous band.
  uint64_t resets = 0, escapes = 0;
  for (int n : {14, 15, 16}) {
    for (int rep = 0; rep < 3; ++rep) {
      CostasProblem p(n);
      auto cfg = recommended_config(n, 900 + static_cast<uint64_t>(10 * n + rep));
      core::AdaptiveSearch<CostasProblem> engine(p, cfg);
      const auto st = engine.solve();
      ASSERT_TRUE(st.solved);
      resets += st.resets;
      escapes += st.custom_reset_escapes;
    }
  }
  ASSERT_GT(resets, 100u);
  const double rate = static_cast<double>(escapes) / static_cast<double>(resets);
  EXPECT_GT(rate, 0.15);
  EXPECT_LT(rate, 0.55);
}

TEST(CustomReset, ModularAddCandidatesKeepPermutation) {
  // Family 2 adds constants modulo n; verify by applying the same transform
  // manually and checking it is one of the reachable configurations' shape.
  const int n = 10;
  std::vector<int> perm{3, 1, 4, 2, 9, 5, 10, 6, 8, 7};
  for (int c : {1, 2, n - 2, n - 3}) {
    std::vector<int> shifted(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) shifted[i] = (perm[i] - 1 + c) % n + 1;
    EXPECT_TRUE(is_permutation(shifted)) << "c=" << c;
  }
}

TEST(CustomReset, AppendCopiesChecksSizeAndCapacity) {
  core::CandidateBatch batch;
  batch.reset(4, 9);  // capacity rounds up to 16 lanes
  const std::vector<int> perm{2, 4, 1, 3};
  EXPECT_THROW(batch.append_copies(std::vector<int>{1, 2, 3}, 1), std::invalid_argument);
  EXPECT_THROW(batch.append_copies(perm, 17), std::length_error);
  EXPECT_THROW(batch.append_copies(perm, -1), std::length_error);
  EXPECT_EQ(batch.count(), 0);
  batch.append(std::vector<int>{1, 2, 3, 4});
  int32_t* const column_base = batch.append_copies(perm, 15);
  EXPECT_EQ(batch.count(), 16);
  EXPECT_EQ(column_base, batch.data() + 1);
  for (int c = 1; c < 16; ++c)
    for (int i = 0; i < 4; ++i) EXPECT_EQ(batch.get(c, i), perm[static_cast<size_t>(i)]);
  EXPECT_THROW(batch.append_copies(perm, 1), std::length_error);
  EXPECT_THROW(batch.append(perm), std::length_error);
}

TEST(CustomReset, FamiliesOneTwoRefuseABatchOfAnotherSizeOrWithoutRoom) {
  // The families write every lane's n positions through one column base,
  // so a batch reset to another size must be refused, not overrun.
  const int n = 17;
  CostasProblem p(n);
  core::CandidateBatch batch;
  for (const int size : {n - 1, n + 1}) {
    batch.reset(size, p.reset_candidate_count());
    EXPECT_THROW(p.append_reset_families_1_2(n / 2, batch), std::invalid_argument) << size;
    EXPECT_EQ(batch.count(), 0);
  }
  batch.reset(n, 8);  // family 1 alone needs 2(n - 1) = 32 lanes
  EXPECT_THROW(p.append_reset_families_1_2(n / 2, batch), std::length_error);
  EXPECT_EQ(batch.count(), 0);
  batch.reset(n, p.reset_candidate_count());
  p.append_reset_families_1_2(n / 2, batch);
  EXPECT_EQ(batch.count(), 2 * (n - 1) + 4);
}

TEST(CustomReset, WorksAtMinimumSize) {
  // n=3: sub-array machinery with tiny ranges must not crash or corrupt.
  core::Rng rng(4);
  CostasProblem p(3);
  for (int t = 0; t < 30; ++t) {
    p.randomize(rng);
    p.custom_reset(rng);
    EXPECT_TRUE(is_permutation(p.permutation()));
  }
}

TEST(CustomReset, DisabledFallsBackToGenericReset) {
  // With use_custom_reset=false the engine still solves (via generic RP%).
  CostasProblem p(12);
  auto cfg = recommended_config(12, 77);
  cfg.use_custom_reset = false;
  core::AdaptiveSearch<CostasProblem> engine(p, cfg);
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_EQ(st.custom_reset_escapes, 0u);
  EXPECT_TRUE(is_costas(st.solution));
}

TEST(CustomReset, PaperSpeedupDirectionOnIterations) {
  // Sec. IV-B: the dedicated reset gives a large speedup (paper: ~3.7x in
  // time). Verify the direction on iteration counts at n=13 with a few
  // seeds (full magnitude measured in bench_ablation_reset).
  uint64_t custom_iters = 0, generic_iters = 0;
  const int reps = 6;
  for (int r = 0; r < reps; ++r) {
    {
      CostasProblem p(13);
      auto cfg = recommended_config(13, 50 + static_cast<uint64_t>(r));
      core::AdaptiveSearch<CostasProblem> e(p, cfg);
      const auto st = e.solve();
      EXPECT_TRUE(st.solved);
      custom_iters += st.iterations;
    }
    {
      CostasProblem p(13);
      auto cfg = recommended_config(13, 50 + static_cast<uint64_t>(r));
      cfg.use_custom_reset = false;
      core::AdaptiveSearch<CostasProblem> e(p, cfg);
      const auto st = e.solve();
      EXPECT_TRUE(st.solved);
      generic_iters += st.iterations;
    }
  }
  // Direction only; generous: custom must not be more than 2x worse.
  EXPECT_LT(custom_iters, 2 * generic_iters);
}

}  // namespace
}  // namespace cas::costas
