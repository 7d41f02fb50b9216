// Property tests for the incremental Costas model (paper Sec. IV):
// consistency between incremental and stateless evaluation, the two ERR
// functions, Chang's half-triangle optimization, and cost/solution
// equivalence against the independent checker.
#include "costas/model.hpp"

#include <gtest/gtest.h>

#include "costas/checker.hpp"
#include "costas/enumerate.hpp"

namespace cas::costas {
namespace {

// ---------- parameterized consistency sweep over sizes and options ----------

struct ModelParam {
  int n;
  ErrFunction err;
  bool chang;
};

class ModelConsistency : public testing::TestWithParam<ModelParam> {};

TEST_P(ModelConsistency, IncrementalMatchesStatelessUnderRandomSwaps) {
  const auto param = GetParam();
  CostasProblem p(param.n, {param.err, param.chang});
  core::Rng rng(static_cast<uint64_t>(param.n) * 31 + param.chang);
  p.randomize(rng);
  for (int step = 0; step < 300; ++step) {
    const int i = static_cast<int>(rng.below(static_cast<uint64_t>(param.n)));
    int j = static_cast<int>(rng.below(static_cast<uint64_t>(param.n)));
    if (i == j) j = (j + 1) % param.n;
    p.apply_swap(i, j);
    ASSERT_EQ(p.cost(), p.evaluate(p.permutation())) << "after step " << step;
  }
}

TEST_P(ModelConsistency, CostIfSwapPredictsApplySwap) {
  const auto param = GetParam();
  CostasProblem p(param.n, {param.err, param.chang});
  core::Rng rng(static_cast<uint64_t>(param.n) * 101 + param.chang);
  p.randomize(rng);
  for (int step = 0; step < 200; ++step) {
    const int i = static_cast<int>(rng.below(static_cast<uint64_t>(param.n)));
    int j = static_cast<int>(rng.below(static_cast<uint64_t>(param.n)));
    if (i == j) continue;
    const auto before = p.permutation();
    const core::Cost predicted = p.cost() + p.delta_cost(i, j);
    ASSERT_EQ(p.permutation(), before) << "delta_cost must not mutate";
    p.apply_swap(i, j);
    ASSERT_EQ(p.cost(), predicted);
  }
}

TEST_P(ModelConsistency, ZeroCostIffCostas) {
  // Chang's remark (Sec. IV-B) guarantees the half triangle suffices: cost
  // 0 under EITHER option set must coincide with the full Costas property.
  const auto param = GetParam();
  if (param.n > 8) GTEST_SKIP() << "exhaustive sweep only for small n";
  CostasProblem p(param.n, {param.err, param.chang});
  std::vector<int> perm(static_cast<size_t>(param.n));
  for (int i = 0; i < param.n; ++i) perm[static_cast<size_t>(i)] = i + 1;
  do {
    p.set_permutation(perm);
    EXPECT_EQ(p.cost() == 0, is_costas(perm)) << testing::PrintToString(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ModelConsistency,
    testing::Values(ModelParam{5, ErrFunction::kQuadratic, true},
                    ModelParam{6, ErrFunction::kQuadratic, true},
                    ModelParam{7, ErrFunction::kUnit, true},
                    ModelParam{7, ErrFunction::kQuadratic, false},
                    ModelParam{8, ErrFunction::kUnit, false},
                    ModelParam{10, ErrFunction::kQuadratic, true},
                    ModelParam{13, ErrFunction::kQuadratic, true},
                    ModelParam{16, ErrFunction::kUnit, true},
                    ModelParam{19, ErrFunction::kQuadratic, true},
                    ModelParam{22, ErrFunction::kQuadratic, false}),
    [](const testing::TestParamInfo<ModelParam>& info) {
      return "n" + std::to_string(info.param.n) +
             (info.param.err == ErrFunction::kQuadratic ? "_quad" : "_unit") +
             (info.param.chang ? "_chang" : "_full");
    });

// ---------- targeted unit tests ----------

TEST(CostasModel, PaperExampleHasZeroCost) {
  CostasProblem p(5);
  p.set_permutation(std::vector<int>{3, 4, 2, 1, 5});
  EXPECT_EQ(p.cost(), 0);
}

TEST(CostasModel, CheckedRowsFollowChang) {
  EXPECT_EQ(CostasProblem(5).checked_rows(), 2);   // floor(4/2)
  EXPECT_EQ(CostasProblem(10).checked_rows(), 4);  // floor(9/2)
  EXPECT_EQ(CostasProblem(17).checked_rows(), 8);
  CostasOptions full;
  full.use_chang = false;
  EXPECT_EQ(CostasProblem(10, full).checked_rows(), 9);
}

TEST(CostasModel, UnitErrCountsDuplicatePairs) {
  // [1,2,3]: row d=1 holds (1,1): one duplicated pair -> cost 1 with ERR=1.
  CostasProblem p(3, {ErrFunction::kUnit, true});
  p.set_permutation(std::vector<int>{1, 2, 3});
  EXPECT_EQ(p.cost(), 1);
}

TEST(CostasModel, QuadraticErrWeightsShortDistancesMore) {
  // Same single collision, in row 1 vs a deeper row, must cost more in the
  // shallow row: ERR(d) = n^2 - d^2 is decreasing in d.
  const int n = 9;
  CostasOptions full{ErrFunction::kQuadratic, false};
  CostasProblem p(n, full);
  // Collision in row 1: values 1,2,3 ... consecutive at the start.
  p.set_permutation(std::vector<int>{1, 2, 3, 5, 9, 4, 8, 6, 7});
  const auto c_any = p.cost();
  EXPECT_GT(c_any, 0);
  // A row-1 duplicate contributes n^2-1 per duplicated pair; verify the
  // smallest possible positive cost with row-8 collision is smaller.
  // Construct: row 8 has single entry so cannot collide; use row 6 vs row 1
  // comparison through evaluate() on two crafted configurations instead.
  CostasProblem q(5, full);
  // [1,2,4,3,5]: row 1 = (1,2,-1,2) has one duplicated pair (weight 25-1);
  // row 2 = (3,1,1) has one duplicated pair (weight 25-4); rows 3,4 clean.
  q.set_permutation(std::vector<int>{1, 2, 4, 3, 5});
  const auto cost = q.cost();
  EXPECT_EQ(cost, (25 - 1) + (25 - 4));
  // The row-1 component (24) outweighs the row-2 component (21): shorter
  // distances are penalized more, as Sec. IV-B intends.
  EXPECT_GT(25 - 1, 25 - 4);
}

TEST(CostasModel, EvaluateAgreesWithSetPermutation) {
  CostasProblem p(10);
  core::Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    const auto perm = rng.permutation(10);
    const auto fresh = p.evaluate(perm);
    p.set_permutation(perm);
    EXPECT_EQ(p.cost(), fresh);
  }
}

TEST(CostasModel, ComputeErrorsProjectsOntoCollidingVariables) {
  // [1,2,3]: collision between pairs (0,1) and (1,2) -> all three positions
  // participate; middle one twice.
  CostasProblem p(3, {ErrFunction::kUnit, true});
  p.set_permutation(std::vector<int>{1, 2, 3});
  std::vector<core::Cost> errs(3);
  p.compute_errors(errs);
  EXPECT_EQ(errs[0], 1);
  EXPECT_EQ(errs[1], 2);
  EXPECT_EQ(errs[2], 1);
}

TEST(CostasModel, ErrorsZeroOnSolution) {
  CostasProblem p(5);
  p.set_permutation(std::vector<int>{3, 4, 2, 1, 5});
  std::vector<core::Cost> errs(5);
  p.compute_errors(errs);
  for (auto e : errs) EXPECT_EQ(e, 0);
}

TEST(CostasModel, ErrorsSumMatchesTwiceCostForUnitErr) {
  // Each duplicated pair charges both endpoints once -> sum(err) = 2*cost
  // when ERR = 1... except a pair whose occurrence count c >= 2 charges
  // err for EVERY pair in that bucket while cost counts c-1 per bucket.
  // So the invariant is sum(err) >= 2*cost, equality when no bucket has
  // three or more identical differences.
  CostasProblem p(12, {ErrFunction::kUnit, true});
  core::Rng rng(6);
  for (int t = 0; t < 100; ++t) {
    p.randomize(rng);
    std::vector<core::Cost> errs(12);
    p.compute_errors(errs);
    core::Cost sum = 0;
    for (auto e : errs) sum += e;
    EXPECT_GE(sum, 2 * p.cost());
  }
}

TEST(CostasModel, SetPermutationValidates) {
  CostasProblem p(5);
  EXPECT_THROW(p.set_permutation(std::vector<int>{1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(p.set_permutation(std::vector<int>{1, 1, 2, 3, 4}), std::invalid_argument);
}

TEST(CostasModel, RejectsTinyN) { EXPECT_THROW(CostasProblem(1), std::invalid_argument); }

TEST(CostasModel, N2IsTriviallySolved) {
  // Chang depth floor(1/2) = 0: no constraints, both permutations valid —
  // and indeed both permutations of order 2 ARE Costas arrays.
  CostasProblem p(2);
  EXPECT_EQ(p.cost(), 0);
  p.set_permutation(std::vector<int>{2, 1});
  EXPECT_EQ(p.cost(), 0);
}

TEST(CostasModel, RandomizeProducesPermutation) {
  CostasProblem p(15);
  core::Rng rng(7);
  for (int t = 0; t < 20; ++t) {
    p.randomize(rng);
    EXPECT_TRUE(is_permutation(p.permutation()));
  }
}

TEST(CostasModel, ChangAgreesWithFullTriangleOnSolutions) {
  // For every enumerated Costas array of order 7..9, both option sets give
  // cost 0; for a perturbed (invalid) version both give cost > 0.
  for (int n : {7, 8, 9}) {
    CostasProblem half(n);
    CostasOptions fo;
    fo.use_chang = false;
    CostasProblem full(n, fo);
    int checked = 0;
    enumerate_costas(n, [&](std::span<const int> sol) {
      std::vector<int> v(sol.begin(), sol.end());
      EXPECT_EQ(half.evaluate(v), 0);
      EXPECT_EQ(full.evaluate(v), 0);
      std::swap(v[0], v[1]);
      EXPECT_EQ(half.evaluate(v) == 0, full.evaluate(v) == 0);
      return ++checked < 50;  // cap work per order
    });
    EXPECT_GT(checked, 0);
  }
}

TEST(CostasModel, RecommendedConfigMatchesPaperParameters) {
  const auto cfg = recommended_config(20);
  EXPECT_EQ(cfg.reset_limit, 1);          // RL = 1
  EXPECT_DOUBLE_EQ(cfg.reset_fraction, 0.05);  // RP = 5%
  EXPECT_TRUE(cfg.use_custom_reset);
}

}  // namespace
}  // namespace cas::costas
