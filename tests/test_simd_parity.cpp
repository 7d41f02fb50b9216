// FuzzSimdParity — the SIMD kernel layer held against its scalar oracles,
// under every ISA tier this build and host can install:
//   * batched delta_costs_row == per-j scalar delta_cost, lane by lane,
//     for all 7 problem models (native Costas kernel under every tier; the
//     default per-j loop everywhere else, including the do/undo adapter),
//   * the vectorized Costas compute_errors == the maintained error table
//     == the scalar projection,
//   * the reduce kernels (min_value, max_value_where_le) == scalar scans,
//   * the two-pass selection helpers consume the RNG identically under
//     every ISA, and provenance names the tier that ran,
// plus the end-to-end guarantee all of that buys: a seeded engine run is
// bit-identical under every tier (same solution, same iteration count,
// same RNG stream).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/delta_adapter.hpp"
#include "core/hill_climber.hpp"
#include "core/problem.hpp"
#include "core/rng.hpp"
#include "core/tabu_search.hpp"
#include "costas/checker.hpp"
#include "costas/model.hpp"
#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/queens.hpp"
#include "simd/reduce.hpp"
#include "simd/select.hpp"
#include "simd/simd.hpp"
#include "util/provenance.hpp"
#include "isa_tiers.hpp"

namespace cas {
namespace {

using core::Cost;

// The Costas model is the only native batched implementation; everything
// else must go through the default per-j loop.
static_assert(core::HasDeltaRow<costas::CostasProblem>);
static_assert(!core::HasDeltaRow<problems::QueensProblem>);
static_assert(!core::HasDeltaRow<core::DoUndoAdapter<costas::CostasProblem>>);

/// Batched row vs per-j scalar deltas for the problem's CURRENT state.
template <core::LocalSearchProblem P>
void expect_row_matches_scalar(const P& p, int i, const char* tag) {
  const int n = p.size();
  std::vector<Cost> row(static_cast<size_t>(n));
  core::delta_costs_row(p, i, {row.data(), row.size()});
  ASSERT_EQ(row[static_cast<size_t>(i)], core::kExcludedDelta) << tag << " i=" << i;
  for (int j = 0; j < n; ++j) {
    if (j == i) continue;
    ASSERT_EQ(row[static_cast<size_t>(j)], p.delta_cost(i, j))
        << tag << " n=" << n << " i=" << i << " j=" << j;
  }
}

/// Walk a problem through random states, checking every culprit row.
template <core::LocalSearchProblem P>
void fuzz_rows(P& p, uint64_t seed, const char* tag, int states = 6) {
  core::Rng rng(seed);
  for (int s = 0; s < states; ++s) {
    if (s == 0)
      p.randomize(rng);
    else {
      const int n = p.size();
      const int a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      int b = static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
      if (b >= a) ++b;
      p.apply_swap(a, b);
    }
    for (int t = 0; t < 4; ++t) {
      const int i = static_cast<int>(rng.below(static_cast<uint64_t>(p.size())));
      expect_row_matches_scalar(p, i, tag);
    }
  }
}

TEST(FuzzSimdParity, CostasDeltaRowMatchesScalarUnderEveryIsa) {
  // The fills compact the culprit's n - 1 swaps into blocks. AVX2's are 8
  // lanes: n = 2-7 fit in one masked block, and at n = 17, 25 and 33 no
  // lane is masked. AVX-512's are 16: n = 17, 33 and 49 fill them
  // exactly, n = 18 and 34 leave one live lane in the last block, n = 16
  // and 32 one masked lane. It reads byte tables up to n = 32 (n = 31 and
  // 32 fill them widest) and gathers from n = 33. Every
  // culprit of the last state covers the lanes that share a pair with the
  // culprit at both row edges and the last compacted lane.
  for (const int n :
       {2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 15, 16, 17, 18, 19, 23, 25, 26, 31, 32, 33, 34, 49}) {
    for (const bool chang : {true, false}) {
      for (const auto err : {costas::ErrFunction::kQuadratic, costas::ErrFunction::kUnit}) {
        costas::CostasProblem p(n, {err, chang});
        for (const simd::Isa isa : test::installable_isas()) {
          simd::ScopedIsa guard(isa);
          fuzz_rows(p, static_cast<uint64_t>(1000 + n), simd::isa_name(isa));
          for (int i = 0; i < n; ++i) expect_row_matches_scalar(p, i, simd::isa_name(isa));
        }
      }
    }
  }
}

TEST(FuzzSimdParity, CostasDeltaRowBitIdenticalAcrossIsas) {
  for (const int n : {8, 13, 17, 18, 24}) {
    costas::CostasProblem p(n);
    core::Rng rng(static_cast<uint64_t>(n));
    p.randomize(rng);
    std::vector<Cost> scalar_row(static_cast<size_t>(n)), simd_row(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      {
        simd::ScopedIsa guard(simd::Isa::kScalar);
        p.delta_costs_row(i, {scalar_row.data(), scalar_row.size()});
      }
      for (const simd::Isa isa : test::vector_isas()) {
        simd::ScopedIsa guard(isa);
        p.delta_costs_row(i, {simd_row.data(), simd_row.size()});
        ASSERT_EQ(scalar_row, simd_row) << "n=" << n << " i=" << i << " " << simd::isa_name(isa);
      }
    }
  }
}

TEST(FuzzSimdParity, SideProblemsAndAdapterDefaultLoop) {
  problems::QueensProblem queens(21);
  fuzz_rows(queens, 11, "queens");
  problems::AllIntervalProblem all_interval(17);
  fuzz_rows(all_interval, 12, "all_interval");
  problems::LangfordProblem langford(8);
  fuzz_rows(langford, 13, "langford");
  problems::MagicSquareProblem magic(4);
  fuzz_rows(magic, 14, "magic_square");
  problems::PartitionProblem partition(16);
  fuzz_rows(partition, 15, "partition");
  problems::AlphaProblem alpha;
  fuzz_rows(alpha, 16, "alpha");
  core::DoUndoAdapter<costas::CostasProblem> adapted(costas::CostasProblem{12});
  fuzz_rows(adapted, 17, "do_undo_costas");
}

TEST(FuzzSimdParity, CostasErrorsKernelMatchesMaintainedTable) {
  for (const int n : {8, 12, 17, 22}) {
    costas::CostasProblem p(n);
    core::Rng rng(static_cast<uint64_t>(100 + n));
    for (int s = 0; s < 5; ++s) {
      p.randomize(rng);
      const std::span<const Cost> maintained = p.errors();
      std::vector<Cost> proj(static_cast<size_t>(n));
      for (const simd::Isa isa : test::installable_isas()) {
        simd::ScopedIsa guard(isa);
        p.compute_errors({proj.data(), proj.size()});
        for (int i = 0; i < n; ++i)
          ASSERT_EQ(proj[static_cast<size_t>(i)], maintained[static_cast<size_t>(i)])
              << simd::isa_name(isa);
      }
    }
  }
}

TEST(FuzzSimdParity, ReduceKernelsMatchScalarScan) {
  core::Rng rng(7);
  for (int n = 0; n <= 70; ++n) {
    std::vector<int64_t> v(static_cast<size_t>(n));
    std::vector<uint64_t> gate(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      // Small value range forces duplicates; sprinkle extremes.
      v[static_cast<size_t>(k)] = static_cast<int64_t>(rng.below(7)) - 3;
      if (rng.below(13) == 0) v[static_cast<size_t>(k)] = std::numeric_limits<int64_t>::max();
      if (rng.below(13) == 0) v[static_cast<size_t>(k)] = std::numeric_limits<int64_t>::min();
      gate[static_cast<size_t>(k)] = rng.below(4);  // bound 1 gates ~half out
    }
    int64_t expect_min = std::numeric_limits<int64_t>::max();
    for (const int64_t x : v) expect_min = std::min(expect_min, x);
    int64_t expect_max = std::numeric_limits<int64_t>::min();
    bool expect_any = false;
    for (int k = 0; k < n; ++k) {
      if (gate[static_cast<size_t>(k)] > 1) continue;
      expect_any = true;
      expect_max = std::max(expect_max, v[static_cast<size_t>(k)]);
    }
    for (const simd::Isa isa : test::installable_isas()) {
      simd::ScopedIsa guard(isa);
      EXPECT_EQ(simd::min_value({v.data(), v.size()}), expect_min)
          << "n=" << n << " isa=" << simd::isa_name(isa);
      bool any = false;
      EXPECT_EQ(simd::max_value_where_le({v.data(), v.size()}, {gate.data(), gate.size()}, 1,
                                         &any),
                expect_any ? expect_max : std::numeric_limits<int64_t>::min());
      EXPECT_EQ(any, expect_any) << "n=" << n << " isa=" << simd::isa_name(isa);
    }
  }
}

TEST(FuzzSimdParity, ProvenanceNamesTheDispatchedTier) {
  for (const simd::Isa isa : test::installable_isas()) {
    simd::ScopedIsa guard(isa);
    EXPECT_EQ(util::build_provenance().at("simd_isa").as_string(), simd::isa_name(isa));
  }
}

TEST(FuzzSimdParity, SelectionConsumesRngIdenticallyAcrossIsas) {
  core::Rng data_rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 5 + static_cast<int>(data_rng.below(60));
    std::vector<int64_t> v(static_cast<size_t>(n));
    std::vector<uint64_t> gate(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) {
      v[static_cast<size_t>(k)] = static_cast<int64_t>(data_rng.below(4));
      gate[static_cast<size_t>(k)] = data_rng.below(3);
    }
    core::Rng rng_scalar(static_cast<uint64_t>(trial));
    simd::Pick min_scalar, max_scalar;
    {
      simd::ScopedIsa guard(simd::Isa::kScalar);
      min_scalar = simd::pick_min({v.data(), v.size()}, rng_scalar);
      max_scalar =
          simd::pick_max_where_le({v.data(), v.size()}, {gate.data(), gate.size()}, 1, rng_scalar);
    }
    const uint64_t next_scalar = rng_scalar();
    for (const simd::Isa isa : test::vector_isas()) {
      simd::ScopedIsa guard(isa);
      core::Rng rng_simd(static_cast<uint64_t>(trial));
      const simd::Pick min_simd = simd::pick_min({v.data(), v.size()}, rng_simd);
      const simd::Pick max_simd =
          simd::pick_max_where_le({v.data(), v.size()}, {gate.data(), gate.size()}, 1, rng_simd);
      ASSERT_EQ(min_scalar.index, min_simd.index) << simd::isa_name(isa);
      ASSERT_EQ(min_scalar.value, min_simd.value);
      ASSERT_EQ(max_scalar.index, max_simd.index);
      ASSERT_EQ(max_scalar.value, max_simd.value);
      // The RNG streams must be in the same place afterwards.
      ASSERT_EQ(next_scalar, rng_simd());
    }
  }
}

/// The end-to-end property the whole layer is built around: a seeded
/// search run is the same run whether the SIMD backends are on or off.
/// Returns the scalar reference run.
template <typename Engine, typename Config, typename MakeProblem>
core::RunStats expect_trajectory_identity(MakeProblem make, Config cfg) {
  const auto run = [&](simd::Isa isa) {
    simd::ScopedIsa guard(isa);
    auto p = make();
    Engine engine(p, cfg);
    return engine.solve();
  };
  const core::RunStats scalar_stats = run(simd::Isa::kScalar);
  for (const simd::Isa isa : test::vector_isas()) {
    const core::RunStats simd_stats = run(isa);
    EXPECT_EQ(scalar_stats.solved, simd_stats.solved) << simd::isa_name(isa);
    EXPECT_EQ(scalar_stats.iterations, simd_stats.iterations) << simd::isa_name(isa);
    EXPECT_EQ(scalar_stats.swaps, simd_stats.swaps);
    EXPECT_EQ(scalar_stats.local_minima, simd_stats.local_minima);
    EXPECT_EQ(scalar_stats.resets, simd_stats.resets);
    EXPECT_EQ(scalar_stats.move_evaluations, simd_stats.move_evaluations);
    EXPECT_EQ(scalar_stats.solution, simd_stats.solution);
  }
  return scalar_stats;
}

TEST(SimdTrajectoryIdentity, AdaptiveSearchOnCostas) {
  // Capped so that a wrong lane fails instead of spinning until the ctest
  // timeout; the scalar walks solve in a few hundred iterations, well
  // under the cap.
  for (const int n : {10, 13}) {
    core::AsConfig cfg = costas::recommended_config(n, static_cast<uint64_t>(40 + n));
    cfg.max_iterations = 20000;
    const core::RunStats scalar_stats =
        expect_trajectory_identity<core::AdaptiveSearch<costas::CostasProblem>>(
            [n] { return costas::CostasProblem(n); }, cfg);
    EXPECT_TRUE(scalar_stats.solved) << "n=" << n;
  }
  // The benchmark's size, where the compacted lanes fill two blocks
  // exactly; capped, since a walk to a solution takes ~1e5 iterations.
  core::AsConfig cfg = costas::recommended_config(17, 57);
  cfg.max_iterations = 20000;
  expect_trajectory_identity<core::AdaptiveSearch<costas::CostasProblem>>(
      [] { return costas::CostasProblem(17); }, cfg);
}

TEST(SimdTrajectoryIdentity, TabuSearchOnCostas) {
  core::TsConfig cfg;
  cfg.seed = 51;
  cfg.max_iterations = 400;
  expect_trajectory_identity<core::TabuSearch<costas::CostasProblem>>(
      [] { return costas::CostasProblem(11); }, cfg);
}

TEST(SimdTrajectoryIdentity, HillClimberOnCostas) {
  core::HcConfig cfg;
  cfg.seed = 52;
  cfg.max_iterations = 400;
  expect_trajectory_identity<core::HillClimber<costas::CostasProblem>>(
      [] { return costas::CostasProblem(10); }, cfg);
}

}  // namespace
}  // namespace cas
