// FuzzResetParity — the batched candidate-evaluation subsystem held against
// its serial oracles:
//   * CostasProblem::evaluate_batch == per-candidate stateless evaluation,
//     lane by lane, under every installable ISA and at the AVX2 row
//     kernel's bitset word boundaries (n = 16/17, 32/33, 64/65) — and
//     bit-identical ACROSS ISAs including the truncated partials of
//     bound-pruned chunks (the chunking and abort points are part of the
//     contract, not an implementation detail),
//   * the core::evaluate_batch serial default == recorded per-candidate
//     costs for the six side problems and the do/undo adapter,
//   * the batched custom_reset == a faithful reimplementation of the
//     historical serial consider-loop (same adopted permutation, same
//     escape verdict, same RNG consumption), under every ISA a caller can
//     request, a tier of another architecture family included,
// plus the end-to-end property the subsystem must preserve: seeded
// AS / neighborhood / cooperative runs with custom resets are bit-identical
// under every installable ISA, and two seeded walks reproduce trajectories
// recorded from an earlier implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/delta_adapter.hpp"
#include "core/problem.hpp"
#include "core/rng.hpp"
#include "costas/checker.hpp"
#include "costas/model.hpp"
#include "par/cooperative.hpp"
#include "par/neighborhood.hpp"
#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/queens.hpp"
#include "simd/simd.hpp"
#include "isa_tiers.hpp"

namespace cas {
namespace {

using core::CandidateBatch;
using core::Cost;

// The Costas model is the only native batched evaluator; everything else
// must go through the serial swap-sync default.
static_assert(core::HasBatchEval<costas::CostasProblem>);
static_assert(!core::HasBatchEval<problems::QueensProblem>);
static_assert(!core::HasBatchEval<core::DoUndoAdapter<costas::CostasProblem>>);
// The cooperative wrapper forwards both batched APIs of its inner problem.
static_assert(core::HasBatchEval<par::CooperativeProblem<costas::CostasProblem>>);
static_assert(core::HasDeltaRow<par::CooperativeProblem<costas::CostasProblem>>);

/// Fill a batch with `count` random rearrangements of p's permutation
/// (shuffles, window rotations, modular shifts — the reset families' shape).
void fill_random_candidates(const costas::CostasProblem& p, int count, core::Rng& rng,
                            CandidateBatch& batch) {
  const int n = p.size();
  batch.reset(n, count);
  std::vector<int> cand;
  for (int c = 0; c < count; ++c) {
    cand = p.permutation();
    switch (rng.below(3)) {
      case 0:
        rng.shuffle(cand);
        break;
      case 1: {
        const int lo = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
        const int hi = lo + static_cast<int>(rng.below(static_cast<uint64_t>(n - lo)));
        if (hi > lo) std::rotate(cand.begin() + lo, cand.begin() + lo + 1, cand.begin() + hi + 1);
        break;
      }
      default: {
        const int k = 1 + static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
        for (int& v : cand) v = (v - 1 + k) % n + 1;
        break;
      }
    }
    batch.append(cand);
  }
}

TEST(FuzzResetParity, CostasEvaluateBatchMatchesSerialUnderEveryIsa) {
  const std::vector<simd::Isa> tiers = test::installable_isas();
  core::Rng rng(2024);
  // A row has 2n - 1 difference slots, which the AVX2 kernel counts in
  // 64-slot windows of two 32-bit words: 16/17 straddle the word boundary,
  // 32/33 and 64/65 the first and second window boundaries; 64 is the
  // registry's Costas maximum.
  for (const int n : {5, 8, 11, 14, 16, 17, 18, 23, 26, 32, 33, 64, 65}) {
    for (const bool chang : {true, false}) {
      costas::CostasProblem p(n, {costas::ErrFunction::kQuadratic, chang});
      p.randomize(rng);
      CandidateBatch batch;
      for (int trial = 0; trial < 4; ++trial) {
        const int count = 1 + static_cast<int>(rng.below(static_cast<uint64_t>(2 * n + 7)));
        fill_random_candidates(p, count, rng, batch);
        std::vector<Cost> expect(static_cast<size_t>(count));
        std::vector<int> cand(static_cast<size_t>(n));
        for (int c = 0; c < count; ++c) {
          batch.extract(c, cand);
          expect[static_cast<size_t>(c)] = p.evaluate(cand);
        }
        // Unbounded call, under every installable tier. Cross-chunk
        // pruning is part of the contract: lanes that provably cannot win
        // may report truncated partials, so the per-lane pins are (a) the
        // first 8-lane chunk is exact (no earlier bound exists), (b) a
        // truncation never under-runs the tightest bound its chunk could
        // have seen (the min exact cost of earlier chunks) nor over-runs
        // the true cost, and (c) the batch minimum and its first achiever
        // are exact.
        for (const simd::Isa isa : tiers) {
          simd::ScopedIsa guard(isa);
          std::vector<Cost> out(static_cast<size_t>(count), -1);
          p.evaluate_batch(batch, std::numeric_limits<Cost>::max(), {out.data(), out.size()});
          Cost earlier_min = std::numeric_limits<Cost>::max();
          for (int c = 0; c < count; ++c) {
            const Cost got = out[static_cast<size_t>(c)];
            const Cost want = expect[static_cast<size_t>(c)];
            if (c % CandidateBatch::kLaneBlock == 0 && c > 0)
              for (int e = c - CandidateBatch::kLaneBlock; e < c; ++e)
                earlier_min = std::min(earlier_min, expect[static_cast<size_t>(e)]);
            if (c < CandidateBatch::kLaneBlock) {
              ASSERT_EQ(got, want) << "n=" << n << " chang=" << chang
                                   << " isa=" << simd::isa_name(isa) << " lane=" << c;
            } else {
              ASSERT_LE(got, want) << "partials never exceed the true cost: n=" << n
                                   << " isa=" << simd::isa_name(isa) << " lane=" << c;
              ASSERT_TRUE(got == want || got >= earlier_min)
                  << "n=" << n << " isa=" << simd::isa_name(isa) << " lane=" << c
                  << " got=" << got << " want=" << want;
            }
          }
          const auto got_min = std::min_element(out.begin(), out.end()) - out.begin();
          const auto want_min = std::min_element(expect.begin(), expect.end()) - expect.begin();
          ASSERT_EQ(got_min, want_min) << "isa=" << simd::isa_name(isa);
          ASSERT_EQ(out[static_cast<size_t>(got_min)], expect[static_cast<size_t>(want_min)]);
        }
        // Bounded: truncated partials included, the filled row must be
        // bit-identical across ISAs (same chunks, same abort points).
        const Cost bound =
            *std::min_element(expect.begin(), expect.end()) +
            static_cast<Cost>(rng.below(static_cast<uint64_t>(2 * n * n + 1)));
        std::vector<Cost> scalar_out(static_cast<size_t>(count), -1);
        {
          simd::ScopedIsa guard(simd::Isa::kScalar);
          p.evaluate_batch(batch, bound, {scalar_out.data(), scalar_out.size()});
        }
        for (const simd::Isa isa : test::vector_isas()) {
          simd::ScopedIsa guard(isa);
          std::vector<Cost> simd_out(static_cast<size_t>(count), -2);
          p.evaluate_batch(batch, bound, {simd_out.data(), simd_out.size()});
          ASSERT_EQ(scalar_out, simd_out)
              << "n=" << n << " bound=" << bound << " isa=" << simd::isa_name(isa);
        }
        // Pruning soundness: the true minimum and its first achiever are
        // preserved verbatim whenever the bound admits it.
        const Cost true_min = *std::min_element(expect.begin(), expect.end());
        if (true_min < bound) {
          const auto got =
              std::min_element(scalar_out.begin(), scalar_out.end()) - scalar_out.begin();
          const auto want = std::min_element(expect.begin(), expect.end()) - expect.begin();
          ASSERT_EQ(scalar_out[static_cast<size_t>(got)], true_min);
          ASSERT_EQ(got, want) << "first achiever must survive pruning";
        }
      }
    }
  }
}

/// Candidates staged by walking a scratch copy through random swaps; the
/// recorded costs are the oracle the serial default must reproduce.
template <core::LocalSearchProblem P>
void expect_serial_default_matches(P p, uint64_t seed, const char* tag) {
  core::Rng rng(seed);
  p.randomize(rng);
  const int n = p.size();
  const int count = 5;
  CandidateBatch batch;
  batch.reset(n, count);
  std::vector<Cost> expect;
  {
    P walker(p);
    std::vector<int> config(static_cast<size_t>(n));
    for (int c = 0; c < count; ++c) {
      for (int s = 0; s < 3; ++s) {
        const int a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
        int b = static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
        if (b >= a) ++b;
        walker.apply_swap(a, b);
      }
      for (int i = 0; i < n; ++i) config[static_cast<size_t>(i)] = walker.value(i);
      batch.append(config);
      expect.push_back(walker.cost());
    }
  }
  std::vector<Cost> out(static_cast<size_t>(count), -1);
  core::evaluate_batch(p, batch, std::numeric_limits<Cost>::max(), {out.data(), out.size()});
  for (int c = 0; c < count; ++c)
    ASSERT_EQ(out[static_cast<size_t>(c)], expect[static_cast<size_t>(c)])
        << tag << " lane=" << c;
}

TEST(FuzzResetParity, SerialDefaultMatchesRecordedCosts) {
  expect_serial_default_matches(problems::QueensProblem(19), 31, "queens");
  expect_serial_default_matches(problems::AllIntervalProblem(14), 32, "all_interval");
  expect_serial_default_matches(problems::LangfordProblem(8), 33, "langford");
  expect_serial_default_matches(problems::MagicSquareProblem(4), 34, "magic_square");
  expect_serial_default_matches(problems::PartitionProblem(16), 35, "partition");
  expect_serial_default_matches(problems::AlphaProblem(), 36, "alpha");
  expect_serial_default_matches(core::DoUndoAdapter<costas::CostasProblem>(costas::CostasProblem{12}),
                                37, "do_undo_costas");
  // The native Costas member is reachable through the same free function.
  expect_serial_default_matches(costas::CostasProblem(13), 38, "costas_native");
}

/// Faithful reimplementation of the historical serial custom reset
/// (per-candidate evaluate_bounded with a running best, first-strict-
/// improvement escape) — the oracle the batched pipeline must match
/// decision for decision and draw for draw.
bool serial_custom_reset_oracle(costas::CostasProblem& p, core::Rng& rng) {
  const Cost entry_cost = p.cost();
  const int n = p.size();
  Cost best_cost = std::numeric_limits<Cost>::max();
  std::vector<int> best_perm;
  auto consider = [&](const std::vector<int>& cand) {
    const Cost c = p.evaluate_bounded(cand, best_cost);
    if (c < best_cost) {
      best_cost = c;
      best_perm = cand;
    }
    return best_cost < entry_cost;
  };
  auto accept_best = [&](bool escaped) {
    if (!best_perm.empty()) p.set_permutation(best_perm);
    return escaped;
  };
  const std::span<const Cost> errs = p.errors();
  int m = 0;
  {
    Cost best_err = -1;
    int ties = 0;
    for (int i = 0; i < n; ++i) {
      const Cost e = errs[static_cast<size_t>(i)];
      if (e > best_err) {
        best_err = e;
        m = i;
        ties = 1;
      } else if (e == best_err) {
        ++ties;
        if (rng.below(static_cast<uint64_t>(ties)) == 0) m = i;
      }
    }
  }
  std::vector<int> scratch;
  auto try_rotated = [&](int lo, int hi, bool left) {
    scratch = p.permutation();
    auto first = scratch.begin() + lo;
    auto last = scratch.begin() + hi + 1;
    if (left)
      std::rotate(first, first + 1, last);
    else
      std::rotate(first, last - 1, last);
    return consider(scratch);
  };
  for (int e = m + 1; e < n; ++e) {
    if (try_rotated(m, e, true)) return accept_best(true);
    if (try_rotated(m, e, false)) return accept_best(true);
  }
  for (int s = 0; s < m; ++s) {
    if (try_rotated(s, m, true)) return accept_best(true);
    if (try_rotated(s, m, false)) return accept_best(true);
  }
  const int consts[4] = {1, 2, n - 2, n - 3};
  for (int c : consts) {
    if (c <= 0 || c >= n) continue;
    scratch = p.permutation();
    for (int& v : scratch) v = (v - 1 + c) % n + 1;
    if (consider(scratch)) return accept_best(true);
  }
  {
    scratch.clear();
    for (int i = 0; i < n; ++i)
      if (i != m && errs[static_cast<size_t>(i)] > 0) scratch.push_back(i);
    std::vector<int> chosen;
    for (int t = 0; t < 3 && !scratch.empty(); ++t) {
      const size_t idx = static_cast<size_t>(rng.below(scratch.size()));
      chosen.push_back(scratch[idx]);
      scratch[idx] = scratch.back();
      scratch.pop_back();
    }
    for (int e : chosen) {
      if (e == 0) continue;
      std::vector<int> cand = p.permutation();
      std::rotate(cand.begin(), cand.begin() + 1, cand.begin() + e + 1);
      if (consider(cand)) return accept_best(true);
    }
  }
  return accept_best(false);
}

/// custom_reset against the serial oracle on `trials` random states per
/// size, under whatever tier is installed.
void expect_custom_reset_matches_oracle(std::initializer_list<int> sizes, int trials) {
  const char* const isa = simd::isa_name(simd::active_isa());
  core::Rng state_rng(77);
  for (const int n : sizes) {
    costas::CostasProblem p(n);
    for (int trial = 0; trial < trials; ++trial) {
      p.randomize(state_rng);
      costas::CostasProblem oracle(n);
      oracle.set_permutation(p.permutation());
      const uint64_t seed = 9000 + static_cast<uint64_t>(100 * n + trial);
      core::Rng rng_batched(seed);
      core::Rng rng_oracle(seed);
      const bool escaped_batched = p.custom_reset(rng_batched);
      const bool escaped_oracle = serial_custom_reset_oracle(oracle, rng_oracle);
      ASSERT_EQ(escaped_batched, escaped_oracle)
          << "n=" << n << " trial=" << trial << " isa=" << isa;
      ASSERT_EQ(p.permutation(), oracle.permutation())
          << "n=" << n << " trial=" << trial << " isa=" << isa;
      ASSERT_EQ(p.cost(), oracle.cost());
      // Same RNG consumption: the streams must be in the same place.
      ASSERT_EQ(rng_batched(), rng_oracle());
      ASSERT_TRUE(costas::is_permutation(p.permutation()));
    }
  }
}

TEST(FuzzResetParity, CustomResetMatchesSerialOracle) {
  for (const simd::Isa isa : test::installable_isas()) {
    simd::ScopedIsa guard(isa);
    expect_custom_reset_matches_oracle({3, 6, 9, 13, 17, 21, 32, 33}, 40);
  }
}

TEST(FuzzResetParity, EveryRequestedIsaInstallsAnAvailableTier) {
  // A request for a tier this build or host cannot run (NEON on x86-64, an
  // x86 tier on aarch64) must install one it can, and the batched reset
  // must still match the oracle under it.
  const std::vector<simd::Isa> tiers = test::installable_isas();
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kNeon, simd::Isa::kSse42, simd::Isa::kAvx2}) {
    simd::ScopedIsa guard(isa);
    ASSERT_NE(std::find(tiers.begin(), tiers.end(), simd::active_isa()), tiers.end())
        << "requested " << simd::isa_name(isa) << ", installed "
        << simd::isa_name(simd::active_isa());
    expect_custom_reset_matches_oracle({9, 17}, 10);
  }
}

/// Seeded engine runs through reset-heavy searches must be bit-identical
/// under every installable tier — the reset pipeline included.
TEST(ResetTrajectoryIdentity, AdaptiveSearchWithCustomResets) {
  for (const int n : {12, 14}) {
    const auto cfg = costas::recommended_config(n, static_cast<uint64_t>(70 + n));
    const auto run = [&](simd::Isa isa) {
      simd::ScopedIsa guard(isa);
      costas::CostasProblem p(n);
      core::AdaptiveSearch<costas::CostasProblem> engine(p, cfg);
      return engine.solve();
    };
    const core::RunStats scalar_stats = run(simd::Isa::kScalar);
    EXPECT_GT(scalar_stats.resets, 0u);
    for (const simd::Isa isa : test::vector_isas()) {
      const core::RunStats simd_stats = run(isa);
      EXPECT_EQ(scalar_stats.solved, simd_stats.solved) << simd::isa_name(isa);
      EXPECT_EQ(scalar_stats.iterations, simd_stats.iterations) << simd::isa_name(isa);
      EXPECT_EQ(scalar_stats.resets, simd_stats.resets);
      EXPECT_EQ(scalar_stats.custom_reset_escapes, simd_stats.custom_reset_escapes);
      EXPECT_EQ(scalar_stats.reset_candidates, simd_stats.reset_candidates);
      EXPECT_EQ(scalar_stats.solution, simd_stats.solution);
    }
  }
}

TEST(ResetTrajectoryIdentity, NeighborhoodSearchWithCustomResets) {
  const int n = 12;
  const auto cfg = costas::recommended_config(n, 91);
  const auto run = [&](simd::Isa isa) {
    simd::ScopedIsa guard(isa);
    costas::CostasProblem p(n);
    par::ParallelNeighborhoodSearch<costas::CostasProblem> engine(p, cfg, 2);
    return engine.solve();
  };
  const core::RunStats scalar_stats = run(simd::Isa::kScalar);
  for (const simd::Isa isa : test::vector_isas()) {
    const core::RunStats simd_stats = run(isa);
    EXPECT_EQ(scalar_stats.solved, simd_stats.solved) << simd::isa_name(isa);
    EXPECT_EQ(scalar_stats.iterations, simd_stats.iterations) << simd::isa_name(isa);
    EXPECT_EQ(scalar_stats.resets, simd_stats.resets);
    EXPECT_EQ(scalar_stats.custom_reset_escapes, simd_stats.custom_reset_escapes);
    EXPECT_EQ(scalar_stats.solution, simd_stats.solution);
  }
}

TEST(ResetTrajectoryIdentity, CooperativeSingleWalkerWithCustomResets) {
  // One walker keeps the blackboard deterministic (no publish races), so
  // the full cooperative wrapper — forwarded batched row + batched reset —
  // must reproduce the identical trajectory under every tier.
  const int n = 12;
  auto make_run = [&](simd::Isa isa) {
    simd::ScopedIsa guard(isa);
    return par::run_multiwalk_cooperative<costas::CostasProblem>(
        1, 2025, [&](int) { return costas::CostasProblem(n); },
        [&](int, uint64_t seed) { return costas::recommended_config(n, seed); },
        /*adopt_probability=*/0.5);
  };
  const auto scalar_res = make_run(simd::Isa::kScalar);
  for (const simd::Isa isa : test::vector_isas()) {
    const auto simd_res = make_run(isa);
    EXPECT_EQ(scalar_res.solved, simd_res.solved) << simd::isa_name(isa);
    EXPECT_EQ(scalar_res.winner_stats.iterations, simd_res.winner_stats.iterations);
    EXPECT_EQ(scalar_res.winner_stats.resets, simd_res.winner_stats.resets);
    EXPECT_EQ(scalar_res.winner_stats.custom_reset_escapes,
              simd_res.winner_stats.custom_reset_escapes);
    EXPECT_EQ(scalar_res.winner_stats.solution, simd_res.winner_stats.solution);
  }
}

/// Two seeded Adaptive Search walks with the paper's config, pinned to the
/// trajectories recorded by running commit de53474 (the pairwise-compare
/// AVX2 row kernel and per-lane candidate copies, before the bitset row
/// kernel and the position-major candidate fill). The identity tests above
/// compare tiers within one build; these pins also catch a change that
/// moves every tier the same way.
TEST(ResetTrajectoryIdentity, MatchesRecordedTrajectories) {
  struct Pinned {
    int n;
    uint64_t seed;
    uint64_t max_iterations;  // 0: run to a solution
    bool solved;
    uint64_t iterations, resets, custom_reset_escapes, reset_candidates, reset_escape_chunks;
    std::vector<int> final_permutation;
  };
  const Pinned walks[] = {
      {17, 1720, 50000, false, 50000, 26260, 9153, 919801, 71025,
       {3, 17, 11, 7, 8, 4, 10, 13, 5, 2, 12, 6, 15, 14, 16, 1, 9}},
      {15, 1501, 0, true, 7744, 4241, 1564, 129878, 8104,
       {11, 8, 2, 6, 12, 15, 7, 14, 4, 3, 5, 10, 1, 13, 9}},
  };
  for (const simd::Isa isa : test::installable_isas()) {
    simd::ScopedIsa guard(isa);
    for (const Pinned& want : walks) {
      auto cfg = costas::recommended_config(want.n, want.seed);
      cfg.max_iterations = want.max_iterations;
      costas::CostasProblem p(want.n);
      core::AdaptiveSearch<costas::CostasProblem> engine(p, cfg);
      const core::RunStats got = engine.solve();
      const std::string tag =
          "n=" + std::to_string(want.n) + " isa=" + simd::isa_name(isa);
      EXPECT_EQ(got.solved, want.solved) << tag;
      EXPECT_EQ(got.iterations, want.iterations) << tag;
      EXPECT_EQ(got.resets, want.resets) << tag;
      EXPECT_EQ(got.custom_reset_escapes, want.custom_reset_escapes) << tag;
      EXPECT_EQ(got.reset_candidates, want.reset_candidates) << tag;
      EXPECT_EQ(got.reset_escape_chunks, want.reset_escape_chunks) << tag;
      EXPECT_EQ(p.permutation(), want.final_permutation) << tag;
    }
  }
}

/// The reset-phase counters must actually be populated by a live search.
TEST(ResetTrajectoryIdentity, ResetPhaseCountersPopulated) {
  costas::CostasProblem p(14);
  core::AdaptiveSearch<costas::CostasProblem> engine(p, costas::recommended_config(14, 5));
  const auto st = engine.solve();
  ASSERT_TRUE(st.solved);
  EXPECT_GT(st.resets, 0u);
  EXPECT_GT(st.reset_candidates, 0u);
  EXPECT_GT(st.reset_seconds, 0.0);
  EXPECT_LT(st.reset_seconds, st.wall_seconds + 1e-9);
}

}  // namespace
}  // namespace cas
