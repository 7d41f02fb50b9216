// Platform profiles, sample banks and the cluster simulator (the
// stand-in for the paper's supercomputer runs).
#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/ecdf.hpp"
#include "analysis/order_stats.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/platform.hpp"
#include "sim/sample_bank.hpp"
#include "util/csv.hpp"
#include "costas/model.hpp"

namespace cas::sim {
namespace {

TEST(Platform, SecondsScaleWithIterationsAndN) {
  const auto& p = xeon_w5580();
  EXPECT_GT(p.seconds(1e6, 20), p.seconds(1e6, 16));
  EXPECT_DOUBLE_EQ(p.seconds(2e6, 18), 2 * p.seconds(1e6, 18));
}

TEST(Platform, InverseRoundTrip) {
  const auto& p = ha8000();
  const double iters = 3.7e6;
  EXPECT_NEAR(p.iterations_in(p.seconds(iters, 19), 19), iters, 1.0);
}

TEST(Platform, ReferenceSpeedOrdering) {
  // Paper-calibrated ordering: Xeon fastest, JUGENE's PPC450 slowest.
  EXPECT_GT(xeon_w5580().cellops_per_second, ha8000().cellops_per_second);
  EXPECT_GT(ha8000().cellops_per_second, jugene().cellops_per_second);
  EXPECT_GT(grid5000_suno().cellops_per_second, jugene().cellops_per_second);
}

TEST(Platform, XeonCalibrationMatchesTableI) {
  // Table I: n=20 averages 20,536,809 iterations in 250.68 s.
  const double secs = xeon_w5580().seconds(20536809, 20);
  EXPECT_NEAR(secs, 250.68, 0.25 * 250.68);  // within 25%
}

TEST(Platform, AllReferencePlatformsPresent) {
  const auto& all = all_reference_platforms();
  EXPECT_EQ(all.size(), 5u);
  for (const auto& p : all) EXPECT_GT(p.cellops_per_second, 0);
}

TEST(Platform, LocalCalibrationProducesPositiveSpeed) {
  const auto p = calibrate_local(/*n=*/12, /*budget_seconds=*/0.3);
  EXPECT_GT(p.cellops_per_second, 1e4);
  EXPECT_EQ(p.name, "local");
}

TEST(SampleBank, CollectsRequestedSamples) {
  BankOptions opts;
  opts.num_samples = 8;
  opts.num_threads = 2;
  const auto bank = collect_costas_bank(10, costas::recommended_config(10), opts);
  EXPECT_EQ(bank.n, 10);
  ASSERT_EQ(bank.iterations.size(), 8u);
  for (double it : bank.iterations) EXPECT_GE(it, 0.0);
}

TEST(SampleBank, DeterministicForMasterSeed) {
  BankOptions opts;
  opts.num_samples = 6;
  opts.num_threads = 2;
  opts.master_seed = 404;
  const auto cfg = costas::recommended_config(9);
  const auto b1 = collect_costas_bank(9, cfg, opts);
  const auto b2 = collect_costas_bank(9, cfg, opts);
  EXPECT_EQ(b1.iterations, b2.iterations);  // slot i gets seed i regardless of threads
}

TEST(SampleBank, CsvRoundTrip) {
  BankOptions opts;
  opts.num_samples = 5;
  const auto bank = collect_costas_bank(8, costas::recommended_config(8), opts);
  const std::string path = testing::TempDir() + "/bank_test.csv";
  save_bank(bank, path);
  const auto loaded = load_bank(path);
  EXPECT_EQ(loaded.n, bank.n);
  EXPECT_EQ(loaded.master_seed, bank.master_seed);
  EXPECT_EQ(loaded.iterations, bank.iterations);
  std::remove(path.c_str());
}

TEST(SampleBank, LoadOrCollectUsesCache) {
  const std::string path = testing::TempDir() + "/bank_cache.csv";
  std::remove(path.c_str());
  BankOptions opts;
  opts.num_samples = 4;
  const auto cfg = costas::recommended_config(8);
  const auto fresh = load_or_collect(8, cfg, opts, path);
  EXPECT_TRUE(cas::util::file_exists(path));
  const auto cached = load_or_collect(8, cfg, opts, path);
  EXPECT_EQ(fresh.iterations, cached.iterations);
  std::remove(path.c_str());
}

TEST(SampleBank, CacheInvalidatedByMismatchedN) {
  const std::string path = testing::TempDir() + "/bank_cache2.csv";
  std::remove(path.c_str());
  BankOptions opts;
  opts.num_samples = 4;
  (void)load_or_collect(8, costas::recommended_config(8), opts, path);
  const auto other = load_or_collect(9, costas::recommended_config(9), opts, path);
  EXPECT_EQ(other.n, 9);  // re-collected, not served from the n=8 cache
  std::remove(path.c_str());
}

// --- cluster simulation ---

SampleBank synthetic_bank(int n, std::vector<double> iters) {
  SampleBank b;
  b.n = n;
  b.iterations = std::move(iters);
  return b;
}

TEST(ClusterSim, MoreCoresNeverSlowerInExpectation) {
  // Core property of the min-of-k model: expected time is non-increasing
  // in the number of cores (the paper's "execution times are halved when
  // the number of cores is doubled" in the exponential regime).
  core::Rng rng(11);
  std::vector<double> iters;
  for (int i = 0; i < 120; ++i) iters.push_back(1e5 * (0.2 - std::log1p(-rng.uniform01())));
  const auto bank = synthetic_bank(18, iters);
  SimOptions opts;
  opts.runs = 400;
  double prev = 1e300;
  for (int k : {1, 2, 8, 32, 128}) {
    const auto cell = simulate_cell(bank, ha8000(), k, opts);
    EXPECT_LE(cell.seconds.mean, prev * 1.10) << "k=" << k;  // 10% MC slack
    prev = cell.seconds.mean;
  }
}

TEST(ClusterSim, NearLinearSpeedupForExponentialBank) {
  // Pure exponential run lengths (mu ~ 0) must show ~2x speedup per core
  // doubling — the headline shape of Tables III-V.
  core::Rng rng(12);
  std::vector<double> iters;
  for (int i = 0; i < 300; ++i) iters.push_back(-2e6 * std::log1p(-rng.uniform01()));
  const auto bank = synthetic_bank(20, iters);
  SimOptions opts;
  opts.runs = 600;
  opts.startup_seconds = 0;
  const auto c32 = simulate_cell(bank, ha8000(), 32, opts);
  const auto c64 = simulate_cell(bank, ha8000(), 64, opts);
  const auto c128 = simulate_cell(bank, ha8000(), 128, opts);
  EXPECT_NEAR(c32.seconds.mean / c64.seconds.mean, 2.0, 0.5);
  EXPECT_NEAR(c32.seconds.mean / c128.seconds.mean, 4.0, 1.2);
}

TEST(ClusterSim, MedianBelowMeanForHeavyTailBank) {
  // The paper observes median < average throughout Tables III-V.
  core::Rng rng(13);
  std::vector<double> iters;
  for (int i = 0; i < 200; ++i) iters.push_back(-5e5 * std::log1p(-rng.uniform01()));
  const auto bank = synthetic_bank(19, iters);
  SimOptions opts;
  opts.runs = 500;
  const auto cell = simulate_cell(bank, grid5000_suno(), 4, opts);
  EXPECT_LT(cell.seconds.median, cell.seconds.mean);
}

TEST(ClusterSim, ExpectedSecondsMatchesSimulatedMean) {
  core::Rng rng(14);
  std::vector<double> iters;
  for (int i = 0; i < 150; ++i) iters.push_back(1e4 + 1e6 * rng.uniform01());
  const auto bank = synthetic_bank(17, iters);
  SimOptions opts;
  opts.runs = 4000;
  opts.mode = ResampleMode::kEmpirical;
  const auto cell = simulate_cell(bank, ha8000(), 8, opts);
  EXPECT_NEAR(cell.seconds.mean, cell.expected_seconds, cell.expected_seconds * 0.05);
}

TEST(ClusterSim, FittedTailModeHandlesHugeCoreCounts) {
  core::Rng rng(15);
  std::vector<double> iters;
  for (int i = 0; i < 100; ++i) iters.push_back(-3e7 * std::log1p(-rng.uniform01()));
  const auto bank = synthetic_bank(22, iters);
  SimOptions opts;
  opts.runs = 200;
  opts.mode = ResampleMode::kFittedTail;
  const auto c512 = simulate_cell(bank, jugene(), 512, opts);
  const auto c8192 = simulate_cell(bank, jugene(), 8192, opts);
  EXPECT_GT(c512.seconds.mean, c8192.seconds.mean);
  EXPECT_GT(c8192.seconds.mean, 0.0);
}

TEST(ClusterSim, HybridSwitchesToFitForLargeK) {
  // With a 100-sample bank, hybrid must use empirical for k=16 and the
  // fitted tail for k=8192 (empirical would pin at the bank minimum).
  core::Rng rng(16);
  std::vector<double> iters;
  for (int i = 0; i < 100; ++i) iters.push_back(1e5 - 9e4 * std::log1p(-rng.uniform01()));
  const auto bank = synthetic_bank(21, iters);
  SimOptions opts;
  opts.runs = 300;
  opts.startup_seconds = 0;
  opts.mode = ResampleMode::kHybrid;
  const auto big = simulate_cell(bank, jugene(), 8192, opts);
  // Fitted tail can dip below the empirical bank minimum; the empirical
  // mode cannot. Verify the hybrid result is not pinned at the minimum.
  analysis::Ecdf F(bank.iterations);
  const double floor_secs = jugene().seconds(F.min(), bank.n);
  EXPECT_LT(big.seconds.mean, floor_secs * 1.05);
}

TEST(ClusterSim, RowCoversAllRequestedCoreCounts) {
  const auto bank = synthetic_bank(18, {1e5, 2e5, 3e5, 4e5, 5e5});
  SimOptions opts;
  opts.runs = 50;
  const auto row = simulate_row(bank, ha8000(), {1, 32, 64}, opts);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].cores, 1);
  EXPECT_EQ(row[2].cores, 64);
  for (const auto& cell : row) EXPECT_EQ(cell.n, 18);
}

TEST(ClusterSim, DeterministicForSeed) {
  const auto bank = synthetic_bank(18, {1e5, 2e5, 3e5, 4e5, 5e5, 6e5, 7e5});
  SimOptions opts;
  opts.runs = 20;
  opts.seed = 99;
  const auto a = simulate_times(bank, ha8000(), 16, opts);
  const auto b = simulate_times(bank, ha8000(), 16, opts);
  EXPECT_EQ(a, b);
}

TEST(ClusterSim, ModeNames) {
  EXPECT_STREQ(resample_mode_name(ResampleMode::kEmpirical), "empirical");
  EXPECT_STREQ(resample_mode_name(ResampleMode::kFittedTail), "fitted-tail");
  EXPECT_STREQ(resample_mode_name(ResampleMode::kHybrid), "hybrid");
}

}  // namespace
}  // namespace cas::sim
