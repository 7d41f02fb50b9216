// Shifted-exponential fitting, KS distance, and the time-to-target pipeline
// behind the paper's Figure 4.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/exponential_fit.hpp"
#include "analysis/ttt.hpp"
#include "core/rng.hpp"

namespace cas::analysis {
namespace {

std::vector<double> draw_shifted_exp(double mu, double lambda, int n, core::Rng& rng) {
  std::vector<double> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    xs.push_back(mu - lambda * std::log1p(-rng.uniform01()));
  }
  return xs;
}

TEST(ShiftedExponential, CdfShape) {
  const ShiftedExponential d{2.0, 3.0};
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.0);
  EXPECT_NEAR(d.cdf(2.0 + 3.0 * std::log(2.0)), 0.5, 1e-12);
  EXPECT_NEAR(d.cdf(1e9), 1.0, 1e-12);
}

TEST(ShiftedExponential, QuantileInvertsCdf) {
  const ShiftedExponential d{1.5, 4.0};
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(q)), q, 1e-12);
  }
}

TEST(ShiftedExponential, QuantileRejectsBadQ) {
  const ShiftedExponential d{0, 1};
  EXPECT_THROW((void)d.quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)d.quantile(-0.1), std::invalid_argument);
}

TEST(ShiftedExponential, MeanIsShiftPlusScale) {
  EXPECT_DOUBLE_EQ((ShiftedExponential{2, 5}).mean(), 7.0);
}

TEST(ShiftedExponential, MinOfKScalesLambda) {
  // min of k iid shifted-exponentials: same shift, scale/k — the identity
  // behind linear multi-walk speedup (Verhoeven & Aarts via the paper).
  const ShiftedExponential d{1.0, 8.0};
  const auto m = d.min_of(8);
  EXPECT_DOUBLE_EQ(m.mu, 1.0);
  EXPECT_DOUBLE_EQ(m.lambda, 1.0);
  EXPECT_THROW((void)d.min_of(0), std::invalid_argument);
}

TEST(ShiftedExponential, MinOfKMatchesMonteCarlo) {
  core::Rng rng(1);
  const ShiftedExponential d{2.0, 10.0};
  const auto dm = d.min_of(16);
  double mc = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    double mn = 1e300;
    for (int k = 0; k < 16; ++k) {
      mn = std::min(mn, d.quantile(rng.uniform01()));
    }
    mc += mn;
  }
  mc /= trials;
  EXPECT_NEAR(mc, dm.mean(), 0.05);
}

TEST(Fit, RecoversParametersOnSyntheticData) {
  core::Rng rng(2);
  const auto xs = draw_shifted_exp(5.0, 20.0, 4000, rng);
  const auto fit = fit_shifted_exponential(xs);
  EXPECT_NEAR(fit.mu, 5.0, 0.1);       // mu_hat = min -> converges from above
  EXPECT_NEAR(fit.lambda, 20.0, 1.5);  // lambda_hat = mean - min
}

TEST(Fit, RequiresTwoSamples) {
  EXPECT_THROW(fit_shifted_exponential({1.0}), std::invalid_argument);
}

TEST(Fit, BiasCorrectedShiftsMuDownByLambdaOverN) {
  core::Rng rng(21);
  const auto xs = draw_shifted_exp(10.0, 5.0, 100, rng);
  const auto plain = fit_shifted_exponential(xs);
  const auto corrected = fit_shifted_exponential_bias_corrected(xs);
  EXPECT_NEAR(corrected.mu, plain.mu - plain.lambda / 100.0, 1e-9);
  // Mean is invariant under the correction.
  EXPECT_NEAR(corrected.mean(), plain.mean(), 1e-9);
  // And the corrected shift is the better estimate of the true mu = 10.
  EXPECT_LT(std::abs(corrected.mu - 10.0), std::abs(plain.mu - 10.0) + 1e-9);
}

TEST(Fit, BiasCorrectedClampsAtZero) {
  // Near-zero true shift: correction must not produce a negative mu.
  core::Rng rng(22);
  const auto xs = draw_shifted_exp(0.0, 5.0, 50, rng);
  const auto corrected = fit_shifted_exponential_bias_corrected(xs);
  EXPECT_GE(corrected.mu, 0.0);
}

TEST(Fit, DegenerateConstantSamples) {
  const auto fit = fit_shifted_exponential({3.0, 3.0, 3.0});
  EXPECT_DOUBLE_EQ(fit.mu, 3.0);
  EXPECT_GT(fit.lambda, 0.0);  // guarded tiny scale, no division by zero
}

TEST(Ks, ZeroForPerfectFitLimit) {
  // KS distance of samples against their own generating distribution is
  // small for large n.
  core::Rng rng(3);
  const auto xs = draw_shifted_exp(0.0, 1.0, 5000, rng);
  const ShiftedExponential d{0.0, 1.0};
  EXPECT_LT(ks_distance(xs, d), 0.03);
}

TEST(Ks, LargeForWrongDistribution) {
  core::Rng rng(4);
  const auto xs = draw_shifted_exp(0.0, 1.0, 2000, rng);
  const ShiftedExponential wrong{0.0, 10.0};
  EXPECT_GT(ks_distance(xs, wrong), 0.3);
}

TEST(Ks, EmptySampleThrows) {
  EXPECT_THROW(ks_distance({}, ShiftedExponential{0, 1}), std::invalid_argument);
}

TEST(KsPValue, HighForGoodFitLowForBad) {
  core::Rng rng(5);
  const auto xs = draw_shifted_exp(1.0, 2.0, 800, rng);
  const auto good = fit_shifted_exponential(xs);
  const double p_good = ks_p_value(ks_distance(xs, good), xs.size());
  const double p_bad = ks_p_value(ks_distance(xs, ShiftedExponential{1.0, 20.0}), xs.size());
  EXPECT_GT(p_good, 0.01);
  EXPECT_LT(p_bad, 1e-6);
  EXPECT_LT(p_good, 1.0 + 1e-12);
}

// --- TTT pipeline (Figure 4) ---

TEST(Ttt, SeriesIsSortedWithPlottingPositions) {
  auto s = make_ttt("test", {3.0, 1.0, 2.0});
  ASSERT_EQ(s.times.size(), 3u);
  EXPECT_TRUE(std::is_sorted(s.times.begin(), s.times.end()));
  EXPECT_NEAR(s.probs[0], 0.5 / 3, 1e-12);
  EXPECT_NEAR(s.probs[2], 2.5 / 3, 1e-12);
}

TEST(Ttt, ExponentialDataFitsWell) {
  core::Rng rng(6);
  auto s = make_ttt("exp", draw_shifted_exp(0.5, 5.0, 500, rng));
  EXPECT_LT(s.ks, 0.08);
  EXPECT_GT(s.ks_p, 1e-4);
}

TEST(Ttt, SuccessProbabilityWithinBudget) {
  auto s = make_ttt("x", {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(success_probability_within(s, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(success_probability_within(s, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(success_probability_within(s, 10.0), 1.0);
}

TEST(Ttt, RenderedPlotMentionsSeries) {
  core::Rng rng(7);
  auto s1 = make_ttt("32 cores", draw_shifted_exp(0, 4, 100, rng));
  auto s2 = make_ttt("64 cores", draw_shifted_exp(0, 2, 100, rng));
  const std::string plot = render_ttt_plot({s1, s2});
  EXPECT_NE(plot.find("32 cores"), std::string::npos);
  EXPECT_NE(plot.find("64 cores"), std::string::npos);
  EXPECT_NE(plot.find("P(solved within t)"), std::string::npos);
}

TEST(Ttt, MoreCoresShiftDistributionLeft) {
  // Simulated multi-walk: min-of-k of the same base distribution. The TTT
  // curves must be stochastically ordered (paper Fig. 4's visual message).
  core::Rng rng(8);
  const auto base = draw_shifted_exp(0.0, 10.0, 4000, rng);
  auto min_of = [&](int k) {
    std::vector<double> out;
    for (size_t i = 0; i + static_cast<size_t>(k) <= base.size(); i += static_cast<size_t>(k)) {
      double mn = base[i];
      for (int j = 1; j < k; ++j) mn = std::min(mn, base[i + static_cast<size_t>(j)]);
      out.push_back(mn);
    }
    return out;
  };
  auto s1 = make_ttt("k=1", min_of(1));
  auto s4 = make_ttt("k=4", min_of(4));
  auto s16 = make_ttt("k=16", min_of(16));
  const double budget = 5.0;
  EXPECT_LT(success_probability_within(s1, budget), success_probability_within(s4, budget));
  EXPECT_LT(success_probability_within(s4, budget), success_probability_within(s16, budget));
}

}  // namespace
}  // namespace cas::analysis
