// Weibull/lognormal fitting, AIC/BIC model selection, and the multi-walk
// speedup predictor: parameter recovery on synthetic data, distribution
// identities, and selection correctness when the generating family is
// known.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/distribution_fit.hpp"
#include "analysis/ecdf.hpp"
#include "analysis/speedup_predictor.hpp"
#include "core/rng.hpp"

namespace cas::analysis {
namespace {

std::vector<double> weibull_samples(double shape, double scale, int count, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  const Weibull w{shape, scale};
  for (int i = 0; i < count; ++i) out.push_back(w.quantile(rng.uniform01()));
  return out;
}

std::vector<double> lognormal_samples(double mu, double sigma, int count, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  // Box-Muller on top of our RNG.
  for (int i = 0; i < count; ++i) {
    const double u1 = std::max(rng.uniform01(), 1e-15);
    const double u2 = rng.uniform01();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2 * M_PI * u2);
    out.push_back(std::exp(mu + sigma * z));
  }
  return out;
}

std::vector<double> exponential_samples(double mu, double lambda, int count, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(mu - lambda * std::log1p(-rng.uniform01()));
  return out;
}

// ---------- Weibull distribution object ----------

TEST(Weibull, CdfQuantileRoundTrip) {
  const Weibull w{1.7, 3.2};
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(w.cdf(w.quantile(q)), q, 1e-12) << "q=" << q;
  }
  EXPECT_EQ(w.cdf(0), 0);
  EXPECT_EQ(w.cdf(-1), 0);
  EXPECT_THROW((void)w.quantile(1.0), std::invalid_argument);
}

TEST(Weibull, ShapeOneIsExponential) {
  const Weibull w{1.0, 2.0};
  for (double x : {0.1, 1.0, 5.0}) {
    EXPECT_NEAR(w.cdf(x), 1 - std::exp(-x / 2.0), 1e-12);
  }
  EXPECT_NEAR(w.mean(), 2.0, 1e-12);  // Gamma(2) = 1
}

TEST(Weibull, MeanUsesGamma) {
  const Weibull w{2.0, 1.0};  // Rayleigh-like: mean = Gamma(1.5) = sqrt(pi)/2
  EXPECT_NEAR(w.mean(), std::sqrt(M_PI) / 2, 1e-12);
}

TEST(FitWeibull, RecoversParameters) {
  const auto xs = weibull_samples(1.8, 4.0, 4000, 11);
  const auto fit = fit_weibull(xs);
  EXPECT_NEAR(fit.shape, 1.8, 0.1);
  EXPECT_NEAR(fit.scale, 4.0, 0.2);
}

TEST(FitWeibull, RecoversExponentialAsShapeOne) {
  const auto xs = exponential_samples(0.0, 2.5, 4000, 13);
  const auto fit = fit_weibull(xs);
  EXPECT_NEAR(fit.shape, 1.0, 0.08);
  EXPECT_NEAR(fit.scale, 2.5, 0.15);
}

TEST(FitWeibull, HandlesZerosAndRejectsTinyInput) {
  std::vector<double> xs{0.0, 1.0, 2.0, 0.5, 0.0, 1.5};
  EXPECT_NO_THROW(fit_weibull(xs));
  EXPECT_THROW(fit_weibull({1.0}), std::invalid_argument);
}

// ---------- Lognormal distribution object ----------

TEST(Lognormal, CdfQuantileRoundTrip) {
  const Lognormal ln{0.7, 1.3};
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_NEAR(ln.cdf(ln.quantile(q)), q, 1e-9) << "q=" << q;
  }
  EXPECT_EQ(ln.cdf(0), 0);
  EXPECT_THROW((void)ln.quantile(0.0), std::invalid_argument);
}

TEST(Lognormal, MedianIsExpMu) {
  const Lognormal ln{1.5, 0.8};
  EXPECT_NEAR(ln.quantile(0.5), std::exp(1.5), 1e-6);
}

TEST(FitLognormal, RecoversParameters) {
  const auto xs = lognormal_samples(0.5, 0.9, 4000, 17);
  const auto fit = fit_lognormal(xs);
  EXPECT_NEAR(fit.mu, 0.5, 0.05);
  EXPECT_NEAR(fit.sigma, 0.9, 0.05);
}

// ---------- KS + likelihood sanity ----------

TEST(KsDistance, SmallForMatchingModelLargeForWrongOne) {
  const auto xs = weibull_samples(2.2, 1.0, 1500, 23);
  const auto right = fit_weibull(xs);
  EXPECT_LT(ks_distance(xs, right), 0.05);
  // A deliberately wrong lognormal (not fitted).
  const Lognormal wrong{3.0, 0.1};
  EXPECT_GT(ks_distance(xs, wrong), 0.5);
}

TEST(LogLikelihood, FittedBeatsPerturbed) {
  const auto xs = lognormal_samples(0.0, 1.0, 800, 29);
  const auto fit = fit_lognormal(xs);
  const Lognormal off{fit.mu + 0.8, fit.sigma};
  EXPECT_GT(log_likelihood(xs, fit), log_likelihood(xs, off));
}

// ---------- model selection ----------

TEST(CompareModels, PicksGeneratingFamily) {
  // Strongly non-exponential Weibull (shape 3) and clearly non-Weibull
  // lognormal (big sigma): AIC must identify each.
  EXPECT_EQ(best_model_by_aic(weibull_samples(3.0, 2.0, 2500, 31)), "weibull");
  EXPECT_EQ(best_model_by_aic(lognormal_samples(0.0, 1.5, 2500, 37)), "lognormal");
}

TEST(CompareModels, ExponentialDataPrefersExponentialOverLognormal) {
  // Weibull nests the exponential (shape -> 1), so either of the two may
  // win by a hair on finite samples; the lognormal must not.
  const auto fits = compare_models(exponential_samples(0.5, 3.0, 2500, 41));
  EXPECT_NE(fits.front().name, "lognormal");
  // And the shifted-exponential fit must rank above lognormal.
  size_t se_rank = 99, ln_rank = 99;
  for (size_t i = 0; i < fits.size(); ++i) {
    if (fits[i].name == "shifted-exponential") se_rank = i;
    if (fits[i].name == "lognormal") ln_rank = i;
  }
  EXPECT_LT(se_rank, ln_rank);
}

TEST(CompareModels, SortedByAicAndConsistentFields) {
  const auto xs = exponential_samples(0.0, 1.0, 500, 43);
  const auto fits = compare_models(xs);
  ASSERT_EQ(fits.size(), 3u);
  for (size_t i = 1; i < fits.size(); ++i) EXPECT_LE(fits[i - 1].aic, fits[i].aic);
  for (const auto& f : fits) {
    EXPECT_NEAR(f.aic, 4 - 2 * f.log_lik, 1e-9);
    EXPECT_NEAR(f.bic, 2 * std::log(500.0) - 2 * f.log_lik, 1e-9);
    EXPECT_GT(f.mean, 0);
    EXPECT_GE(f.ks, 0);
    EXPECT_LE(f.ks, 1);
  }
  EXPECT_THROW(compare_models({1.0, 2.0}), std::invalid_argument);
}

// ---------- speedup predictor ----------

TEST(SpeedupPredictor, PureExponentialIsExactlyLinear) {
  const ShiftedExponential fit{0.0, 10.0};
  for (int k : {1, 2, 16, 256, 8192}) {
    const auto p = predict_speedup(fit, k);
    EXPECT_DOUBLE_EQ(p.speedup, static_cast<double>(k));
    EXPECT_DOUBLE_EQ(p.efficiency, 1.0);
  }
  EXPECT_TRUE(std::isinf(efficiency_knee(fit)));
}

TEST(SpeedupPredictor, ShiftCausesSaturation) {
  const ShiftedExponential fit{1.0, 100.0};
  const auto p8 = predict_speedup(fit, 8);
  const auto p1024 = predict_speedup(fit, 1024);
  EXPECT_GT(p8.efficiency, 0.85);       // still near-linear
  EXPECT_LT(p1024.efficiency, 0.1);     // saturated
  // Saturation ceiling: (mu + lambda)/mu = 101.
  EXPECT_LT(p1024.speedup, 101.0);
  EXPECT_GT(predict_speedup(fit, 1 << 20).speedup, 95.0);
}

TEST(SpeedupPredictor, WalkerSecondsAreKMuPlusLambda) {
  // The machine-time bill of first-win multi-walk: k * E[T_k] = k*mu +
  // lambda. In the pure-exponential regime the bill is flat in k —
  // parallelism buys latency for free machine time — while a shift makes
  // width cost real money. This is the quantity the SolverService admits on.
  const ShiftedExponential pure{0.0, 10.0};
  EXPECT_DOUBLE_EQ(expected_walker_seconds(pure, 1), 10.0);
  EXPECT_DOUBLE_EQ(expected_walker_seconds(pure, 512), 10.0);
  const ShiftedExponential shifted{1.0, 100.0};
  for (int k : {1, 4, 64}) {
    EXPECT_NEAR(expected_walker_seconds(shifted, k), k * 1.0 + 100.0, 1e-9);
    EXPECT_NEAR(expected_walker_seconds(shifted, k),
                k * predict_speedup(shifted, k).expected_time, 1e-9);
  }
}

TEST(SpeedupPredictor, KneeFormula) {
  const ShiftedExponential fit{2.0, 50.0};
  // efficiency(k) = (mu+lambda)/(k*mu+lambda); at k = 2 + lambda/mu this is 1/2.
  const double knee = efficiency_knee(fit);
  EXPECT_NEAR(knee, 2 + 50.0 / 2.0, 1e-9);
  const auto p = predict_speedup(fit, static_cast<int>(knee));
  EXPECT_NEAR(p.efficiency, 0.5, 0.01);
}

TEST(SpeedupPredictor, MaxCoresAtEfficiencyInvertsTheCurve) {
  const ShiftedExponential fit{0.5, 20.0};
  for (double eff : {0.9, 0.75, 0.5, 0.25}) {
    const double kmax = max_cores_at_efficiency(fit, eff);
    const auto at = predict_speedup(fit, static_cast<int>(kmax));
    const auto beyond = predict_speedup(fit, static_cast<int>(kmax) + 2);
    EXPECT_GE(at.efficiency, eff - 0.02) << "eff=" << eff;
    EXPECT_LT(beyond.efficiency, eff + 0.02) << "eff=" << eff;
  }
  EXPECT_THROW(max_cores_at_efficiency(fit, 0.0), std::invalid_argument);
  EXPECT_THROW(max_cores_at_efficiency(fit, 1.5), std::invalid_argument);
}

TEST(SpeedupPredictor, EmpiricalMatchesClosedFormOnExponentialBank) {
  // Large synthetic exponential bank: the distribution-free predictor and
  // the parametric one must agree.
  const auto xs = exponential_samples(0.0, 5.0, 20000, 47);
  const Ecdf ecdf(xs);
  const auto fit = fit_shifted_exponential(xs);
  for (int k : {2, 8, 32}) {
    const auto emp = predict_speedup_empirical(ecdf, k);
    const auto par = predict_speedup(fit, k);
    EXPECT_NEAR(emp.speedup / par.speedup, 1.0, 0.12) << "k=" << k;
  }
}

TEST(SpeedupPredictor, CurveHelpersAndValidation) {
  const ShiftedExponential fit{0.1, 10.0};
  const auto curve = predict_speedup_curve(fit, {1, 2, 4});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].cores, 1);
  EXPECT_DOUBLE_EQ(curve[0].speedup, 1.0);
  EXPECT_GT(curve[2].speedup, curve[1].speedup);
  EXPECT_THROW(predict_speedup(fit, 0), std::invalid_argument);

  const Ecdf ecdf(exponential_samples(0.0, 1.0, 100, 53));
  const auto ecurve = predict_speedup_curve_empirical(ecdf, {1, 4});
  ASSERT_EQ(ecurve.size(), 2u);
  EXPECT_NEAR(ecurve[0].speedup, 1.0, 1e-9);
  EXPECT_THROW(predict_speedup_empirical(ecdf, -1), std::invalid_argument);
}

}  // namespace
}  // namespace cas::analysis
