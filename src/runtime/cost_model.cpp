#include "runtime/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/speedup_predictor.hpp"
#include "sim/platform.hpp"

namespace cas::runtime {

namespace {

/// Length of the Costas rate probe, and the weight its rate carries against
/// the busy seconds of recorded runs.
constexpr double kProbeSeconds = 0.01;

}  // namespace

util::Json CostEstimate::to_json() const {
  util::Json j = util::Json::object();
  j["known"] = known;
  j["effective_walkers"] = effective_walkers;
  j["expected_wall_seconds"] = expected_wall_seconds;
  j["expected_walker_seconds"] = expected_walker_seconds;
  j["fit_mu_iterations"] = fit.mu;
  j["fit_lambda_iterations"] = fit.lambda;
  j["iterations_per_second"] = iterations_per_second;
  return j;
}

CostModel::CostModel() {
  // Costas single-walker iterations to solution by order: the
  // analysis::fit_shifted_exponential fit of
  //   sim::collect_costas_bank(n, costas::recommended_config(n), opts)
  // with opts.master_seed = 20120521 (the BankOptions default) and
  // opts.num_samples = 1000 for n <= 17, 300 for n = 18. Iteration counts
  // are the same on every host and ISA, so any host reproduces them.
  struct Point {
    int n;
    double mu, lambda;
  };
  Curve& costas = curves_["costas"];
  for (const Point& p : {Point{8, 0, 5.325}, Point{9, 0, 11.73}, Point{10, 1, 16.74},
                         Point{11, 1, 39.05}, Point{12, 1, 114.3}, Point{13, 2, 290.2},
                         Point{14, 4, 1141}, Point{15, 10, 4252}, Point{16, 6, 20775},
                         Point{17, 42, 105837}, Point{18, 3648, 590797}})
    costas[p.n] = analysis::ShiftedExponential{p.mu, p.lambda};
}

void CostModel::calibrate(const std::string& problem, int size,
                          const std::vector<double>& iterations) {
  curves_[problem][size] = analysis::fit_shifted_exponential(iterations);
}

void CostModel::record_rate(const std::string& problem, int size, double iterations,
                            double busy_seconds) {
  Rate& r = rates_[{problem, size}];
  r.iterations += iterations;
  r.seconds += busy_seconds;
}

double CostModel::rate_for(const std::string& problem, int size) const {
  auto it = rates_.find({problem, size});
  if (it == rates_.end()) {
    // Only the Costas kernel has a probe; any other rate must be recorded.
    if (problem != "costas") return 0;
    ++probes_;
    Rate probed;  // cached even when the probe fails, so it runs once
    try {
      const sim::Platform host = sim::calibrate_local(size, kProbeSeconds);
      probed = {host.iterations_in(kProbeSeconds, size), kProbeSeconds};
    } catch (...) {
      // Unpriced: an empty rate.
    }
    it = rates_.emplace(std::make_pair(problem, size), probed).first;
  }
  const Rate& r = it->second;
  return r.seconds > 0 ? r.iterations / r.seconds : 0;
}

analysis::ShiftedExponential CostModel::fit_for(const Curve& curve, int size) const {
  const auto exact = curve.find(size);
  if (exact != curve.end()) return exact->second;

  // Log-linear in size between/beyond calibration points: the Sec. II
  // density collapse makes geometric growth the right prior for lambda.
  const auto interp = [](const std::pair<int, analysis::ShiftedExponential>& a,
                         const std::pair<int, analysis::ShiftedExponential>& b, int s) {
    const double t = static_cast<double>(s - a.first) / (b.first - a.first);
    analysis::ShiftedExponential f;
    f.lambda = std::exp(std::log(a.second.lambda) +
                        t * (std::log(b.second.lambda) - std::log(a.second.lambda)));
    f.mu = std::max(0.0, a.second.mu + t * (b.second.mu - a.second.mu));
    return f;
  };
  const auto hi = curve.upper_bound(size);
  if (hi == curve.begin()) {  // below the curve: extrapolate down the first segment
    const auto a = *curve.begin();
    if (curve.size() == 1) return a.second;
    return interp(a, *std::next(curve.begin()), size);
  }
  if (hi == curve.end()) {  // above the curve: extrapolate up the last segment
    const auto b = *std::prev(curve.end());
    if (curve.size() == 1) return b.second;
    return interp(*std::prev(curve.end(), 2), b, size);
  }
  return interp(*std::prev(hi), *hi, size);
}

CostEstimate CostModel::estimate(const SolveRequest& resolved) const {
  CostEstimate est;
  const auto curve = curves_.find(resolved.problem);
  if (curve == curves_.end() || curve->second.empty()) return est;  // unknown: admit
  const double rate = rate_for(resolved.problem, resolved.size);
  if (!(rate > 0)) return est;

  est.known = true;
  est.fit = fit_for(curve->second, resolved.size);
  est.iterations_per_second = rate;
  const int k = std::max(1, resolved.walkers);
  est.effective_walkers = k;
  // Walkers may time-share fewer OS threads; the bill is unchanged but
  // wall time stretches by the oversubscription factor.
  const int concurrency =
      resolved.num_threads > 0
          ? static_cast<int>(std::min(resolved.num_threads, static_cast<unsigned>(k)))
          : k;

  double wall_iterations = analysis::predict_speedup(est.fit, k).expected_time;
  double walker_iterations = analysis::expected_walker_seconds(est.fit, k);  // k*mu + lambda
  if (concurrency < k) wall_iterations *= static_cast<double>(k) / concurrency;
  // Budget caps bound the bill from above: an iteration cap per walker...
  if (resolved.max_iterations > 0) {
    const double cap = static_cast<double>(resolved.max_iterations);
    wall_iterations = std::min(wall_iterations, cap * k / concurrency);
    walker_iterations = std::min(walker_iterations, cap * k);
  }
  est.expected_wall_seconds = wall_iterations / rate;
  est.expected_walker_seconds = walker_iterations / rate;
  // ...and a wall-clock timeout.
  if (resolved.timeout_seconds > 0) {
    est.expected_wall_seconds = std::min(est.expected_wall_seconds, resolved.timeout_seconds);
    est.expected_walker_seconds =
        std::min(est.expected_walker_seconds, concurrency * resolved.timeout_seconds);
  }
  return est;
}

}  // namespace cas::runtime
