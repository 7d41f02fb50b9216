#include "runtime/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/speedup_predictor.hpp"

namespace cas::runtime {

util::Json CostEstimate::to_json() const {
  util::Json j = util::Json::object();
  j["known"] = known;
  j["effective_walkers"] = effective_walkers;
  j["expected_wall_seconds"] = expected_wall_seconds;
  j["expected_walker_seconds"] = expected_walker_seconds;
  j["fit_mu"] = fit.mu;
  j["fit_lambda"] = fit.lambda;
  if (diversification_known) {
    util::Json d = util::Json::object();
    d["mean_escape_chunks_per_reset"] = mean_escape_chunks_per_reset;
    d["p95_escape_chunks_per_reset"] = p95_escape_chunks_per_reset;
    d["expected_reset_fraction"] = expected_reset_fraction;
    d["expected_reset_seconds"] = expected_reset_seconds;
    j["diversification"] = std::move(d);
  }
  return j;
}

void CostModel::record_diversification(const SolveReport& report) {
  if (!report.error.empty() || !report.solved) return;
  const core::RunStats& st = report.winner_stats;
  if (st.wall_seconds <= 0) return;
  DiversificationProfile& prof =
      diversification_[{report.request.problem, report.request.size}];
  prof.runs += 1;
  prof.resets += st.resets;
  prof.reset_seconds += st.reset_seconds;
  prof.wall_seconds += st.wall_seconds;
  // Chunks-per-reset is only defined when the run diversified at all; a
  // reset-free run still sharpens the fraction (it pulls it toward zero).
  if (st.resets > 0)
    prof.escape_chunks.add(static_cast<double>(st.reset_escape_chunks) /
                           static_cast<double>(st.resets));
}

uint64_t CostModel::diversification_samples(const std::string& problem, int size) const {
  const auto it = diversification_.find({problem, size});
  return it == diversification_.end() ? 0 : it->second.runs;
}

CostModel::CostModel() {
  // Costas single-walker mean run time by order, measured on the reference
  // machine (RelWithDebInfo, AS engine, tuned defaults; n = 18 geometric
  // extrapolation). mu = 0: the instances live in the paper's
  // pure-exponential regime. Order-of-magnitude admission defaults —
  // recalibrate from live samples for sharper gating.
  Curve& costas = curves_["costas"];
  for (const auto& [n, mean_seconds] :
       std::vector<std::pair<int, double>>{{8, 5e-5},
                                           {10, 1.5e-4},
                                           {12, 4e-4},
                                           {13, 1.6e-3},
                                           {14, 5e-3},
                                           {15, 2.5e-2},
                                           {16, 0.12},
                                           {17, 1.25},
                                           {18, 10.0}})
    costas[n] = analysis::ShiftedExponential{0.0, mean_seconds};
}

void CostModel::calibrate(const std::string& problem, int size,
                          const std::vector<double>& run_seconds) {
  curves_[problem][size] = analysis::fit_shifted_exponential(run_seconds);
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

  est.known = true;
  est.fit = fit_for(curve->second, resolved.size);
  const int k = std::max(1, resolved.walkers);
  est.effective_walkers = k;
  // Walkers may time-share fewer OS threads; the bill is unchanged but
  // wall time stretches by the oversubscription factor.
  const int concurrency =
      resolved.num_threads > 0 ? std::min<int>(static_cast<int>(resolved.num_threads), k) : k;

  if (resolved.strategy == "neighborhood") {
    // Single-walk parallelism: k scan threads split the rows of ONE walk, so
    // there is no min-of-k latency win to price; machine time is k x wall.
    est.expected_wall_seconds = est.fit.mean();
    est.expected_walker_seconds = k * est.expected_wall_seconds;
  } else {
    est.expected_wall_seconds = analysis::predict_speedup(est.fit, k).expected_time;
    est.expected_walker_seconds = analysis::expected_walker_seconds(est.fit, k);
    if (concurrency < k)
      est.expected_wall_seconds *= static_cast<double>(k) / concurrency;
  }

  // Budget caps bound the bill from above.
  if (resolved.timeout_seconds > 0) {
    est.expected_wall_seconds = std::min(est.expected_wall_seconds, resolved.timeout_seconds);
    est.expected_walker_seconds =
        std::min(est.expected_walker_seconds, concurrency * resolved.timeout_seconds);
  }
  if (resolved.max_iterations > 0 && iterations_per_second_ > 0) {
    const double per_walker_cap = static_cast<double>(resolved.max_iterations) / iterations_per_second_;
    est.expected_wall_seconds =
        std::min(est.expected_wall_seconds, per_walker_cap * k / concurrency);
    est.expected_walker_seconds = std::min(est.expected_walker_seconds, k * per_walker_cap);
  }

  // Diversification pricing: apply the instance's observed reset-time
  // share to the (possibly budget-capped) wall estimate.
  const auto div = diversification_.find({resolved.problem, resolved.size});
  if (div != diversification_.end() && div->second.runs > 0) {
    const DiversificationProfile& prof = div->second;
    est.diversification_known = true;
    est.mean_escape_chunks_per_reset = prof.escape_chunks.mean();
    est.p95_escape_chunks_per_reset = prof.escape_chunks.percentile(0.95);
    est.expected_reset_fraction =
        prof.wall_seconds > 0 ? std::min(1.0, prof.reset_seconds / prof.wall_seconds) : 0.0;
    est.expected_reset_seconds = est.expected_reset_fraction * est.expected_wall_seconds;
  }
  return est;
}

}  // namespace cas::runtime
