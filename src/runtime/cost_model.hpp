// Cost-estimated admission for the SolverService.
//
// The paper's Sec. V-B observation — run lengths are (shifted-)exponentially
// distributed — is what makes request cost PREDICTABLE: the same fitted
// distribution that predicts multi-walk speedup (analysis/speedup_predictor)
// predicts the expected machine-time bill of a request. For first-win
// multi-walk over a fit {mu, lambda} the bill is
//
//     E[walker-iterations] = k * E[T_k] = k*mu + lambda
//
// i.e. parallelism buys latency, but the machine-time floor is lambda no
// matter how many walkers race. A serving layer can therefore admit, queue,
// or reject a request BEFORE burning pool time on it.
//
// Prices come in two halves, the way the sim layer replays the paper's
// tables (sim::SampleBank iteration counts, sim::Platform speeds):
//   * iterations to solution, which do not depend on the host: per-problem
//     curves of single-walker fits keyed by instance size. Costas ships fits
//     of sim sample banks; sizes off the curve extrapolate geometrically —
//     the solution-density collapse of Sec. II makes log-linear growth the
//     right prior. calibrate() installs a fit of measured iteration samples.
//   * iterations per walker-second on this host, per (problem, size). The
//     first estimate() of a Costas size times the kernel for ~10 ms with
//     sim::calibrate_local and caches the rate; record_rate() folds in what
//     executions measured. Other problems are priced once a rate is recorded.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exponential_fit.hpp"
#include "runtime/spec.hpp"

namespace cas::runtime {

struct CostEstimate {
  /// False when no curve covers the problem or no rate is known for the
  /// size — the service admits such requests (the model only gates what it
  /// can price).
  bool known = false;
  int effective_walkers = 1;
  double expected_wall_seconds = 0;    // E[T_k] for the strategy/walkers
  double expected_walker_seconds = 0;  // k * E[T_k] — the machine-time bill
  /// Single-walker fit of iterations to solution the estimate came from.
  analysis::ShiftedExponential fit;
  /// The host rate that turned iterations into seconds.
  double iterations_per_second = 0;

  [[nodiscard]] util::Json to_json() const;
};

/// Not synchronized: SolverService serializes every call under its mutex.
class CostModel {
 public:
  /// Built-in calibration (the Costas curve). Measures nothing.
  CostModel();

  /// Price a resolve()d request. A Costas size with no rate yet is probed
  /// on its first call; a probe that fails leaves it unpriced. Budget caps
  /// tighten the estimate: a wall-clock timeout bounds the bill at
  /// k * timeout, an iteration cap at k * max_iterations.
  [[nodiscard]] CostEstimate estimate(const SolveRequest& resolved) const;

  /// Fit measured single-walker iterations to solution and install the
  /// result as the curve point for (problem, size), overriding any built-in
  /// value. Requires >= 2 samples (analysis::fit_shifted_exponential).
  void calibrate(const std::string& problem, int size, const std::vector<double>& iterations);

  /// Add one walker's `iterations` over its `busy_seconds` to the
  /// (problem, size) rate: total iterations / total busy seconds over the
  /// probe and every recorded run.
  void record_rate(const std::string& problem, int size, double iterations, double busy_seconds);

  /// Rate probes run so far: at most one per Costas size.
  [[nodiscard]] int probes() const { return probes_; }

 private:
  /// size -> single-walker fit of iterations to solution.
  using Curve = std::map<int, analysis::ShiftedExponential>;
  struct Rate {
    double iterations = 0;
    double seconds = 0;
  };

  [[nodiscard]] analysis::ShiftedExponential fit_for(const Curve& curve, int size) const;
  /// Iterations per walker-second, probing a Costas size on first use;
  /// 0 when unknown.
  [[nodiscard]] double rate_for(const std::string& problem, int size) const;

  std::map<std::string, Curve> curves_;
  mutable std::map<std::pair<std::string, int>, Rate> rates_;
  mutable int probes_ = 0;
};

}  // namespace cas::runtime
