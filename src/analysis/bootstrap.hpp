// Percentile-bootstrap confidence intervals for the summary statistics the
// bench tables report, e.g. to qualify the cluster simulator's outputs.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/summary.hpp"
#include "core/rng.hpp"

namespace cas::analysis {

struct Interval {
  double lo = 0;
  double hi = 0;
  double point = 0;
};

/// Percentile bootstrap of `statistic` over `samples`.
inline Interval bootstrap_ci(const std::vector<double>& samples,
                             const std::function<double(const std::vector<double>&)>& statistic,
                             int replicates, double confidence, core::Rng& rng) {
  std::vector<double> stats;
  stats.reserve(static_cast<size_t>(replicates));
  std::vector<double> resample(samples.size());
  for (int r = 0; r < replicates; ++r) {
    for (auto& x : resample) x = samples[static_cast<size_t>(rng.below(samples.size()))];
    stats.push_back(statistic(resample));
  }
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  Interval iv;
  iv.lo = quantile_sorted(stats, alpha);
  iv.hi = quantile_sorted(stats, 1.0 - alpha);
  iv.point = statistic(samples);
  return iv;
}

inline Interval bootstrap_mean_ci(const std::vector<double>& samples, int replicates,
                                  double confidence, core::Rng& rng) {
  return bootstrap_ci(
      samples,
      [](const std::vector<double>& xs) {
        double s = 0;
        for (double x : xs) s += x;
        return s / static_cast<double>(xs.size());
      },
      replicates, confidence, rng);
}

}  // namespace cas::analysis
