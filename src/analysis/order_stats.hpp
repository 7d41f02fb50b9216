// Minimum-of-k order statistics over an empirical run-time distribution.
//
// The key identity behind the cluster simulator (sim/cluster_sim.hpp): with
// independent multi-walk and terminate-on-first-solution, the wall-clock
// time on k cores IS the minimum of k i.i.d. draws from the sequential
// run-time distribution. Given a sample bank, these helpers compute the
// expectation, quantiles and Monte-Carlo draws of that minimum without
// running k physical cores.
#pragma once

#include <vector>

#include "analysis/ecdf.hpp"
#include "core/rng.hpp"

namespace cas::analysis {

/// E[min of k i.i.d. draws] from the empirical distribution (draws with
/// replacement). Closed form over the sorted samples:
///   E = x_(1) + sum_{i=1}^{N-1} (x_(i+1) - x_(i)) * ((N - i)/N)^k.
double expected_min_of_k(const Ecdf& ecdf, int k);

/// Quantile of the min-of-k distribution: F_min(t) = 1 - (1 - F(t))^k, so
/// the q-quantile of the minimum is the (1 - (1-q)^{1/k})-quantile of F.
double quantile_min_of_k(const Ecdf& ecdf, int k, double q);

/// One Monte-Carlo draw of min-of-k: k draws with replacement from the
/// sample bank (exact resampling, no interpolation).
double sample_min_of_k(const Ecdf& ecdf, int k, core::Rng& rng);

/// One smoothed draw via inverse-transform: u ~ U(0,1) mapped through the
/// interpolated quantile function at 1 - (1-u)^{1/k}. Used when k is large
/// relative to the bank size so results are not pinned to the bank minimum.
double sample_min_of_k_smoothed(const Ecdf& ecdf, int k, core::Rng& rng);

/// Many draws at once (exact resampling).
std::vector<double> sample_mins(const Ecdf& ecdf, int k, int count, core::Rng& rng);

}  // namespace cas::analysis
