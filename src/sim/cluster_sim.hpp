// Cluster-scale multi-walk simulator — the stand-in for the paper's
// HA8000 / GRID'5000 / JUGENE runs.
//
// Premise (paper Sec. V-A + Verhoeven & Aarts): with independent multi-walk
// and terminate-on-first-solution, the wall-clock time of a k-core run is
// the minimum of k i.i.d. draws from the sequential run-time distribution;
// communication is a single end-of-run message. Given a recorded run-length
// bank and a platform speed profile, a "k-core run" is therefore simulated
// as min-of-k resampling — no 8192-core machine required.
//
// Two resampling modes:
//   * kEmpirical — exact bootstrap from the bank (faithful for k << bank
//     size; pinned to the bank minimum for very large k),
//   * kFittedTail — draws from the shifted-exponential fit of the bank
//     (the paper's own Fig. 4 shows this fit is excellent; appropriate for
//     k large relative to the bank),
//   * kHybrid (default) — empirical while k <= bank.size()/4, fitted above.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/summary.hpp"
#include "sim/platform.hpp"
#include "sim/sample_bank.hpp"

namespace cas::sim {

enum class ResampleMode { kEmpirical, kFittedTail, kHybrid };

struct SimOptions {
  int runs = 50;  // the paper reports 50 executions per table cell
  ResampleMode mode = ResampleMode::kHybrid;
  uint64_t seed = 7;
  // Per-walker startup overhead in seconds (process launch, first
  // configuration build). The paper calls deployment time negligible; keep
  // tiny but nonzero so huge k cannot produce exactly-zero times.
  double startup_seconds = 1e-4;
  // Scheduler walltime cap in seconds; runs exceeding it are *censored*
  // (killed by the batch system), exactly like the paper's HA8000 one-hour
  // and JUGENE 30-minute limits (Sec. V-B). 0 = no cap. Use
  // scheduler_walltime_cap() for the per-platform policy.
  double walltime_cap_seconds = 0;
};

struct CellResult {
  int n = 0;
  int cores = 0;
  analysis::Summary seconds;     // distribution over the *completed* runs
  double expected_seconds = 0;   // closed-form E[min-of-k] (empirical mode)
  int censored = 0;              // runs killed by the walltime cap
  int completed = 0;             // runs that finished under the cap
};

/// Simulate `opts.runs` independent k-core multi-walk executions on
/// `platform` and summarize the wall-clock times.
CellResult simulate_cell(const SampleBank& bank, const Platform& platform, int cores,
                         const SimOptions& opts);

/// Whole table row: one instance size across several core counts.
std::vector<CellResult> simulate_row(const SampleBank& bank, const Platform& platform,
                                     const std::vector<int>& core_counts,
                                     const SimOptions& opts);

/// Raw simulated times (used by the TTT figure). Ignores the walltime cap.
std::vector<double> simulate_times(const SampleBank& bank, const Platform& platform, int cores,
                                   const SimOptions& opts);

/// Whether a (bank, platform, cores) cell is runnable under a walltime cap:
/// the *expected* k-core time must fit (the criterion that reproduces which
/// cells the paper could measure at all — e.g. no 1-core CAP 21/22 rows on
/// HA8000 under its one-hour limit).
bool cell_feasible(const SampleBank& bank, const Platform& platform, int cores,
                   double walltime_cap_seconds);

const char* resample_mode_name(ResampleMode mode);

}  // namespace cas::sim
