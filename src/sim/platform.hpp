// Platform profiles for the paper's four testbeds. The simulator replays
// run *lengths* (iterations, which are hardware-independent) and converts
// them to run *times* with a per-platform speed model.
//
// Speed model: one Adaptive Search iteration on CAP costs O(n^2) elementary
// triangle-cell operations (a move scan touches n-1 candidates x O(n) cells,
// plus the reset machinery), so a platform is characterized by a single
// "cell-operations per second" constant:
//
//     seconds(n, iterations) = iterations * n^2 / cellops_per_second
//
// Constants are calibrated from the paper's own published numbers (Table I
// for the Xeon reference, 1-core columns of Tables III/V for HA8000 and
// GRID'5000, and the Table IV / Table III cross-ratio for JUGENE's PPC450);
// the derivations are the calibration notes in platform.cpp.
#pragma once

#include <string>
#include <vector>

namespace cas::sim {

struct Platform {
  std::string name;
  std::string cpu;
  double cellops_per_second = 0;

  /// Wall-clock seconds this platform takes for `iterations` AS iterations
  /// on a CAP instance of size n.
  [[nodiscard]] double seconds(double iterations, int n) const;

  /// Inverse: iterations achievable in `secs`.
  [[nodiscard]] double iterations_in(double secs, int n) const;
};

/// Reference machine of the paper's Table I (Dell Precision T7500,
/// Intel Xeon W5580 3.2 GHz). Calibrated from Table I itself:
/// 20,536,809 iters in 250.68 s at n=20 -> ~3.3e7 cellops/s.
const Platform& xeon_w5580();

/// HA8000 node (AMD Opteron 8356, 2.3 GHz). Table III 1-core column is
/// ~0.55-0.68x the Xeon -> ~2.0e7 cellops/s.
const Platform& ha8000();

/// GRID'5000 Sophia "Suno" (Dell R410): 1-core column of Table V.
const Platform& grid5000_suno();

/// GRID'5000 Sophia "Helios" (Sun Fire X4100): 1-core column of Table V.
const Platform& grid5000_helios();

/// JUGENE Blue Gene/P node (PowerPC 450, 850 MHz). No 1-core data in the
/// paper; calibrated from the CAP21 Table IV vs Table III cross-ratio
/// (~5.5x slower per core than HA8000).
const Platform& jugene();

/// Scheduler walltime cap in seconds for a job of `cores` cores on this
/// platform, +infinity when unrestricted. The paper's Sec. V-B reports the
/// two policies that shaped its tables: HA8000 jobs are limited to one
/// hour ("the maximum resource utilization is currently limited to one
/// hour because of power savings" — why Table III has no 1-core column for
/// n = 21/22), and JUGENE forces a 30-minute timeout on any job using
/// fewer than 1025 cores (why Table IV starts at 512+ cores and n = 23
/// only appears from 2048 cores).
double scheduler_walltime_cap(const Platform& platform, int cores);

/// Calibrate a profile for the machine running this process by timing the
/// actual solver kernel (used when the harness reports "local" numbers).
Platform calibrate_local(int n = 14, double budget_seconds = 1.0);

const std::vector<Platform>& all_reference_platforms();

}  // namespace cas::sim
