#include "sim/platform.hpp"

#include <algorithm>
#include <limits>

#include "core/adaptive_search.hpp"
#include "costas/model.hpp"
#include "util/timer.hpp"

namespace cas::sim {

double Platform::seconds(double iterations, int n) const {
  return iterations * static_cast<double>(n) * static_cast<double>(n) / cellops_per_second;
}

double Platform::iterations_in(double secs, int n) const {
  return secs * cellops_per_second / (static_cast<double>(n) * static_cast<double>(n));
}

// Calibration notes:
//   Xeon W5580 : Table I n=18/19/20 gives it/s * n^2 = 36.7e6 / 33.0e6 /
//                32.8e6 cellops/s; we use 33e6.
//   HA8000     : Table III 1-core avg vs Table I avg: 3.49/6.76 (n=18),
//                29.46/54.54 (n=19), 250.68/367.24 (n=20) -> factor ~0.59
//                of Xeon -> 19.5e6.
//   Suno       : Table V: 5.28/49.5/372 s -> factor ~0.62 -> 20.5e6.
//   Helios     : Table V: 8.16/52/444 s -> factor ~0.50 -> 16.5e6.
//   JUGENE     : CAP21 @512 cores avg 43.66 s vs HA8000 @256 cores 16.01 s;
//                with exponential run times T_k ~ lambda/k, lambda_J =
//                43.66*512 = 22.4e3 s vs lambda_H = 4.1e3 s -> 5.46x slower
//                per core -> 3.6e6.

const Platform& xeon_w5580() {
  static const Platform p{"Xeon-W5580", "Intel Xeon W5580 3.20 GHz (paper Table I)", 33.0e6};
  return p;
}

const Platform& ha8000() {
  static const Platform p{"HA8000", "AMD Opteron 8356 2.3 GHz (paper Table III)", 19.5e6};
  return p;
}

const Platform& grid5000_suno() {
  static const Platform p{"Suno", "Dell PowerEdge R410 (GRID'5000 Sophia, Table V)", 20.5e6};
  return p;
}

const Platform& grid5000_helios() {
  static const Platform p{"Helios", "Sun Fire X4100 (GRID'5000 Sophia, Table V)", 16.5e6};
  return p;
}

const Platform& jugene() {
  static const Platform p{"JUGENE", "IBM PowerPC 450 850 MHz (Blue Gene/P, Table IV)", 3.6e6};
  return p;
}

double scheduler_walltime_cap(const Platform& platform, int cores) {
  if (platform.name == "HA8000") return 3600.0;  // one-hour normal service limit
  if (platform.name == "JUGENE" && cores <= 1024) return 1800.0;  // 30-min small-job cap
  return std::numeric_limits<double>::infinity();
}

Platform calibrate_local(int n, double budget_seconds) {
  // Run the real kernel for ~budget_seconds and count iterations: one walk,
  // advanced in chunks (a fresh walk once it solves). A chunk at most
  // doubles the last one and never outruns the time left at the rate
  // measured so far, so the budget holds from ~5 us iterations (n = 17) to
  // the ~9 ms resets of n = 128.
  costas::CostasProblem problem(n);
  core::AdaptiveSearch<costas::CostasProblem> engine(
      problem, costas::recommended_config(n, /*seed=*/0xCA11B7A7Eull));
  util::WallTimer timer;
  uint64_t total_iters = 0;
  uint64_t chunk = 1;
  engine.begin_walk();
  while (timer.seconds() < budget_seconds) {
    const uint64_t before = engine.walk_stats().iterations;
    const bool solved = engine.advance_walk(chunk);
    total_iters += engine.walk_stats().iterations - before;
    if (solved) engine.begin_walk();
    const double spent = timer.seconds();
    const double fits = (budget_seconds - spent) * static_cast<double>(total_iters) /
                        std::max(spent, 1e-9);
    chunk = static_cast<uint64_t>(std::clamp(fits, 1.0, 2.0 * static_cast<double>(chunk)));
  }
  const double elapsed = timer.seconds();
  Platform p;
  p.name = "local";
  p.cpu = "this machine (measured)";
  p.cellops_per_second =
      static_cast<double>(total_iters) * n * n / (elapsed > 0 ? elapsed : 1e-9);
  return p;
}

const std::vector<Platform>& all_reference_platforms() {
  static const std::vector<Platform> v{xeon_w5580(), ha8000(), grid5000_suno(),
                                       grid5000_helios(), jugene()};
  return v;
}

}  // namespace cas::sim
