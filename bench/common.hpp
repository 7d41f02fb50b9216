// Shared infrastructure for the per-table/per-figure bench binaries:
// the paper's published numbers (for side-by-side shape comparison), the
// sample-bank cache layout, and helpers to collect sequential run
// statistics in parallel.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/summary.hpp"
#include "core/adaptive_search.hpp"
#include "core/chaotic_seed.hpp"
#include "core/stats.hpp"
#include "costas/model.hpp"
#include "par/thread_pool.hpp"
#include "sim/sample_bank.hpp"
#include "util/strings.hpp"

namespace cas::bench {

// ---------------------------------------------------------------------------
// Paper reference data (verbatim from the tables of Diaz et al. 2012).
// Negative value == entry absent in the paper.
// ---------------------------------------------------------------------------

struct PaperTable1Row {
  int n;
  double avg_time, min_time, max_time;
  double avg_iters, min_iters, max_iters;
  double avg_locmin, min_locmin, max_locmin;
  int ratio;  // avg/min (time, or iterations when min time is 0)
};

inline const std::vector<PaperTable1Row>& paper_table1() {
  static const std::vector<PaperTable1Row> rows{
      {16, 0.08, 0.00, 0.45, 12665, 212, 69894, 6853, 117, 37904, 60},
      {17, 0.59, 0.02, 2.39, 73430, 2591, 294580, 38982, 1361, 156154, 30},
      {18, 3.49, 0.03, 19.81, 395838, 2789, 2254001, 207067, 1538, 1178875, 116},
      {19, 29.46, 0.31, 127.78, 2694319, 28911, 11619940, 1372671, 14798, 5922204, 95},
      {20, 250.68, 3.89, 1097.06, 20536809, 319368, 89791761, 10278723, 159127, 44945485, 66},
  };
  return rows;
}

struct PaperTable2Row {
  int n;
  double ds_time, as_time, ratio;  // seconds on a Pentium-III 733 MHz
};

inline const std::vector<PaperTable2Row>& paper_table2() {
  static const std::vector<PaperTable2Row> rows{
      {13, 0.05, 0.01, 5.00}, {14, 0.26, 0.05, 5.20},  {15, 1.31, 0.24, 5.46},
      {16, 7.74, 0.97, 7.98}, {17, 53.40, 7.58, 7.04}, {18, 370.00, 44.49, 8.32},
  };
  return rows;
}

/// avg/med times per (n, cores); -1 == not reported.
struct PaperParallelCell {
  double avg = -1, med = -1, min = -1, max = -1;
};
using PaperParallelTable = std::map<int, std::map<int, PaperParallelCell>>;

inline const PaperParallelTable& paper_table3_ha8000() {
  static const PaperParallelTable t{
      {18,
       {{1, {6.76, 4.25, 0.23, 22.81}},
        {32, {0.25, 0.18, 0.00, 1.07}},
        {64, {0.23, 0.18, 0.00, 0.90}},
        {128, {0.24, 0.20, 0.00, 0.94}},
        {256, {0.26, 0.23, 0.00, 0.78}}}},
      {19,
       {{1, {54.54, 43.74, 0.51, 212.96}},
        {32, {1.84, 1.45, 0.00, 6.62}},
        {64, {1.00, 0.76, 0.03, 5.24}},
        {128, {0.72, 0.57, 0.02, 3.48}},
        {256, {0.55, 0.44, 0.01, 2.22}}}},
      {20,
       {{1, {367.24, 305.79, 9.51, 1807.78}},
        {32, {13.82, 11.53, 0.05, 54.26}},
        {64, {8.66, 5.06, 0.03, 36.98}},
        {128, {3.74, 2.36, 0.03, 23.87}},
        {256, {2.18, 1.44, 0.06, 9.21}}}},
      {21,
       {{32, {160.42, 114.06, 1.63, 654.79}},
        {64, {81.72, 53.04, 2.13, 335.66}},
        {128, {38.56, 30.68, 1.49, 145.59}},
        {256, {16.01, 10.12, 0.73, 93.13}}}},
      {22,
       {{32, {501.23, 450.45, 0.23, 1550.25}},
        {64, {249.73, 178.85, 0.35, 935.51}},
        {128, {128.47, 99.62, 0.26, 406.15}},
        {256, {60.80, 55.90, 1.58, 196.26}}}},
  };
  return t;
}

inline const PaperParallelTable& paper_table4_jugene() {
  static const PaperParallelTable t{
      {21,
       {{512, {43.66, 30.31, 0.85, 274.69}},
        {1024, {27.86, 23.67, 1.46, 108.14}},
        {2048, {10.21, 5.56, 0.27, 93.89}},
        {4096, {5.97, 4.47, 0.13, 21.98}},
        {8192, {2.84, 2.07, 0.19, 12.92}}}},
      {22,
       {{512, {265.12, 166.47, 1.34, 1831.96}},
        {1024, {148.80, 79.63, 1.95, 638.34}},
        {2048, {76.24, 63.24, 0.81, 277.96}},
        {4096, {36.12, 28.00, 0.60, 154.89}},
        {8192, {20.00, 13.41, 0.30, 84.66}}}},
      {23,
       {{2048, {633.09, 522.68, 2.41, 3527.80}},
        {4096, {354.69, 213.22, 9.32, 1873.07}},
        {8192, {170.38, 124.67, 4.94, 748.29}}}},
  };
  return t;
}

inline const PaperParallelTable& paper_table5_suno() {
  static const PaperParallelTable t{
      {18,
       {{1, {5.28, -1, 0.01, 20.73}},
        {32, {0.16, 0.11, 0.00, 0.64}},
        {64, {0.083, 0.065, 0.00, 0.34}},
        {128, {0.056, 0.04, 0.00, 0.19}},
        {256, {0.038, 0.03, 0.00, 0.13}}}},
      {19,
       {{1, {49.5, -1, 0.67, 279}},
        {32, {1.37, 1.09, 0.02, 9.41}},
        {64, {0.59, 0.38, 0.01, 2.74}},
        {128, {0.41, 0.33, 0.00, 1.82}},
        {256, {0.219, 0.155, 0.02, 1.12}}}},
      {20,
       {{1, {372, -1, 4.45, 1456}},
        {32, {12.2, 10.6, 0.14, 50.6}},
        {64, {5.86, 4.63, 0.07, 26}},
        {128, {2.67, 2.01, 0.00, 19.2}},
        {256, {1.79, 1.16, 0.01, 8.5}}}},
      {21,
       {{1, {3743, -1, 265, 10955}},
        {32, {171, 108, 5.56, 893}},
        {64, {51.4, 38.5, 0.24, 235}},
        {128, {34.9, 21.8, 0.27, 173}},
        {256, {17.2, 10.8, 1.05, 63.3}}}},
      {22,
       {{32, {731, 428, 24.7, 6357}},
        {64, {381, 286, 13.1, 1482}},
        {128, {200, 135, 5.23, 656}},
        {256, {103, 69.5, 2.17, 451}}}},
  };
  return t;
}

inline const PaperParallelTable& paper_table5_helios() {
  static const PaperParallelTable t{
      {18,
       {{1, {8.16, -1, 0.13, 37.5}},
        {32, {0.24, 0.19, 0.00, 1.08}},
        {64, {0.11, 0.06, 0.00, 0.46}},
        {128, {0.06, 0.04, 0.00, 0.26}}}},
      {19,
       {{1, {52, -1, 0.72, 234.45}},
        {32, {2.3, 1.27, 0.05, 10}},
        {64, {0.87, 0.60, 0.00, 4.14}},
        {128, {0.40, 0.25, 0.01, 2.11}}}},
      {20,
       {{1, {444, -1, 5.71, 2540}},
        {32, {14.3, 8.28, 0.21, 139}},
        {64, {7.63, 5.16, 0.01, 41.7}},
        {128, {4.52, 2.76, 0.01, 18.7}}}},
      {21,
       {{1, {5391, -1, 96.6, 18863}},
        {32, {153, 111, 2.18, 657}},
        {64, {101, 68.6, 0.45, 560}},
        {128, {36.7, 24.1, 0.29, 161}}}},
      {22,
       {{32, {1218, 819, 78.9, 4635}},
        {64, {520, 276, 4.12, 3184}},
        {128, {220, 133, 3.01, 1670}}}},
  };
  return t;
}

// ---------------------------------------------------------------------------
// Run-statistics collection
// ---------------------------------------------------------------------------

/// Full sequential RunStats for `reps` independent runs, collected on a
/// thread pool (each run is independent: the multi-walk property again).
inline std::vector<core::RunStats> run_sequential_batch(int n, int reps, uint64_t master_seed,
                                                        const costas::CostasOptions& mopts = {},
                                                        core::AsConfig* base_cfg = nullptr,
                                                        unsigned threads = 0) {
  std::vector<core::RunStats> out(static_cast<size_t>(reps));
  const auto seeds =
      core::ChaoticSeedSequence::generate(master_seed, static_cast<size_t>(reps));
  par::ThreadPool pool(threads);
  std::vector<std::future<void>> futs;
  futs.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    futs.push_back(pool.submit([&, r] {
      costas::CostasProblem problem(n, mopts);
      core::AsConfig cfg = base_cfg ? *base_cfg : costas::recommended_config(n);
      cfg.seed = seeds[static_cast<size_t>(r)];
      core::AdaptiveSearch<costas::CostasProblem> engine(problem, cfg);
      out[static_cast<size_t>(r)] = engine.solve();
    }));
  }
  for (auto& f : futs) f.get();
  return out;
}

inline std::vector<double> times_of(const std::vector<core::RunStats>& stats) {
  std::vector<double> t;
  t.reserve(stats.size());
  for (const auto& s : stats) t.push_back(s.wall_seconds);
  return t;
}

inline std::vector<double> iterations_of(const std::vector<core::RunStats>& stats) {
  std::vector<double> t;
  t.reserve(stats.size());
  for (const auto& s : stats) t.push_back(static_cast<double>(s.iterations));
  return t;
}

/// Bank cache path shared by the parallel-table benches so banks are
/// collected once per (n, samples, seed) and reused across binaries.
inline std::string bank_cache_path(int n, int samples, uint64_t seed) {
  return util::strf("cas_bank_n%d_s%d_seed%llu.csv", n, samples,
                    static_cast<unsigned long long>(seed));
}

inline const char* kBenchBannerNote =
    "Reproduction of Diaz et al., 'Parallel local search for the Costas Array\n"
    "Problem' (IPPS 2012). Paper values are printed alongside for shape\n"
    "comparison; absolute times differ with hardware.\n";

inline void print_banner(const char* title) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================================\n");
  std::printf("%s\n", kBenchBannerNote);
}

}  // namespace cas::bench
