// The benchmark's passes. Each drives one layer stack through the repo's
// public entry points and fills a Result with its metrics. An untraced run
// calls only its workload's pass; the traced run calls every pass, giving
// its own workload's pass the full time budget and the others a short one
// on the same instance, so every per-layer metric is measured in every
// traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One solve request shape: the workload's instance.
struct Instance {
  int n = 17;
  int walkers = 4;
};

/// solve_n17: closed loop, one request outstanding, through
/// runtime::SolverService with the cache off, over `rungs` walker counts
/// on one seed list. Metrics of the widest rung are the end-to-end ones;
/// with more than one rung the ladder's per-layer metrics follow.
void solve_pass(const Settings& s, Tracer& tracer, int n, const std::vector<int>& rungs,
                double budget_seconds, Result& out);

/// Open-loop mix over loopback against a cas_serve process.
struct MixOptions {
  Instance fresh{14, 2};        // fresh-seed executions (0 walkers = none)
  Instance hot_instance{0, 0};  // hot repeats of this one request (n = 0: of
                                // three small deterministic requests)
  bool monster = true;        // an unbounded n=17 request priced over the budget
  double shed_budget = 0.5;   // walker-seconds (0 = no edge shedding)
  double rate = 8000;         // fixed offered rate, requests/s
  double fixed_seconds = 10;
  bool ladder = true;         // search max_rps after the fixed-rate phase
  double ladder_seconds = 10;
};
void serve_pass(const Settings& s, Tracer& tracer, const MixOptions& mix, Result& out);

/// elastic_n17: dist::World (loopback ranks as threads) + dist::solve_elastic
/// with checkpoints, one hunt at a time, then repeats of the first seeds.
/// dist.compute_share needs core.iters_per_s already in `out`.
void elastic_pass(const Settings& s, Tracer& tracer, Instance inst, int ranks,
                  double budget_seconds, Result& out);

/// Direct timings of the layers' public functions on the instance.
void layer_micro(const Settings& s, Tracer& tracer, Instance inst, Result& out);

}  // namespace perfbench
