// Umbrella header for the CAS library — everything a downstream user needs
// to solve Costas Array Problems with the paper's method:
//
//   #include "cas.hpp"
//   cas::costas::CostasProblem problem(18);
//   cas::core::AdaptiveSearch engine(problem, cas::costas::recommended_config(18));
//   auto stats = engine.solve();
//
// Sub-headers remain individually includable; this aggregates the public
// API surface and pins the library version.
#pragma once

// Core engines and the problem concept.
#include "core/adaptive_search.hpp"
#include "core/chaotic_seed.hpp"
#include "core/config.hpp"
#include "core/delta_adapter.hpp"
#include "core/dialectic_search.hpp"
#include "core/genetic.hpp"
#include "core/hill_climber.hpp"
#include "core/candidate_batch.hpp"
#include "core/problem.hpp"
#include "core/rickard_healy.hpp"
#include "core/rng.hpp"
#include "core/simulated_annealing.hpp"
#include "core/stats.hpp"
#include "core/tabu_search.hpp"

// The Costas Array Problem domain.
#include "costas/ambiguity.hpp"
#include "costas/checker.hpp"
#include "costas/construction.hpp"
#include "costas/cp_solver.hpp"
#include "costas/database.hpp"
#include "costas/enumerate.hpp"
#include "costas/estimate.hpp"
#include "costas/model.hpp"
#include "costas/symmetry.hpp"

// SIMD kernel layer (runtime ISA dispatch, reductions, selection).
#include "simd/reduce.hpp"
#include "simd/select.hpp"
#include "simd/simd.hpp"

// Parallel runtimes.
#include "par/multiwalk.hpp"
#include "par/thread_pool.hpp"

// The unified solver runtime: registries, strategies, SolverService.
#include "runtime/runtime.hpp"

// Run-time distribution analysis.
#include "analysis/distribution_fit.hpp"
#include "analysis/ecdf.hpp"
#include "analysis/exponential_fit.hpp"
#include "analysis/order_stats.hpp"
#include "analysis/speedup.hpp"
#include "analysis/speedup_predictor.hpp"
#include "analysis/summary.hpp"
#include "analysis/ttt.hpp"

namespace cas {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

/// The paper this library reproduces.
inline constexpr const char* kPaperCitation =
    "Diaz, Richoux, Caniou, Codognet, Abreu: \"Parallel local search for the "
    "Costas Array Problem\", IEEE IPDPS Workshops (IPPS), 2012";

}  // namespace cas
