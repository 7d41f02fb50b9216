// Engine parameters. Defaults follow the paper's tuned Costas values
// (Sec. IV-B: RL = 1, RP = 5%) and the Adaptive Search library defaults for
// the generic knobs.
#pragma once

#include <cstdint>
#include <limits>

namespace cas::core {

struct AsConfig {
  // --- Tabu memory (Sec. III-A) ---
  // A variable with no improving/acceptable move is frozen for this many
  // iterations.
  int tabu_tenure = 10;

  // --- Plateau policy (Sec. III-B1) ---
  // Probability of accepting a sideways (equal-cost) best move instead of
  // marking the culprit variable tabu. The paper reports 90-95% works well.
  double plateau_probability = 0.93;

  // --- Reset / diversification (Sec. III-B2) ---
  // RL: as soon as this many variables are simultaneously tabu, reset.
  int reset_limit = 1;
  // RP: fraction of variables re-randomized by the generic reset.
  double reset_fraction = 0.05;
  // Use the problem's custom_reset() if it has one (Costas: Sec. IV-B).
  bool use_custom_reset = true;
  // Keep tabu marks across resets. Freezing the reset-triggering culprit
  // for its remaining tenure steers the post-reset descent away from the
  // local minimum just escaped (matches the reference AS library, where
  // marks expire only by iteration count).
  bool keep_tabu_on_reset = false;
  // After a custom reset that did not strictly improve (no "escape"), also
  // apply the generic percentage reset (at CAP sizes and RP=5% this is a
  // single random transposition). The paper's text says "the best
  // [perturbation] is selected"; taken literally that makes the reset
  // deterministic and the search can cycle between one local minimum and
  // its best perturbation forever. The reference implementation does not
  // cycle, so it must carry some residual stochasticity here; this knob is
  // our (documented) equivalent. With it, sequential iteration counts match
  // the paper's Table I closely (bench_table1_sequential prints both).
  bool hybrid_reset = true;

  // --- Restart ---
  // Full restart from a fresh random configuration after this many
  // iterations without a solution. The paper's Costas runs do not restart
  // (the reset procedure suffices), so the default is "never".
  uint64_t restart_interval = std::numeric_limits<uint64_t>::max();

  // --- Budget ---
  // Hard iteration cap; 0 means unlimited (run until solved or stopped).
  uint64_t max_iterations = 0;

  // --- Parallel probe (Sec. V-A) ---
  // Poll the stop token every this many iterations ("some non-blocking
  // tests are involved every c iterations").
  uint64_t probe_interval = 64;

  // PRNG seed for this engine instance.
  uint64_t seed = 42;
};

/// Parameters for the Dialectic Search baseline (Kadioglu & Sellmann 2009).
struct DsConfig {
  // Number of antithesis trials before a full restart from scratch.
  int max_no_improve = 8;
  // Fraction of the permutation shuffled to form the antithesis.
  double perturbation_fraction = 0.35;
  uint64_t max_iterations = 0;  // 0 = unlimited (counted in greedy passes)
  uint64_t probe_interval = 8;
  uint64_t seed = 42;
};

/// Parameters for the random-restart steepest-descent baseline.
struct HcConfig {
  uint64_t max_iterations = 0;
  uint64_t probe_interval = 64;
  uint64_t seed = 42;
};

/// Parameters for the quadratic-neighborhood Tabu Search baseline — the
/// comparator Kadioglu & Sellmann measured Dialectic Search against in
/// Comet (the paper's Sec. IV-C recounts that comparison on the CAP).
struct TsConfig {
  // A swapped pair (i, j) stays tabu for this many iterations.
  int tenure = 12;
  // Aspiration: a tabu move is allowed when it beats the best cost seen.
  bool aspiration = true;
  // Full restart after this many iterations without improving the best
  // cost (0 = never).
  uint64_t stall_restart = 2000;
  uint64_t max_iterations = 0;
  uint64_t probe_interval = 64;
  uint64_t seed = 42;
};

/// Parameters for the permutation genetic algorithm — the population-based
/// contrast to local search (Sec. V mentions population-based methods as
/// the other classical parallel metaheuristic family).
struct GaConfig {
  int population = 64;
  int tournament_k = 3;
  double crossover_probability = 0.9;
  // Probability that an offspring receives one random transposition.
  double mutation_probability = 0.35;
  int elites = 2;  // individuals copied unchanged each generation
  uint64_t max_generations = 0;  // 0 = unlimited
  uint64_t probe_interval = 8;   // probe every this many generations
  uint64_t seed = 42;
};

/// Parameters for the Rickard-Healy style stochastic search (CISS 2006) —
/// the method whose "too simple restart policy" the paper's Sec. II blames
/// for the conclusion that stochastic search cannot scale past n = 26.
struct RhConfig {
  // Restart from scratch after this many consecutive rejected moves (their
  // simple stall-triggered restart).
  int stall_limit = 500;
  // Accept a cost-equal move (random walk on plateaus).
  bool accept_equal = true;
  uint64_t max_iterations = 0;
  uint64_t probe_interval = 64;
  uint64_t seed = 42;
};

}  // namespace cas::core
