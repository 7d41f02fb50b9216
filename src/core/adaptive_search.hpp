// Adaptive Search (Codognet & Diaz 2001/2003), the metaheuristic the paper
// uses to solve the Costas Array Problem. This is the base algorithm of the
// paper's Figure 1 plus the two published refinements it relies on:
// plateau moves accepted with probability p (Sec. III-B1) and the
// reset/diversification machinery with a problem-specific reset hook
// (Sec. III-B2, Sec. IV-B).
//
// One iteration:
//   1. read the per-variable error table the problem maintains across swaps
//      (problem.errors() — no from-scratch projection in the hot loop),
//   2. select the worst ("culprit") non-tabu variable via the two-pass
//      masked-argmax kernel (SIMD value pass + scalar reservoir among the
//      tied lanes — uniform, and bit-identical across ISAs),
//   3. min-conflict: fill the culprit's whole move row in one batched
//      delta_costs_row pass (native vectorized walk for problems that have
//      one, per-j pure deltas otherwise) and argmin it the same two-pass
//      way,
//   4. apply the best swap if it improves (delta < 0); follow an equal-cost
//      plateau (delta == 0) with probability p; otherwise mark the culprit
//      tabu for `tabu_tenure` iterations,
//   5. when `reset_limit` variables are tabu simultaneously, diversify:
//      problem custom reset if available, else re-shuffle `reset_fraction`
//      of the variables.
//
// The engine is a template over LocalSearchProblem: the hot loop has no
// virtual calls and no allocation after the first iteration.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/problem.hpp"
#include "core/stats.hpp"
#include "simd/select.hpp"
#include "util/timer.hpp"

namespace cas::core {

/// The portable mid-walk state of one Adaptive Search walk — everything
/// advance_walk() reads besides the problem's own configuration. Together
/// with the permutation it reconstructs the walk bit-for-bit on any host
/// (the checkpoint/restore layer serializes it; tests pin the trajectory).
struct AsWalkState {
  std::array<uint64_t, 4> rng{};
  std::vector<uint64_t> tabu_until;
  uint64_t next_probe = 0;
  uint64_t next_restart = 0;
  RunStats stats;
};

template <LocalSearchProblem P>
class AdaptiveSearch {
 public:
  AdaptiveSearch(P& problem, AsConfig config)
      : problem_(problem), cfg_(config), rng_(config.seed) {}

  /// Randomize the configuration, then search until solved, stopped, or out
  /// of budget.
  RunStats solve(StopToken stop = {}) {
    begin_walk();
    advance_walk(0, stop);
    return walk_;
  }

  /// Search from the problem's current configuration (used by tests and by
  /// restart-free reproductions of specific runs).
  RunStats solve_from_current(StopToken stop = {}) {
    begin_walk_from_current();
    advance_walk(0, stop);
    return walk_;
  }

  // --- resumable walk surface -----------------------------------------------
  // solve() == begin_walk() + advance_walk(0): the segmented form exists so a
  // walk can pause at an iteration boundary (elastic epochs, checkpoints) and
  // continue later — on this engine instance or, via export_walk/import_walk
  // plus the permutation, on a freshly built one — with the exact trajectory
  // an uninterrupted run would have taken.

  /// Start a fresh walk: randomize, clear the tabu table, reset counters.
  void begin_walk() {
    problem_.randomize(rng_);
    begin_walk_from_current();
  }

  /// Start a walk from the problem's current configuration.
  void begin_walk_from_current() {
    walk_ = RunStats{};
    tabu_until_.assign(static_cast<size_t>(problem_.size()), 0);
    next_probe_ = cfg_.probe_interval;
    next_restart_ = cfg_.restart_interval;
  }

  /// Run the walk until solved, stopped, out of cfg_ budget, or — when
  /// `iter_budget` > 0 — until `iter_budget` MORE iterations have elapsed
  /// (the segment boundary; the walk stays resumable). Returns solved.
  /// Wall time accumulates across segments into walk_stats().wall_seconds.
  bool advance_walk(uint64_t iter_budget, StopToken stop = {}) {
    util::WallTimer timer;
    RunStats& st = walk_;
    const int n = problem_.size();
    const uint64_t iter_end = iter_budget == 0 ? 0 : st.iterations + iter_budget;

    while (problem_.cost() > 0) {
      if (cfg_.max_iterations != 0 && st.iterations >= cfg_.max_iterations) break;
      if (iter_end != 0 && st.iterations >= iter_end) break;
      if (st.iterations >= next_probe_) {
        // The paper's parallel scheme: a non-blocking "has anyone finished?"
        // test every c iterations.
        if (stop.stop_requested()) break;
        next_probe_ += cfg_.probe_interval;
      }
      if (st.iterations >= next_restart_) {
        problem_.randomize(rng_);
        std::fill(tabu_until_.begin(), tabu_until_.end(), uint64_t{0});
        ++st.restarts;
        next_restart_ += cfg_.restart_interval;
        continue;
      }
      ++st.iterations;

      const int culprit = select_culprit(st.iterations);
      if (culprit < 0) {
        // Every variable is tabu: forced diversification.
        diversify(st);
        continue;
      }

      // Min-conflict: batched scoring of the culprit against every other
      // variable (one row fill, no do/undo, no state writes), then a
      // two-pass argmin — SIMD value scan plus a scalar reservoir over the
      // tied lanes, uniform among equally good moves.
      row_.resize(static_cast<size_t>(n));
      delta_costs_row(problem_, culprit, std::span<Cost>(row_.data(), row_.size()));
      st.move_evaluations += static_cast<uint64_t>(n - 1);
      const simd::Pick move = simd::pick_min({row_.data(), row_.size()}, rng_);
      const Cost best_delta = move.value;
      const int best_j = move.index;

      if (best_j >= 0 && best_delta < 0) {
        problem_.apply_swap(culprit, best_j);
        ++st.swaps;
        continue;
      }
      if (best_j >= 0 && best_delta == 0 && rng_.chance(cfg_.plateau_probability)) {
        problem_.apply_swap(culprit, best_j);
        ++st.swaps;
        ++st.plateau_moves;
        continue;
      }
      if (best_j >= 0 && best_delta == 0) ++st.plateau_refused;

      // Local minimum for this variable: freeze it, maybe diversify.
      ++st.local_minima;
      tabu_until_[static_cast<size_t>(culprit)] = st.iterations + static_cast<uint64_t>(cfg_.tabu_tenure);
      if (count_tabu(st.iterations) >= cfg_.reset_limit) diversify(st);
    }

    st.solved = problem_.cost() == 0;
    st.final_cost = problem_.cost();
    st.wall_seconds += timer.seconds();
    if (st.solved && st.solution.empty()) {
      st.solution.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) st.solution[static_cast<size_t>(i)] = problem_.value(i);
    }
    return st.solved;
  }

  /// Accumulated stats of the walk in progress (or just finished).
  [[nodiscard]] const RunStats& walk_stats() const { return walk_; }

  /// Export the walk's non-problem state (RNG, tabu, counters). The caller
  /// captures the problem's permutation separately.
  void export_walk(AsWalkState& out) const {
    out.rng = rng_.state();
    out.tabu_until = tabu_until_;
    out.next_probe = next_probe_;
    out.next_restart = next_restart_;
    out.stats = walk_;
  }

  /// Import a walk exported by export_walk. The caller must first put the
  /// problem into the configuration that was current at export time;
  /// advance_walk then continues the original trajectory exactly.
  void import_walk(const AsWalkState& s) {
    assert(s.tabu_until.size() == static_cast<size_t>(problem_.size()));
    rng_.set_state(s.rng);
    tabu_until_ = s.tabu_until;
    next_probe_ = s.next_probe;
    next_restart_ = s.next_restart;
    walk_ = s.stats;
  }

  [[nodiscard]] const AsConfig& config() const { return cfg_; }
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  /// Highest-error variable not currently tabu; ties broken uniformly.
  /// Returns -1 if all variables are tabu.
  int select_culprit(uint64_t iter) {
    // The problem maintains the projection across swaps; reading it here is
    // free for incremental models (Costas) and one cached recompute at most
    // for LazyErrors-backed ones. The masked-argmax kernel treats
    // "tabu_until[i] <= iter" as the admissibility gate.
    const std::span<const Cost> errors = problem_.errors();
    return simd::pick_max_where_le(errors, {tabu_until_.data(), tabu_until_.size()}, iter,
                                   rng_)
        .index;
  }

  int count_tabu(uint64_t iter) const {
    int c = 0;
    for (uint64_t t : tabu_until_)
      if (t > iter) ++c;
    return c;
  }

  void diversify(RunStats& st) {
    ++st.resets;
    // The reset phase is the other half of the hot loop (perfbench's
    // core.reset_share: about half of a Costas n=17 walk's time under the
    // paper's RL = 1), so it is timed separately — reset_seconds and
    // reset_candidates make the batched candidate pipeline observable
    // end-to-end in every report.
    const util::WallTimer reset_timer;
    if constexpr (HasCustomReset<P>) {
      if (cfg_.use_custom_reset) {
        const bool escaped = problem_.custom_reset(rng_);
        if constexpr (requires { problem_.reset_candidates_evaluated(); })
          st.reset_candidates += static_cast<uint64_t>(problem_.reset_candidates_evaluated());
        if constexpr (requires { problem_.reset_chunks_escaped(); })
          st.reset_escape_chunks += static_cast<uint64_t>(problem_.reset_chunks_escaped());
        if (escaped)
          ++st.custom_reset_escapes;
        else if (cfg_.hybrid_reset)
          generic_reset();
        if (!cfg_.keep_tabu_on_reset) clear_tabu();
        st.reset_seconds += reset_timer.seconds();
        return;
      }
    }
    generic_reset();
    if (!cfg_.keep_tabu_on_reset) clear_tabu();
    st.reset_seconds += reset_timer.seconds();
  }

  /// Generic reset (Sec. III-B2): re-randomize ~reset_fraction of the
  /// variables. On permutation configurations this is a uniform shuffle of
  /// k selected positions, expressed as swaps so the problem's incremental
  /// bookkeeping stays valid.
  void generic_reset() {
    const int n = problem_.size();
    int k = static_cast<int>(std::max(2.0, cfg_.reset_fraction * n + 0.5));
    k = std::min(k, n);
    scratch_positions_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) scratch_positions_[static_cast<size_t>(i)] = i;
    // Partial Fisher-Yates: the first k entries become k distinct positions.
    for (int i = 0; i < k; ++i) {
      const int j = i + static_cast<int>(rng_.below(static_cast<uint64_t>(n - i)));
      std::swap(scratch_positions_[static_cast<size_t>(i)], scratch_positions_[static_cast<size_t>(j)]);
    }
    // Shuffle the values held by those k positions.
    for (int i = k - 1; i > 0; --i) {
      const int j = static_cast<int>(rng_.below(static_cast<uint64_t>(i + 1)));
      if (i != j) {
        problem_.apply_swap(scratch_positions_[static_cast<size_t>(i)],
                            scratch_positions_[static_cast<size_t>(j)]);
      }
    }
  }

  void clear_tabu() { std::fill(tabu_until_.begin(), tabu_until_.end(), uint64_t{0}); }

  P& problem_;
  AsConfig cfg_;
  Rng rng_;
  RunStats walk_;            // accumulated stats of the walk in progress
  uint64_t next_probe_ = 0;  // next stop-token probe boundary
  uint64_t next_restart_ = 0;
  std::vector<uint64_t> tabu_until_;
  std::vector<int> scratch_positions_;
  std::vector<Cost> row_;  // batched move-delta scratch, sized on first scan
};

}  // namespace cas::core
