// Single-walk parallelism: ONE Adaptive Search walk whose min-conflict
// neighborhood is scanned in parallel — the other branch of the paper's
// Sec. V taxonomy ("single-walk methods consist in using parallelism
// inside a single search process, e.g., for parallelizing the exploration
// of the neighborhood", citing Luong et al.'s GPU version).
//
// The walk is core::AdaptiveSearch itself, over SplitRowProblem: a
// forwarding wrapper whose delta_costs_row(i, out) is the only parallel
// step. The split row equals the native row lane for lane, so the walk is
// the one core::AdaptiveSearch takes on the same config at any thread
// count; only the iteration latency changes. bench_ablation_singlewalk
// measures it: for the CAP a row is n - 1 cheap incremental evaluations,
// so two barrier phases per iteration cost more than the split saves —
// which is why the paper parallelizes across walks instead.
#pragma once

#include <algorithm>
#include <barrier>
#include <span>
#include <thread>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/config.hpp"
#include "core/problem.hpp"
#include "core/stats.hpp"

namespace cas::par {

/// Forwards every LocalSearchProblem member to the caller's problem and
/// splits delta_costs_row across `threads` scan slices. The threads - 1
/// scan workers start with the wrapper and are joined when it is destroyed.
template <core::LocalSearchProblem P>
class SplitRowProblem {
 public:
  SplitRowProblem(P& inner, int threads) : inner_(inner), slices_(threads), phase_(threads) {
    try {
      for (int w = 1; w < slices_; ++w)
        scanners_.emplace_back([this, w] {
          while (true) {
            phase_.arrive_and_wait();  // a row was published, or shutdown
            if (done_) return;
            fill_slice(w);
            phase_.arrive_and_wait();  // this slice is filled
          }
        });
    } catch (...) {
      // A scanner failed to start: arrive for it and every later one, so
      // the started scanners can be released and joined.
      for (auto w = scanners_.size() + 1; w < static_cast<size_t>(slices_); ++w)
        phase_.arrive_and_drop();
      release();
      throw;
    }
  }
  SplitRowProblem(const SplitRowProblem&) = delete;
  SplitRowProblem& operator=(const SplitRowProblem&) = delete;
  ~SplitRowProblem() { release(); }

  // --- LocalSearchProblem forwarding ---
  [[nodiscard]] int size() const { return inner_.size(); }
  [[nodiscard]] core::Cost cost() const { return inner_.cost(); }
  [[nodiscard]] int value(int i) const { return inner_.value(i); }
  void randomize(core::Rng& rng) { inner_.randomize(rng); }
  [[nodiscard]] core::Cost delta_cost(int i, int j) const { return inner_.delta_cost(i, j); }
  void apply_swap(int i, int j) { inner_.apply_swap(i, j); }
  [[nodiscard]] std::span<const core::Cost> errors() const { return inner_.errors(); }
  void compute_errors(std::span<core::Cost> errs) const { inner_.compute_errors(errs); }

  /// The parallel step: out[j] = delta_cost(i, j), out[i] = kExcludedDelta
  /// (the core fallback's row). The caller's thread fills the first
  /// contiguous slice, each scanner another, all reading the one shared
  /// configuration: delta_cost is safe for concurrent readers, and nothing
  /// mutates the problem while a row is being filled.
  void delta_costs_row(int i, std::span<core::Cost> out) const {
    culprit_ = i;
    row_ = out;
    phase_.arrive_and_wait();  // publish the row
    fill_slice(0);
    phase_.arrive_and_wait();  // every slice is filled
  }

  // Reset hook and its telemetry, forwarded so the engine runs the
  // problem's own reset and reports its counters.
  bool custom_reset(core::Rng& rng)
    requires core::HasCustomReset<P>
  {
    return inner_.custom_reset(rng);
  }
  [[nodiscard]] int reset_candidates_evaluated() const
    requires requires(const P& p) { p.reset_candidates_evaluated(); }
  {
    return inner_.reset_candidates_evaluated();
  }
  [[nodiscard]] int reset_chunks_escaped() const
    requires requires(const P& p) { p.reset_chunks_escaped(); }
  {
    return inner_.reset_chunks_escaped();
  }

 private:
  void release() {  // the scanners return; their jthreads then join
    done_ = true;
    phase_.arrive_and_wait();
  }

  void fill_slice(int w) const {
    const int n = inner_.size();
    const int end = (w + 1) * n / slices_;
    for (int j = w * n / slices_; j < end; ++j)
      row_[static_cast<size_t>(j)] =
          j == culprit_ ? core::kExcludedDelta : inner_.delta_cost(culprit_, j);
  }

  P& inner_;
  int slices_;
  // Round state: written by the engine's thread before the first barrier
  // phase, read by the scanners after it. Mutable because the engines
  // score rows through a const problem.
  mutable int culprit_ = -1;
  mutable std::span<core::Cost> row_;
  bool done_ = false;
  mutable std::barrier<> phase_;
  std::vector<std::jthread> scanners_;  // last: joined before phase_ dies
};

/// One Adaptive Search walk over `problem` with each move row split across
/// `threads` (>= 1) scan threads, the caller's included.
template <core::LocalSearchProblem P>
class ParallelNeighborhoodSearch {
 public:
  ParallelNeighborhoodSearch(P& problem, core::AsConfig config, int threads)
      : problem_(problem), cfg_(config), threads_(std::max(threads, 1)) {}

  /// Randomize, then search: the walk core::AdaptiveSearch<P>(problem,
  /// config).solve(stop) takes. The scan workers live for this call.
  core::RunStats solve(core::StopToken stop = {}) {
    SplitRowProblem<P> split(problem_, threads_);
    core::AdaptiveSearch<SplitRowProblem<P>> engine(split, cfg_);
    return engine.solve(stop);
  }

 private:
  P& problem_;
  core::AsConfig cfg_;
  int threads_;
};

}  // namespace cas::par
