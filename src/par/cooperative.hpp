// Cooperative (dependent) multi-walk — the paper's FUTURE WORK (Sec. VI):
//   "more complex parallel execution methods with inter-processes
//    communication, i.e., in the dependent multiple-walk scheme ...
//    (2) re-using some common computations and/or recording previous
//    interesting crossroads in the resolution, from which a restart can be
//    operated."
//
// Implementation: walkers share a Blackboard holding the best configuration
// any walker has reached. Each walker publishes improvements, and at
// diversification time (the reset — the natural "restart from a crossroad"
// point) adopts a perturbed copy of the blackboard configuration with
// probability `adopt_probability` instead of running its own reset.
//
// Communication is deliberately tiny (one configuration + its cost),
// honouring the paper's goal of "minimizing data transfers as much as
// possible". The ablation bench (bench_ablation_cooperation) measures
// whether this helps CAP — the paper leaves that an open question.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/problem.hpp"
#include "par/multiwalk.hpp"

namespace cas::par {

/// Problems whose full configuration can be exported/imported (needed to
/// ship configurations between walkers).
template <typename P>
concept SharableProblem = core::LocalSearchProblem<P> && requires(P p, std::span<const int> s) {
  { p.permutation() } -> std::convertible_to<const std::vector<int>&>;
  p.set_permutation(s);
};

/// Thread-safe best-configuration store. Lock-based: offers happen at most
/// once per improvement per walker, so contention is negligible next to the
/// search itself (CP.43: tiny critical sections).
class Blackboard {
 public:
  /// Record `config` if it beats the current best. Returns true if adopted.
  bool offer(core::Cost cost, const std::vector<int>& config) {
    std::scoped_lock lock(mu_);
    ++offers_;
    if (!best_config_.empty() && cost >= best_cost_) return false;
    best_cost_ = cost;
    best_config_ = config;
    ++improvements_;
    return true;
  }

  /// Best configuration so far, if any walker has published one.
  [[nodiscard]] std::optional<std::pair<core::Cost, std::vector<int>>> best() const {
    std::scoped_lock lock(mu_);
    if (best_config_.empty()) return std::nullopt;
    return std::make_pair(best_cost_, best_config_);
  }

  [[nodiscard]] uint64_t offers() const {
    std::scoped_lock lock(mu_);
    return offers_;
  }
  [[nodiscard]] uint64_t improvements() const {
    std::scoped_lock lock(mu_);
    return improvements_;
  }

 private:
  mutable std::mutex mu_;
  core::Cost best_cost_ = 0;
  std::vector<int> best_config_;
  uint64_t offers_ = 0;
  uint64_t improvements_ = 0;
};

/// Wraps a SharableProblem: publishes improvements to the blackboard and,
/// at reset time, restarts from a perturbed copy of the blackboard's best
/// configuration with probability `adopt_probability` (falling back to the
/// inner problem's own reset otherwise).
template <SharableProblem P>
class CooperativeProblem {
 public:
  CooperativeProblem(P inner, Blackboard* board, double adopt_probability)
      : inner_(std::move(inner)), board_(board), adopt_probability_(adopt_probability) {}

  // --- LocalSearchProblem forwarding ---
  [[nodiscard]] int size() const { return inner_.size(); }
  [[nodiscard]] core::Cost cost() const { return inner_.cost(); }
  [[nodiscard]] int value(int i) const { return inner_.value(i); }
  void randomize(core::Rng& rng) {
    inner_.randomize(rng);
    local_best_ = std::numeric_limits<core::Cost>::max();
  }
  [[nodiscard]] core::Cost delta_cost(int i, int j) const { return inner_.delta_cost(i, j); }
  /// Forwarded batched APIs: without these the wrapper would silently
  /// demote an engine running on a cooperative walker to the per-j scalar
  /// loop (HasDeltaRow / HasBatchEval are member-detection concepts), so
  /// the vectorized move scan and the batched reset candidate pipeline
  /// stay active under cooperation.
  void delta_costs_row(int i, std::span<core::Cost> out) const
    requires core::HasDeltaRow<P>
  {
    inner_.delta_costs_row(i, out);
  }
  void evaluate_batch(const core::CandidateBatch& batch, core::Cost bound,
                      std::span<core::Cost> out) const
    requires core::HasBatchEval<P>
  {
    inner_.evaluate_batch(batch, bound, out);
  }
  void apply_swap(int i, int j) {
    inner_.apply_swap(i, j);
    // Publish strict improvements over this walker's own best. The offer
    // itself deduplicates against the global best.
    if (inner_.cost() < local_best_) {
      local_best_ = inner_.cost();
      board_->offer(inner_.cost(), inner_.permutation());
      ++publishes_;
    }
  }
  [[nodiscard]] std::span<const core::Cost> errors() const { return inner_.errors(); }
  void compute_errors(std::span<core::Cost> errs) const { inner_.compute_errors(errs); }

  /// Reset hook: adopt the shared crossroad (perturbed, so walkers do not
  /// collapse onto one trajectory) or defer to the inner reset.
  bool custom_reset(core::Rng& rng) {
    last_reset_deferred_ = false;
    if (board_ != nullptr && rng.chance(adopt_probability_)) {
      if (auto shared = board_->best()) {
        const core::Cost entry = inner_.cost();
        if (shared->first < entry) {
          inner_.set_permutation(shared->second);
          perturb(rng);
          ++adoptions_;
          return inner_.cost() < entry;
        }
      }
    }
    if constexpr (core::HasCustomReset<P>) {
      last_reset_deferred_ = true;
      return inner_.custom_reset(rng);
    } else {
      perturb(rng);
      return false;
    }
  }

  /// Reset observability forward: without it the engines' reset_candidates
  /// stat would read 0 under cooperation. A blackboard adoption evaluates
  /// no candidates, so it reports the inner problem's last count only when
  /// the reset actually deferred to it.
  [[nodiscard]] int reset_candidates_evaluated() const
    requires requires(const P& p) { p.reset_candidates_evaluated(); }
  {
    return last_reset_deferred_ ? inner_.reset_candidates_evaluated() : 0;
  }

  /// Same deferral rule for the escape-chunk telemetry: a blackboard
  /// adoption runs no batched walk, so it contributes no chunks.
  [[nodiscard]] int reset_chunks_escaped() const
    requires requires(const P& p) { p.reset_chunks_escaped(); }
  {
    return last_reset_deferred_ ? inner_.reset_chunks_escaped() : 0;
  }

  // --- introspection ---
  [[nodiscard]] const std::vector<int>& permutation() const { return inner_.permutation(); }
  void set_permutation(std::span<const int> p) { inner_.set_permutation(p); }
  [[nodiscard]] uint64_t adoptions() const { return adoptions_; }
  [[nodiscard]] uint64_t publishes() const { return publishes_; }
  [[nodiscard]] P& inner() { return inner_; }

 private:
  void perturb(core::Rng& rng) {
    // One random transposition: the minimum diversification that prevents
    // two adopters from continuing identically.
    const int n = inner_.size();
    const int i = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
    int j = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
    if (j == i) j = (j + 1) % n;
    inner_.apply_swap(i, j);
  }

  P inner_;
  Blackboard* board_;
  double adopt_probability_;
  core::Cost local_best_ = std::numeric_limits<core::Cost>::max();
  uint64_t adoptions_ = 0;
  uint64_t publishes_ = 0;
  bool last_reset_deferred_ = false;
};

/// Cooperative multi-walk driver: run_multiwalk over walkers that share a
/// blackboard, each adopting its crossroad with `adopt_probability` at
/// reset time. `make_problem(walker_id)` builds each walker's inner
/// problem; `make_config(walker_id, seed)` its engine configuration.
template <SharableProblem P, typename MakeProblem, typename MakeConfig>
MultiWalkResult run_multiwalk_cooperative(int num_walkers, uint64_t master_seed,
                                          MakeProblem&& make_problem, MakeConfig&& make_config,
                                          double adopt_probability,
                                          const MultiWalkOptions& opts = {},
                                          Blackboard* board_out = nullptr) {
  Blackboard local_board;
  Blackboard* board = board_out != nullptr ? board_out : &local_board;
  return run_multiwalk(
      num_walkers, master_seed,
      [&](int id, uint64_t seed, core::StopToken stop) {
        CooperativeProblem<P> problem(make_problem(id), board, adopt_probability);
        core::AdaptiveSearch<CooperativeProblem<P>> engine(problem, make_config(id, seed));
        return engine.solve(stop);
      },
      opts);
}

}  // namespace cas::par
