#include "costas/model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "costas/checker.hpp"
#include "simd/costas_kernels.hpp"

namespace cas::costas {

namespace {

// The kernels' self-lane sentinel and the engines' exclusion sentinel must
// agree, or a fully-positive row could hand an engine the culprit itself.
static_assert(simd::kDeltaRowExcluded == core::kExcludedDelta);

/// Rewrite the window [lo, hi] of a copy of `perm` (its column-0 slot
/// `lane`, columns `stride` apart) turned one cell left (lo..hi-1 take
/// their right neighbour, hi takes perm[lo]) or right (lo+1..hi take their
/// left neighbour, lo takes perm[hi]).
void rotate_window(std::span<const int> perm, int32_t* lane, size_t stride, int lo, int hi,
                   bool left) {
  const auto at = [&](int i) -> int32_t& { return lane[static_cast<size_t>(i) * stride]; };
  if (left) {
    for (int i = lo; i < hi; ++i) at(i) = perm[static_cast<size_t>(i + 1)];
    at(hi) = perm[static_cast<size_t>(lo)];
  } else {
    for (int i = lo + 1; i <= hi; ++i) at(i) = perm[static_cast<size_t>(i - 1)];
    at(lo) = perm[static_cast<size_t>(hi)];
  }
}

}  // namespace

CostasProblem::CostasProblem(int n, CostasOptions opts) : n_(n), opts_(opts) {
  if (n < 2) throw std::invalid_argument("CostasProblem: n must be >= 2");
  depth_ = opts_.use_chang ? (n - 1) / 2 : n - 1;
  stride_ = static_cast<size_t>(2 * n - 1);
  perm_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i + 1;
  occ_.assign(static_cast<size_t>(std::max(depth_, 1)) * stride_, 0);
  pair_start_sum_.assign(occ_.size(), 0);
  errs_.assign(static_cast<size_t>(n), 0);
  errw_.assign(static_cast<size_t>(depth_) + 1, 0);
  // The family-3 erroneous-position list is bounded by n; reserving it here
  // keeps the whole reset path allocation-free from the first call (the
  // reset bench asserts this after warmup).
  scratch_.reserve(static_cast<size_t>(n));
  for (int d = 1; d <= depth_; ++d) {
    errw_[static_cast<size_t>(d)] =
        opts_.err == ErrFunction::kQuadratic
            ? static_cast<Cost>(n) * n - static_cast<Cost>(d) * d
            : 1;
  }
  rebuild();
}

void CostasProblem::rebuild() {
  std::fill(occ_.begin(), occ_.end(), 0);
  std::fill(pair_start_sum_.begin(), pair_start_sum_.end(), 0);
  std::fill(errs_.begin(), errs_.end(), Cost{0});
  cost_ = 0;
  // add_pair maintains cost_ and errs_ through every intermediate state, so
  // inserting the pairs one by one rebuilds both tables correctly.
  for (int d = 1; d <= depth_; ++d) {
    for (int i = 0; i + d < n_; ++i) add_pair(i, i + d);
  }
}

void CostasProblem::randomize(core::Rng& rng) {
  rng.shuffle(perm_);
  rebuild();
}

void CostasProblem::set_permutation(std::span<const int> perm) {
  if (static_cast<int>(perm.size()) != n_ || !is_permutation(perm))
    throw std::invalid_argument("CostasProblem::set_permutation: not a permutation of 1..n");
  std::copy(perm.begin(), perm.end(), perm_.begin());
  rebuild();
}

void CostasProblem::apply_swap(int i, int j) {
  for_each_affected_pair(i, j, [&](int a, int b) { remove_pair(a, b); });
  std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
  for_each_affected_pair(i, j, [&](int a, int b) { add_pair(a, b); });
}

Cost CostasProblem::delta_cost(int i, int j) const {
  if (i == j) return 0;
  if (i > j) std::swap(i, j);
  // Pure evaluation against the live occ_ counters, mirroring apply_swap's
  // remove-all-then-add-all order. Affected pairs can share buckets only
  // within one triangle row (a bucket encodes its row), and a row has at
  // most 4 affected pairs — so intra-move interactions are resolved with
  // tiny per-row stack ledgers of raw diff values. The new diffs follow
  // from the old ones by +/- (vj - vi), so each row costs a handful of
  // loads and register compares. Zero mutation, safe for concurrent
  // readers.
  const int* const perm = perm_.data();
  const int32_t* const occ = occ_.data();
  const Cost* const errw = errw_.data();
  const int n = n_;
  const int vi = perm[i], vj = perm[j];
  const int vd = vj - vi;
  Cost delta = 0;
  for (int d = 1; d <= depth_; ++d) {
    // Row pointer offset so it can be indexed directly by a (possibly
    // negative) difference value.
    const int32_t* const row =
        occ + static_cast<size_t>(d - 1) * stride_ + static_cast<size_t>(n - 1);
    int oldd[4], newd[4];
    int np = 0;
    if (i - d >= 0) {
      oldd[np] = vi - perm[i - d];
      newd[np] = oldd[np] + vd;
      ++np;
    }
    if (i + d < n) {
      if (i + d == j) {  // the (i, j) pair itself: both endpoints swap
        oldd[np] = vd;
        newd[np] = -vd;
      } else {
        oldd[np] = perm[i + d] - vi;
        newd[np] = oldd[np] - vd;
      }
      ++np;
    }
    if (j - d >= 0 && j - d != i) {
      oldd[np] = vj - perm[j - d];
      newd[np] = oldd[np] - vd;
      ++np;
    }
    if (j + d < n) {
      oldd[np] = perm[j + d] - vj;
      newd[np] = oldd[np] + vd;
      ++np;
    }
    const Cost w = errw[d];
    // Removals first (a pair leaving a bucket with >= 2 pairs takes one
    // collision with it), then additions against the adjusted counts.
    for (int t = 0; t < np; ++t) {
      int32_t c = row[oldd[t]];
      for (int u = 0; u < t; ++u) c -= static_cast<int32_t>(oldd[u] == oldd[t]);
      if (c >= 2) delta -= w;
    }
    for (int t = 0; t < np; ++t) {
      int32_t c = row[newd[t]];
      for (int u = 0; u < np; ++u) c -= static_cast<int32_t>(oldd[u] == newd[t]);
      for (int u = 0; u < t; ++u) c += static_cast<int32_t>(newd[u] == newd[t]);
      if (c >= 1) delta += w;
    }
  }
  return delta;
}

void CostasProblem::delta_costs_row(int i, std::span<Cost> out) const {
  const simd::CostasCtx ctx{perm_.data(), occ_.data(), errw_.data(), n_, depth_, stride_};
  simd::costas_delta_row(ctx, i, out.data());
}

void CostasProblem::compute_errors(std::span<Cost> errs) const {
  const simd::CostasCtx ctx{perm_.data(), occ_.data(), errw_.data(), n_, depth_, stride_};
  simd::costas_errors(ctx, errs.data());
}

Cost CostasProblem::evaluate(std::span<const int> perm) const {
  return evaluate_bounded(perm, std::numeric_limits<Cost>::max());
}

Cost CostasProblem::evaluate_bounded(std::span<const int> perm, Cost bound) const {
  // Stateless O(n * depth) evaluation with early abort once the partial cost
  // reaches `bound` (cost is a sum of non-negative row contributions, so it
  // can only grow). Uses a per-row seen[] scratch indexed like occ_ rows;
  // the scratch is kept all-zero BETWEEN calls (every exit path, including
  // the early abort, clears exactly the slots it touched), so the hot reset
  // loop never pays a full O(stride) wipe per candidate.
  Cost total = 0;
  thread_local std::vector<int32_t> seen;
  if (seen.size() < stride_) seen.assign(stride_, 0);
  for (int d = 1; d <= depth_; ++d) {
    const Cost w = errw_[static_cast<size_t>(d)];
    int processed = 0;
    bool aborted = false;
    for (int i = 0; i + d < n_; ++i) {
      const int diff = perm[static_cast<size_t>(i + d)] - perm[static_cast<size_t>(i)];
      int32_t& c = seen[static_cast<size_t>(diff + n_ - 1)];
      ++c;
      processed = i + 1;
      if (c >= 2) {
        total += w;
        if (total >= bound) {
          aborted = true;
          break;
        }
      }
    }
    // Clear only the slots this row actually touched.
    for (int i = 0; i < processed; ++i) {
      seen[static_cast<size_t>(perm[static_cast<size_t>(i + d)] - perm[static_cast<size_t>(i)] +
                               n_ - 1)] = 0;
    }
    if (aborted) return total;
  }
  return total;
}

void CostasProblem::append_reset_families_1_2(int m, core::CandidateBatch& batch) const {
  // Every candidate starts as a copy of the permutation, written one column
  // of all its family's lanes at a time, and then rewrites what it changes.
  const size_t stride = batch.lane_stride();
  // Family 1: circular shifts of the sub-arrays [m, e] (e > m) and
  // [s, m] (s < m) anchored at the most erroneous variable, one cell left
  // and one cell right each.
  int32_t* lane = batch.append_copies(perm_, 2 * (n_ - 1));
  for (int e = m + 1; e < n_; ++e) {
    rotate_window(perm_, lane++, stride, m, e, /*left=*/true);
    rotate_window(perm_, lane++, stride, m, e, /*left=*/false);
  }
  for (int s = 0; s < m; ++s) {
    rotate_window(perm_, lane++, stride, s, m, /*left=*/true);
    rotate_window(perm_, lane++, stride, s, m, /*left=*/false);
  }
  // Family 2: add a constant modulo n, by compare-and-subtract.
  int consts[4];
  int num_consts = 0;
  for (const int c : {1, 2, n_ - 2, n_ - 3})
    if (c > 0 && c < n_) consts[num_consts++] = c;  // degenerate for tiny n
  int32_t* column = batch.append_copies(perm_, num_consts);
  for (int i = 0; i < n_; ++i, column += stride) {
    for (int k = 0; k < num_consts; ++k) {
      const int v = perm_[static_cast<size_t>(i)] + consts[k];
      column[k] = v > n_ ? v - n_ : v;
    }
  }
}

void CostasProblem::evaluate_batch(const core::CandidateBatch& batch, Cost bound,
                                   std::span<Cost> out) const {
  if (batch.size() != n_)
    throw std::invalid_argument("CostasProblem::evaluate_batch: candidate size mismatch");
  const simd::CostasCtx ctx{perm_.data(), occ_.data(), errw_.data(), n_, depth_, stride_};
  simd::costas_evaluate_batch(ctx, batch.data(), batch.lane_stride(), batch.count(), bound,
                              out.data());
}

int CostasProblem::reset_candidate_count() const {
  // Family 1: 2 shift directions for each sub-array starting or ending at
  // Vm — (n-1) sub-arrays each way minus the duplicate full-range one gives
  // 2(n-1) candidates in the worst case (Vm interior); family 2: 4 modular
  // constants; family 3: up to 3 prefix shifts.
  return 2 * (n_ - 1) + 4 + 3;
}

bool CostasProblem::custom_reset(core::Rng& rng) {
  // Batched pipeline: the candidate families are generated straight into
  // the reusable SoA batch (no per-candidate vector copies) and scored
  // through the chunked kernel walk with a shared best-so-far bound. The
  // selection replicates the historical serial consider-loop exactly:
  //   * escape — the FIRST candidate strictly below the entry cost wins
  //     (the kernel stops after the chunk containing it; later candidates
  //     are never needed, and candidate generation draws no RNG);
  //   * otherwise — the first candidate achieving the batch minimum wins,
  //     which is exactly what the serial loop's strict-improvement update
  //     adopted. Pruned lanes report partials >= every bound that was in
  //     effect for them, so they can never falsely claim either role.
  const Cost entry_cost = cost_;
  const simd::CostasCtx ctx{perm_.data(), occ_.data(), errw_.data(), n_, depth_, stride_};
  // +kLaneBlock: family 3 is evaluated as a lane-offset slice, so the
  // kernel may read one full block past the last family-3 lane.
  reset_batch_.reset(n_, reset_candidate_count() + core::CandidateBatch::kLaneBlock);
  reset_costs_.resize(static_cast<size_t>(reset_candidate_count()));

  // Adopt candidate `lane` in place (index into the batch, no copy).
  auto adopt = [&](int lane) {
    for (int i = 0; i < n_; ++i)
      perm_[static_cast<size_t>(i)] = static_cast<int>(reset_batch_.get(lane, i));
    rebuild();
  };

  // The batch's own capacity guard admits kLaneBlock padding lanes beyond
  // reset_candidate_count(), so it cannot catch a generator drifting past
  // the cost row — check the invariant before every kernel write.
  auto check_cost_row_fits = [&] {
    if (static_cast<size_t>(reset_batch_.count()) > reset_costs_.size())
      throw std::logic_error(
          "CostasProblem::custom_reset: candidate families exceed reset_candidate_count()");
  };

  // Scan a just-evaluated slice [first_lane, first_lane + evaluated):
  // returns the first strict improvement over the entry cost (the escape
  // lane), or -1 after folding the slice into best_cost/best_lane with the
  // serial loop's strict-< update.
  Cost best_cost = std::numeric_limits<Cost>::max();
  int best_lane = -1;
  auto scan_for_escape = [&](int first_lane, int evaluated) {
    for (int c = 0; c < evaluated; ++c) {
      const Cost cost = reset_costs_[static_cast<size_t>(first_lane + c)];
      if (cost < entry_cost) return first_lane + c;  // first strict improvement
      if (cost < best_cost) {
        best_cost = cost;
        best_lane = first_lane + c;
      }
    }
    return -1;
  };

  // Most erroneous variable Vm (ties broken uniformly), read straight from
  // the incrementally maintained error table (no state is mutated before
  // adopt, so the span stays valid throughout).
  const std::span<const Cost> errs = errors();
  int m = 0;
  {
    Cost best_err = -1;
    int ties = 0;
    for (int i = 0; i < n_; ++i) {
      const Cost e = errs[static_cast<size_t>(i)];
      if (e > best_err) {
        best_err = e;
        m = i;
        ties = 1;
      } else if (e == best_err) {
        ++ties;
        if (rng.below(static_cast<uint64_t>(ties)) == 0) m = i;
      }
    }
  }

  // Families 1 + 2 (deterministic, shared with the reset micro bench).
  append_reset_families_1_2(m, reset_batch_);

  // One batched pass over families 1 + 2; the kernel stops early once a
  // completed chunk holds an escape.
  const int count12 = reset_batch_.count();
  check_cost_row_fits();
  int escaped12 = 0;
  const int evaluated12 =
      simd::costas_evaluate_batch(ctx, reset_batch_.data(), reset_batch_.lane_stride(),
                                  count12, std::numeric_limits<Cost>::max(),
                                  reset_costs_.data(), entry_cost, &escaped12);
  reset_evaluated_ = evaluated12;
  reset_escaped_chunks_ = escaped12;
  if (const int escape = scan_for_escape(0, evaluated12); escape >= 0) {
    adopt(escape);
    return true;
  }

  // --- Family 3: left-shift the prefix ending at a random erroneous
  // variable (not Vm); up to 3 attempts. Only reached when families 1/2
  // did not escape, so the RNG stream matches the serial procedure. ---
  {
    scratch_.clear();
    for (int i = 0; i < n_; ++i) {
      if (i != m && errs[static_cast<size_t>(i)] > 0) scratch_.push_back(i);
    }
    // Pick up to 3 distinct erroneous positions uniformly.
    int chosen[3];
    int num_chosen = 0;
    for (int t = 0; t < 3 && !scratch_.empty(); ++t) {
      const size_t idx = static_cast<size_t>(rng.below(scratch_.size()));
      chosen[num_chosen++] = scratch_[idx];
      scratch_[idx] = scratch_.back();
      scratch_.pop_back();
    }
    // A prefix of length 1 is a no-op and gets no candidate.
    const int prefixes =
        static_cast<int>(std::count_if(chosen, chosen + num_chosen, [](int e) { return e != 0; }));
    int32_t* lane = reset_batch_.append_copies(perm_, prefixes);
    for (int t = 0; t < num_chosen; ++t)
      if (chosen[t] != 0)
        rotate_window(perm_, lane++, reset_batch_.lane_stride(), 0, chosen[t], /*left=*/true);
  }
  const int count3 = reset_batch_.count() - count12;
  if (count3 > 0) {
    // Lane-offset slice: same kernel, pruning against the families-1/2
    // best, escaping below the entry cost.
    check_cost_row_fits();
    int escaped3 = 0;
    const int evaluated3 = simd::costas_evaluate_batch(
        ctx, reset_batch_.data() + count12, reset_batch_.lane_stride(), count3, best_cost,
        reset_costs_.data() + count12, entry_cost, &escaped3);
    reset_evaluated_ += evaluated3;
    reset_escaped_chunks_ += escaped3;
    if (const int escape = scan_for_escape(count12, evaluated3); escape >= 0) {
      adopt(escape);
      return true;
    }
  }

  if (best_lane >= 0) adopt(best_lane);
  return false;
}

core::AsConfig recommended_config(int n, uint64_t seed) {
  core::AsConfig cfg;
  cfg.tabu_tenure = std::max(2, n / 10);
  cfg.plateau_probability = 0.93;
  cfg.reset_limit = 1;       // paper: RL = 1
  cfg.reset_fraction = 0.05;  // paper: RP = 5%
  cfg.use_custom_reset = true;
  cfg.probe_interval = 64;
  cfg.seed = seed;
  return cfg;
}

}  // namespace cas::costas
