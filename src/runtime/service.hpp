// SolverService: the server-shaped entry point of the runtime. Accepts
// many concurrent SolveRequests and executes them over ONE shared
// par::ThreadPool, so a batch of requests time-shares the machine instead
// of each spawning its own walker threads (the oversubscription the
// ROADMAP's production framing forbids).
//
// On top of the PR-2 fan-out, the service is a real serving layer:
//
//   dedup      concurrent requests with the same canonical key
//              (SolveRequest::canonical_key — id excluded, defaults
//              normalized) coalesce onto ONE execution; every follower
//              receives the leader's report stamped served_by = "dedup".
//   cache      completed reports of deterministic-seed requests land in a
//              bounded LRU (optional TTL); a resubmission is served from
//              memory, stamped served_by = "cache". Stochastic requests
//              (seed 0 — a fresh seed is drawn per execution) are
//              dedup-only; an unsolved timeout-bounded run is also never
//              cached (a retry might do better).
//   admission  a CostModel priced off the analysis layer's run-time
//              distribution fits predicts each request's expected
//              walker-seconds; with a budget configured, requests priced
//              over it are rejected up front (served_by = "rejected",
//              error names the estimate) instead of burning pool time.
//              The model auto-calibrates from the service's OWN completed
//              reports: every clean solved first-win execution contributes
//              a single-walker-equivalent sample (wall * walkers — for an
//              exponential run-time law the minimum of k walkers scaled by
//              k IS a single-walker draw), and once a (problem, size) cell
//              has enough samples its built-in/extrapolated price is
//              replaced by a fit of what this machine actually measured.
//
// Each request keeps its own first-win cancellation: run_multiwalk gives
// every request a private stop flag, so a winner in one request never
// cancels walkers of another — a test races >= 8 concurrent requests to
// pin exactly that isolation.
//
// Requests are driven by lightweight coordinator threads (one per
// executing request, blocked in future::get most of their life); walker
// work is pool-only and never submits further pool tasks, so batches
// cannot deadlock the pool. Dedup followers and cache hits consume no
// coordinator at all.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/report_cache.hpp"
#include "runtime/spec.hpp"
#include "runtime/strategy.hpp"
#include "util/histogram.hpp"

namespace cas::runtime {

/// Aggregate statistics over a SolverService's lifetime — the surface the
/// streaming front-end exports. Identities:
///   submitted = completed + (still in flight)
///   completed = executions + dedup_hits + cache_hits + rejected
///   failed    = completions with a non-empty error (rejections included)
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t solved = 0;
  uint64_t failed = 0;  // completed with a non-empty error

  uint64_t executions = 0;   // real strategy runs
  uint64_t dedup_hits = 0;   // coalesced onto an in-flight execution
  uint64_t cache_hits = 0;   // served from the report cache
  uint64_t rejected = 0;     // denied admission by the cost model

  uint64_t cache_size = 0;       // point-in-time entry count
  uint64_t cache_evictions = 0;  // LRU capacity evictions
  uint64_t cache_expired = 0;    // TTL expiries observed on lookup

  /// Sum of CostModel estimates over admitted executions (0 unless an
  /// admission budget is configured).
  double estimated_walker_seconds = 0.0;
  /// Times the cost model was refit from the service's own completed
  /// reports (auto-calibration).
  uint64_t cost_model_calibrations = 0;
  /// Clean solved runs whose reset counters fed the cost model's
  /// per-instance diversification histogram.
  uint64_t diversification_samples = 0;

  // Real work only: dedup/cache servings do not double-count.
  uint64_t total_iterations = 0;
  double total_wall_seconds = 0.0;  // summed per-execution wall time

  /// Per-outcome service latency (seconds, submission -> completion):
  /// log-spaced streaming histograms, so cas_serve / cas_load report
  /// p50/p95/p99 straight off to_json without private hooks. Indexed by
  /// served_by outcome: executed, dedup, cache, rejected.
  util::LogHistogram latency_executed;
  util::LogHistogram latency_dedup;
  util::LogHistogram latency_cache;
  util::LogHistogram latency_rejected;

  [[nodiscard]] util::Json to_json() const;
};

class SolverService {
 public:
  struct Options {
    /// Walker pool width; 0 = hardware concurrency.
    unsigned pool_threads = 0;
    /// Report-cache entries; 0 disables caching (dedup stays on).
    size_t cache_capacity = 128;
    /// Cache entry lifetime; 0 = never expires.
    double cache_ttl_seconds = 0.0;
    /// Reject requests whose estimated walker-seconds exceed this;
    /// 0 = admit everything. Dedup followers and cache hits are always
    /// served — they cost nothing.
    double admission_budget_walker_seconds = 0.0;
    /// Refit the cost model's (problem, size) price from the service's own
    /// completed reports. Samples come from clean SOLVED executions of the
    /// first-win strategies (sequential/multiwalk), normalized to
    /// single-walker-equivalents (wall * walkers); unsolved or errored
    /// runs are censored observations and never contribute.
    bool auto_calibrate = true;
    /// Samples a (problem, size) cell needs before its first refit; each
    /// later sample refits again over a rolling window of the most recent
    /// 64.
    int auto_calibrate_min_samples = 8;
    /// Monotonic clock (seconds) for cache TTL; null = steady_clock.
    /// Injection point for the TTL tests.
    std::function<double()> clock;
    /// Replacement executor for leader runs; null = runtime::solve on the
    /// shared pool. The distributed front-end injects dist::solve_distributed
    /// here, so the serving layer (dedup, cache, admission, stats) wraps the
    /// multi-process runner without the runtime depending on dist. Must
    /// honour the solve() contract: never throw, failures in report.error.
    std::function<SolveReport(const SolveRequest&, const StrategyContext&)> solve_fn;
  };

  using Stats = ServiceStats;

  SolverService();
  explicit SolverService(Options opts);
  /// Blocks until every in-flight request has completed.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Completion callback for the streaming submission API. Invoked exactly
  /// once per request with its final report.
  using Callback = std::function<void(SolveReport)>;

  /// Asynchronously execute one request on the shared pool. The future
  /// never carries an exception: failures surface as SolveReport::error.
  std::future<SolveReport> submit(SolveRequest req);

  /// Streaming form of submit — the server front-end's entry point, where
  /// completions must land in an event loop's wakeup queue instead of a
  /// blocking future. `done` runs exactly once:
  ///   * synchronously on the CALLER's thread for the free serving paths
  ///     (cache hit, admission rejection) — they complete inside this call;
  ///   * on the request's coordinator thread for executions and for dedup
  ///     followers (fulfilled from their leader's completion epilogue).
  /// The callback must not block for long and must not wait on the service
  /// being destroyed (the destructor waits for all callbacks to return).
  /// If submission itself throws (coordinator thread creation failed, the
  /// accounting is rolled back), `done` is never invoked.
  void submit_with_callback(SolveRequest req, Callback done);

  /// Execute a batch concurrently; reports come back in request order.
  std::vector<SolveReport> solve_batch(const std::vector<SolveRequest>& requests);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] par::ThreadPool& pool() { return pool_; }
  /// Requests currently executing (leaders only; followers/cache/rejects
  /// never occupy a slot).
  [[nodiscard]] uint64_t inflight() const;

  /// Price a request on the live cost model WITHOUT submitting it — the
  /// server front-end's load-shedding hook (reject with the estimate
  /// before queueing). Returns an unknown estimate for unresolvable
  /// requests; never throws.
  [[nodiscard]] CostEstimate estimate(const SolveRequest& req) const;

  /// Reconfigure the admission budget at runtime (0 = admit everything).
  void set_admission_budget(double walker_seconds);
  /// Refit the admission price list for (problem, size) from measured
  /// single-walker run times. Synchronized against concurrent submits —
  /// the cost model is only ever touched under the service mutex, so a
  /// long-running service can recalibrate from its own completed reports
  /// while traffic flows.
  void calibrate_cost_model(const std::string& problem, int size,
                            const std::vector<double>& run_seconds);
  /// Snapshot of the admission price list (copy: the live model is only
  /// accessed under the service mutex).
  [[nodiscard]] CostModel cost_model() const;

 private:
  /// One dedup follower: completion callback plus its own submission
  /// timestamp (for the latency histogram) and request id (reports are
  /// restamped under the follower's id).
  struct Follower {
    std::string id;
    double t0 = 0;
    Callback done;
  };

  /// One coalescing group: the leader executes, followers' callbacks are
  /// fulfilled from the leader's completion epilogue.
  struct Inflight {
    std::vector<Follower> followers;
  };

  void run_leader(const SolveRequest& resolved, const std::string& key,
                  const std::shared_ptr<Inflight>& entry, bool cacheable_seed, double t0,
                  Callback done);

  /// Feed one completed execution into the auto-calibration buffers and
  /// refit the cost model's cell once it has enough samples. Caller holds
  /// mu_.
  void auto_calibrate_locked(const SolveReport& report);

  Options opts_;
  par::ThreadPool pool_;
  CostModel cost_model_;
  std::function<double()> clock_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  ServiceStats stats_;
  ReportCache cache_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_by_key_;
  uint64_t inflight_ = 0;
  /// (problem, size) -> rolling single-walker-equivalent run-time samples
  /// feeding the cost model's auto-calibration.
  std::map<std::pair<std::string, int>, std::vector<double>> calibration_samples_;
};

}  // namespace cas::runtime
