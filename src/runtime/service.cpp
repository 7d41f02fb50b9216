#include "runtime/service.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cas::runtime {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

util::Json ServiceStats::to_json() const {
  util::Json j = util::Json::object();
  j["submitted"] = submitted;
  j["completed"] = completed;
  j["solved"] = solved;
  j["failed"] = failed;
  j["executions"] = executions;
  j["dedup_hits"] = dedup_hits;
  j["cache_hits"] = cache_hits;
  j["rejected"] = rejected;
  j["cache_size"] = cache_size;
  j["cache_evictions"] = cache_evictions;
  j["cache_expired"] = cache_expired;
  j["estimated_walker_seconds"] = estimated_walker_seconds;
  j["cost_model_calibrations"] = cost_model_calibrations;
  j["total_iterations"] = total_iterations;
  j["total_wall_seconds"] = total_wall_seconds;
  // Per-outcome service latency percentiles (milliseconds). An outcome
  // with count 0 reports zeros — the keys are always present so wire
  // consumers need no existence checks.
  const auto latency_json = [](const util::LogHistogram& h) {
    util::Json l = util::Json::object();
    l["count"] = h.count();
    l["mean_ms"] = h.mean() * 1e3;
    l["p50_ms"] = h.percentile(0.50) * 1e3;
    l["p95_ms"] = h.percentile(0.95) * 1e3;
    l["p99_ms"] = h.percentile(0.99) * 1e3;
    l["max_ms"] = h.max() * 1e3;
    return l;
  };
  util::Json lat = util::Json::object();
  lat["executed"] = latency_json(latency_executed);
  lat["dedup"] = latency_json(latency_dedup);
  lat["cache"] = latency_json(latency_cache);
  lat["rejected"] = latency_json(latency_rejected);
  j["latency"] = std::move(lat);
  return j;
}

SolverService::SolverService() : SolverService(Options{}) {}

SolverService::SolverService(Options opts)
    : opts_(std::move(opts)),
      pool_(opts_.pool_threads),
      clock_(opts_.clock ? opts_.clock : steady_seconds),
      cache_(opts_.cache_capacity, opts_.cache_ttl_seconds) {}

SolverService::~SolverService() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void SolverService::run_leader(const SolveRequest& req, const std::string& key,
                               const std::shared_ptr<Inflight>& entry, bool cacheable_seed,
                               double t0, Callback done) {
  StrategyContext ctx;
  ctx.executor = &pool_;
  // Never throws: both solve() and any injected solve_fn report failures
  // through report.error.
  SolveReport report = opts_.solve_fn ? opts_.solve_fn(req, ctx) : solve(req, ctx);
  report.served_by = "executed";
  std::vector<Follower> followers;
  {
    std::scoped_lock lock(mu_);
    const double now = clock_();
    ++stats_.executions;
    ++stats_.completed;
    if (!report.error.empty())
      ++stats_.failed;
    else if (report.solved)
      ++stats_.solved;
    stats_.total_iterations += report.total_iterations;
    stats_.total_wall_seconds += report.wall_seconds;
    stats_.latency_executed.add(now - t0);
    if (opts_.auto_calibrate) auto_calibrate_locked(report);
    if (entry != nullptr) {
      // The inflight entry leaves the map under the same lock that admits
      // followers, so the follower set is final here.
      followers = std::move(entry->followers);
      inflight_by_key_.erase(key);
      stats_.completed += followers.size();
      if (!report.error.empty())
        stats_.failed += followers.size();
      else if (report.solved)
        stats_.solved += followers.size();
      for (const Follower& f : followers) stats_.latency_dedup.add(now - f.t0);
      // Cacheable: deterministic seed, clean execution, and not an
      // unsolved run whose only bound was the wall clock (a retry might
      // do better — that answer must not be frozen).
      if (cacheable_seed && report.error.empty() &&
          (report.solved || report.request.timeout_seconds <= 0))
        cache_.put(key, report, clock_());
    }
  }
  // Completion callbacks run BEFORE the inflight decrement: the destructor
  // releases only once every callback has returned, so a callback can
  // safely touch structures that outlive the service by construction (the
  // server's completion queue) without racing teardown.
  for (Follower& f : followers) {
    SolveReport copy = report;
    copy.served_by = "dedup";
    copy.request.id = f.id;
    f.done(std::move(copy));
  }
  done(std::move(report));
  {
    // Nothing may touch `this` after this block: once inflight_ hits 0 the
    // destructor is free to run while this detached coordinator finishes
    // returning.
    std::scoped_lock lock(mu_);
    --inflight_;
    // Notify under the lock: after the unlock the destructor may already
    // have observed inflight_ == 0 and destroyed the condition variable.
    idle_cv_.notify_all();
  }
}

void SolverService::auto_calibrate_locked(const SolveReport& report) {
  // Only clean, solved, first-win executions are usable: an unsolved or
  // errored run is a censored observation of the run-length distribution,
  // and the portfolio's heterogeneous engines change the law itself.
  if (!report.error.empty() || !report.solved) return;
  const SolveRequest& req = report.request;
  if (req.strategy != "sequential" && req.strategy != "multiwalk") return;
  const core::RunStats& winner = report.winner_stats;
  if (winner.wall_seconds > 0)
    cost_model_.record_rate(req.problem, req.size, static_cast<double>(winner.iterations),
                            winner.wall_seconds);
  // k first-win walkers stop together, so their summed iterations are k
  // times the minimum of k exponential draws: one single-walker draw.
  auto& samples = calibration_samples_[{req.problem, req.size}];
  constexpr size_t kWindow = 64;
  if (samples.size() >= kWindow) samples.erase(samples.begin());
  samples.push_back(static_cast<double>(report.total_iterations));
  if (samples.size() < static_cast<size_t>(std::max(2, opts_.auto_calibrate_min_samples)))
    return;
  cost_model_.calibrate(req.problem, req.size, samples);
  ++stats_.cost_model_calibrations;
}

std::future<SolveReport> SolverService::submit(SolveRequest req) {
  // The blocking form is a thin shim over the streaming one: the callback
  // fulfills a shared promise. The promise outlives the service by
  // construction (the closure owns it), so the callback-before-decrement
  // teardown rule holds trivially.
  auto prom = std::make_shared<std::promise<SolveReport>>();
  std::future<SolveReport> fut = prom->get_future();
  submit_with_callback(std::move(req),
                       [prom](SolveReport r) { prom->set_value(std::move(r)); });
  return fut;
}

void SolverService::submit_with_callback(SolveRequest req, Callback done) {
  const double t0 = clock_();
  // Resolution (and hence the canonical key) happens before any serving
  // decision; an unresolvable request skips dedup/cache/admission and goes
  // straight to execution, where solve() turns the failure into an error
  // report — the established stats semantics for bad requests.
  SolveRequest resolved;
  std::string key;
  bool resolvable = false;
  try {
    resolved = resolve(req);
    key = resolved.canonical_key();
    resolvable = true;
  } catch (const std::exception&) {
  }

  std::unique_lock lock(mu_);
  ++stats_.submitted;
  if (resolvable) {
    // 1. Report cache. A hit is free, so it is served even when the
    //    request would fail admission.
    if (auto hit = cache_.get(key, clock_())) {
      ++stats_.completed;
      if (hit->solved) ++stats_.solved;
      stats_.latency_cache.add(clock_() - t0);
      hit->served_by = "cache";
      hit->request.id = req.id;
      lock.unlock();
      done(std::move(*hit));
      return;
    }
    // 2. In-flight dedup: coalesce onto the running execution; the
    //    leader's completion epilogue fulfills the callback.
    if (const auto it = inflight_by_key_.find(key); it != inflight_by_key_.end()) {
      ++stats_.dedup_hits;
      it->second->followers.push_back({req.id, t0, std::move(done)});
      return;
    }
    // 3. Cost-estimated admission, only for work that would actually run.
    if (opts_.admission_budget_walker_seconds > 0) {
      const CostEstimate est = cost_model_.estimate(resolved);
      if (est.known &&
          est.expected_walker_seconds > opts_.admission_budget_walker_seconds) {
        ++stats_.rejected;
        ++stats_.completed;
        ++stats_.failed;
        stats_.latency_rejected.add(clock_() - t0);
        SolveReport rejection;
        rejection.request = std::move(resolved);
        rejection.served_by = "rejected";
        rejection.error = "admission rejected: estimated " +
                          std::to_string(est.expected_walker_seconds) +
                          " walker-seconds exceeds budget " +
                          std::to_string(opts_.admission_budget_walker_seconds);
        rejection.extras = util::Json::object();
        rejection.extras["cost_estimate"] = est.to_json();
        lock.unlock();
        done(std::move(rejection));
        return;
      }
      if (est.known) stats_.estimated_walker_seconds += est.expected_walker_seconds;
    }
  }
  ++inflight_;
  std::shared_ptr<Inflight> entry;
  if (resolvable) {
    entry = std::make_shared<Inflight>();
    inflight_by_key_[key] = entry;
  }
  lock.unlock();
  // Leaders keep the resolved request (resolve is idempotent inside
  // solve()); unresolvable requests carry the original so the error
  // message names the offending field.
  const SolveRequest& to_run = resolvable ? resolved : req;
  const bool cacheable_seed = resolvable && resolved.seed != 0 && opts_.cache_capacity > 0;
  try {
    // One coordinator thread per executing request; it spends its life
    // blocked on the request's walker chunks, which run on the shared
    // pool. Detached: the destructor's inflight wait is the join (the
    // coordinator's last act is the decrement), so nobody has to hold a
    // future. `key` is copied, not moved: the rollback below still needs
    // it when coordinator creation throws mid-flight.
    std::thread([this, run = to_run, key, entry, cacheable_seed, t0,
                 done = std::move(done)]() mutable {
      run_leader(run, key, entry, cacheable_seed, t0, std::move(done));
    }).detach();
  } catch (...) {
    // Thread creation failed: no coordinator will ever decrement
    // inflight_, so roll the accounting back or the destructor hangs. Any
    // follower that attached in the published-but-unlaunched window must
    // still see its callback run (with an error report) — a swallowed
    // completion would wedge the server front-end's connection state.
    std::vector<Follower> orphans;
    {
      std::scoped_lock relock(mu_);
      --stats_.submitted;
      --inflight_;
      if (entry != nullptr) {
        orphans = std::move(entry->followers);
        inflight_by_key_.erase(key);
        stats_.completed += orphans.size();
        stats_.failed += orphans.size();
      }
      idle_cv_.notify_all();
    }
    for (Follower& f : orphans) {
      SolveReport orphan_report;
      orphan_report.request = resolved;
      orphan_report.request.id = f.id;
      orphan_report.error = "service: coordinator thread creation failed";
      f.done(std::move(orphan_report));
    }
    throw;
  }
}

std::vector<SolveReport> SolverService::solve_batch(const std::vector<SolveRequest>& requests) {
  std::vector<std::future<SolveReport>> futures;
  futures.reserve(requests.size());
  for (const auto& req : requests) futures.push_back(submit(req));
  std::vector<SolveReport> reports;
  reports.reserve(futures.size());
  for (auto& f : futures) reports.push_back(f.get());
  return reports;
}

ServiceStats SolverService::stats() const {
  std::scoped_lock lock(mu_);
  ServiceStats s = stats_;
  s.cache_hits = cache_.hits();
  s.cache_size = cache_.size();
  s.cache_evictions = cache_.evictions();
  s.cache_expired = cache_.expired();
  return s;
}

uint64_t SolverService::inflight() const {
  std::scoped_lock lock(mu_);
  return inflight_;
}

CostEstimate SolverService::estimate(const SolveRequest& req) const {
  try {
    const SolveRequest resolved = resolve(req);
    std::scoped_lock lock(mu_);
    return cost_model_.estimate(resolved);
  } catch (const std::exception&) {
    return {};  // unpriceable: est.known stays false, the caller admits
  }
}

void SolverService::set_admission_budget(double walker_seconds) {
  std::scoped_lock lock(mu_);
  opts_.admission_budget_walker_seconds = walker_seconds;
}

CostModel SolverService::cost_model() const {
  std::scoped_lock lock(mu_);
  return cost_model_;
}

}  // namespace cas::runtime
