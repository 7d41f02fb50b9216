// The SolverService serving layer: canonical-key dedup of concurrent
// identical requests, the bounded LRU report cache (TTL, eviction order,
// seed-sensitivity), and cost-estimated admission. The acceptance race —
// 16 concurrent identical deterministic-seed requests producing exactly
// ONE strategy execution — lives here.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cost_model.hpp"
#include "runtime/service.hpp"

namespace cas::runtime {
namespace {

SolveRequest costas_request(const std::string& id, int size, uint64_t seed) {
  SolveRequest req;
  req.id = id;
  req.problem = "costas";
  req.size = size;
  req.strategy = "multiwalk";
  req.walkers = 2;
  req.seed = seed;
  return req;
}

TEST(ServiceDedup, SixteenConcurrentIdenticalRequestsOneExecution) {
  SolverService service({/*pool_threads=*/4, /*cache_capacity=*/16});
  // Identical work under sixteen different ids: the canonical key excludes
  // the id, so all sixteen coalesce. Exactly one strategy execution may
  // happen; every other submission is served by dedup (in flight) or by
  // the cache (if the leader finished before a later submit).
  std::vector<std::future<SolveReport>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(service.submit(costas_request("r" + std::to_string(i), 13, 42)));

  std::vector<SolveReport> reports;
  for (auto& f : futures) reports.push_back(f.get());

  const auto stats = service.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.dedup_hits + stats.cache_hits, 15u);
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.solved, 16u);

  int executed = 0;
  for (int i = 0; i < 16; ++i) {
    const auto& rep = reports[static_cast<size_t>(i)];
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_TRUE(rep.solved);
    // Every follower gets the leader's answer under its own id.
    EXPECT_EQ(rep.request.id, "r" + std::to_string(i));
    EXPECT_EQ(rep.winner_stats.solution, reports[0].winner_stats.solution);
    if (rep.served_by == "executed")
      ++executed;
    else
      EXPECT_TRUE(rep.served_by == "dedup" || rep.served_by == "cache") << rep.served_by;
  }
  EXPECT_EQ(executed, 1);

  // Resubmission after completion is a cache hit.
  const auto again = service.submit(costas_request("again", 13, 42)).get();
  EXPECT_EQ(again.served_by, "cache");
  EXPECT_EQ(again.request.id, "again");
  EXPECT_TRUE(again.solved);
  EXPECT_EQ(service.stats().executions, 1u);
}

TEST(ServiceCache, LruEvictsLeastRecentlyUsed) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 2;
  SolverService service(opts);
  const auto a = costas_request("a", 9, 1);
  const auto b = costas_request("b", 10, 2);
  const auto c = costas_request("c", 11, 3);

  service.submit(a).get();                                    // cache: [A]
  service.submit(b).get();                                    // cache: [B, A]
  EXPECT_EQ(service.submit(a).get().served_by, "cache");      // touch A: [A, B]
  service.submit(c).get();                                    // evicts B: [C, A]
  EXPECT_EQ(service.submit(a).get().served_by, "cache");      // A survived: [A, C]
  EXPECT_EQ(service.submit(b).get().served_by, "executed");   // B was evicted

  const auto stats = service.stats();
  EXPECT_EQ(stats.executions, 4u);  // a, b, c, b-again
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_evictions, 2u);  // B (by C), then C (by B-again)
  EXPECT_EQ(stats.cache_size, 2u);
}

TEST(ServiceCache, TtlExpiresEntries) {
  auto now = std::make_shared<double>(0.0);
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 8;
  opts.cache_ttl_seconds = 10.0;
  opts.clock = [now] { return *now; };
  SolverService service(opts);

  const auto req = costas_request("ttl", 10, 5);
  EXPECT_EQ(service.submit(req).get().served_by, "executed");
  *now = 5.0;  // within TTL
  EXPECT_EQ(service.submit(req).get().served_by, "cache");
  *now = 20.0;  // past TTL: entry dropped, a fresh execution runs
  EXPECT_EQ(service.submit(req).get().served_by, "executed");

  const auto stats = service.stats();
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_expired, 1u);
}

TEST(ServiceCache, StochasticSeedRequestsBypassTheCache) {
  SolverService service({/*pool_threads=*/2, /*cache_capacity=*/16});
  const auto req = costas_request("stoch", 10, /*seed=*/0);  // seed 0 = stochastic
  const auto first = service.submit(req).get();
  const auto second = service.submit(req).get();
  EXPECT_TRUE(first.solved);
  EXPECT_TRUE(second.solved);
  // Each execution drew its own fresh seed; the echo keeps it replayable.
  EXPECT_NE(first.request.seed, 0u);
  EXPECT_NE(second.request.seed, 0u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_size, 0u);
}

TEST(ServiceCache, UnsolvedTimeoutBoundedRunsAreNotCached) {
  SolverService service({/*pool_threads=*/2, /*cache_capacity=*/16});
  // Hopeless in 30 ms: the run completes unsolved, bounded only by the
  // wall clock — a retry might do better, so the answer must not freeze.
  auto req = costas_request("hard", 18, 7);
  req.timeout_seconds = 0.03;
  req.probe_interval = 8;
  const auto first = service.submit(req).get();
  ASSERT_TRUE(first.error.empty()) << first.error;
  ASSERT_FALSE(first.solved);
  EXPECT_EQ(service.submit(req).get().served_by, "executed");
  EXPECT_EQ(service.stats().executions, 2u);
  EXPECT_EQ(service.stats().cache_size, 0u);
}

TEST(ServiceCache, UnsolvedIterationCappedRunsAreCached) {
  SolverService service({/*pool_threads=*/2, /*cache_capacity=*/16});
  // An iteration cap with no wall-clock bound is deterministic: the same
  // request gives the same unsolved outcome, so it is a cacheable answer.
  auto req = costas_request("capped", 18, 7);
  req.max_iterations = 40;
  req.probe_interval = 8;
  const auto first = service.submit(req).get();
  ASSERT_TRUE(first.error.empty()) << first.error;
  ASSERT_FALSE(first.solved);
  const auto second = service.submit(req).get();
  EXPECT_EQ(second.served_by, "cache");
  EXPECT_FALSE(second.solved);
  EXPECT_EQ(service.stats().executions, 1u);
}

TEST(ServiceAdmission, RejectsOverBudgetServesCheapAndCached) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 16;
  opts.admission_budget_walker_seconds = 0.05;  // ~50 ms of machine time
  SolverService service(opts);

  // Costas 17 takes ~1e5 iterations, tenths of a walker-second at any
  // plausible rate: rejected before touching the pool.
  const auto rejected = service.submit(costas_request("big", 17, 1)).get();
  EXPECT_EQ(rejected.served_by, "rejected");
  EXPECT_NE(rejected.error.find("admission rejected"), std::string::npos) << rejected.error;
  ASSERT_TRUE(rejected.extras.is_object());
  EXPECT_GT(rejected.extras.at("cost_estimate").at("expected_walker_seconds").as_number(),
            0.05);

  // Cheap work is admitted and its estimate is accounted.
  const auto ok = service.submit(costas_request("small", 10, 1)).get();
  EXPECT_EQ(ok.served_by, "executed");
  EXPECT_TRUE(ok.solved);

  auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_GT(stats.estimated_walker_seconds, 0.0);

  // A cache hit costs nothing, so it is served even under a budget that
  // would reject the execution.
  service.set_admission_budget(1e-9);
  const auto cached = service.submit(costas_request("small-again", 10, 1)).get();
  EXPECT_EQ(cached.served_by, "cache");
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(ServiceAdmission, TimeoutCapMakesBigRequestsAdmissible) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 0;
  opts.admission_budget_walker_seconds = 0.2;
  SolverService service(opts);
  // Unbounded costas 17 (~1e5 iterations) is over budget, but a wall-clock
  // cap bounds the bill at walkers x timeout, which fits.
  auto req = costas_request("bounded", 17, 1);
  req.walkers = 2;
  req.timeout_seconds = 0.05;
  req.probe_interval = 8;
  const auto rep = service.submit(req).get();
  EXPECT_NE(rep.served_by, "rejected") << rep.error;
  EXPECT_TRUE(rep.error.empty()) << rep.error;
}

TEST(ServiceStatsJson, ExportsTheFullSurface) {
  SolverService service({/*pool_threads=*/2});
  service.submit(costas_request("s", 10, 3)).get();
  const util::Json j = service.stats().to_json();
  for (const char* key :
       {"submitted", "completed", "solved", "failed", "executions", "dedup_hits", "cache_hits",
        "rejected", "cache_size", "cache_evictions", "cache_expired",
        "estimated_walker_seconds", "cost_model_calibrations", "total_iterations",
        "total_wall_seconds"})
    EXPECT_TRUE(j.contains(key)) << key;
  EXPECT_EQ(j.at("executions").as_int(), 1);
}

// ---------- auto-calibration from the service's own reports ----------

TEST(ServiceAutoCalibration, RefitsCostModelFromOwnReports) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 0;  // every request must really execute
  opts.auto_calibrate_min_samples = 3;
  SolverService service(opts);
  // Distinct seeds -> distinct canonical keys -> four real executions.
  for (int s = 1; s <= 4; ++s)
    service.submit(costas_request("c" + std::to_string(s), 10, static_cast<uint64_t>(s)))
        .get();
  const auto stats = service.stats();
  EXPECT_EQ(stats.executions, 4u);
  EXPECT_GE(stats.cost_model_calibrations, 1u);
  // The refit (costas, 10) cell now carries this machine's measured fit,
  // not the built-in curve's canned point.
  SolveRequest probe = costas_request("probe", 10, 7);
  const auto live = service.cost_model().estimate(resolve(probe));
  ASSERT_TRUE(live.known);
  EXPECT_GT(live.expected_walker_seconds, 0.0);
  const auto builtin = CostModel().estimate(resolve(probe));
  EXPECT_NE(live.fit.lambda, builtin.fit.lambda);
}

TEST(ServiceAutoCalibration, DisabledKeepsBuiltInCurve) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 0;
  opts.auto_calibrate = false;
  opts.auto_calibrate_min_samples = 2;
  SolverService service(opts);
  for (int s = 1; s <= 3; ++s)
    service.submit(costas_request("c" + std::to_string(s), 9, static_cast<uint64_t>(s))).get();
  EXPECT_EQ(service.stats().cost_model_calibrations, 0u);
  SolveRequest probe = costas_request("probe", 9, 7);
  EXPECT_EQ(service.cost_model().estimate(resolve(probe)).fit.lambda,
            CostModel().estimate(resolve(probe)).fit.lambda);
}

TEST(ServiceAutoCalibration, CensoredRunsNeverContribute) {
  // Unsolved (iteration-capped) executions are censored observations of
  // the run-time distribution; feeding them in would bias the price down.
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 0;
  opts.auto_calibrate_min_samples = 2;
  SolverService service(opts);
  for (int s = 1; s <= 3; ++s) {
    auto req = costas_request("t" + std::to_string(s), 16, static_cast<uint64_t>(s));
    req.max_iterations = 50;  // far below the ~1e6 expected solve cost
    req.probe_interval = 8;
    service.submit(req).get();
  }
  EXPECT_EQ(service.stats().cost_model_calibrations, 0u);
}

// ---------- CostModel ----------

TEST(CostModel, CostasIterationCurveGrowsWithSizeAndIsWalkerInvariantNearMuZero) {
  CostModel model;
  SolveRequest req = costas_request("", 13, 1);
  const auto e13 = model.estimate(resolve(req));
  req.size = 16;
  const auto e16 = model.estimate(resolve(req));
  ASSERT_TRUE(e13.known);
  ASSERT_TRUE(e16.known);
  // The curve is in iterations, the same on every host: n = 16 takes ~70x
  // the iterations of n = 13.
  EXPECT_GT(e16.fit.mean(), 20 * e13.fit.mean());
  EXPECT_GT(e16.expected_walker_seconds, e13.expected_walker_seconds);
  // Seconds are the bill in iterations at the rate probed on this host.
  ASSERT_GT(e16.iterations_per_second, 0.0);
  EXPECT_NEAR(e16.expected_walker_seconds,
              (2 * e16.fit.mu + e16.fit.lambda) / e16.iterations_per_second,
              1e-9 * e16.expected_walker_seconds);
  // mu ~ 0 regime: the machine-time bill is ~lambda no matter how wide the
  // race — parallelism buys latency only.
  req.walkers = 16;
  const auto wide = model.estimate(resolve(req));
  EXPECT_NEAR(wide.expected_walker_seconds, e16.expected_walker_seconds,
              0.01 * e16.expected_walker_seconds);
  EXPECT_LT(wide.expected_wall_seconds, e16.expected_wall_seconds);
}

TEST(CostModel, InterpolatesAndExtrapolatesGeometrically) {
  CostModel model;
  SolveRequest req = costas_request("", 15, 1);
  const double at15 = model.estimate(resolve(req)).fit.mean();
  req.size = 16;
  const double at16 = model.estimate(resolve(req)).fit.mean();
  req.size = 19;  // beyond the curve: log-linear extrapolation keeps growing
  const double at19 = model.estimate(resolve(req)).fit.mean();
  EXPECT_GT(at16, at15);
  EXPECT_GT(at19, 10 * at16);
}

TEST(CostModel, UnknownProblemsAreNotPriced) {
  CostModel model;
  SolveRequest req;
  req.problem = "queens";
  req.size = 32;
  EXPECT_FALSE(model.estimate(resolve(req)).known);
}

/// Ten measured single-walker runs around 2e5 iterations.
const std::vector<double> kQueensIterations{1.8e5,  2.0e5, 2.2e5, 1.9e5,  2.1e5,
                                            2.0e5, 1.95e5, 2.05e5, 2.15e5, 1.85e5};

TEST(CostModel, CalibrateInstallsAnIterationFitPricedAtTheRecordedRate) {
  CostModel model;
  model.calibrate("queens", 32, kQueensIterations);
  SolveRequest req;
  req.problem = "queens";
  req.size = 32;
  req.walkers = 4;
  // Only the Costas kernel has a probe: the fit alone cannot be priced.
  EXPECT_FALSE(model.estimate(resolve(req)).known);
  model.record_rate("queens", 32, 1e5, 1.0);
  const auto est = model.estimate(resolve(req));
  ASSERT_TRUE(est.known);
  EXPECT_EQ(model.probes(), 0);
  EXPECT_DOUBLE_EQ(est.iterations_per_second, 1e5);
  // k*mu + lambda with mu ~= 1.8e5, lambda ~= 0.2e5 iterations at 1e5
  // iterations/s: around 7.4 walker-seconds.
  EXPECT_GT(est.expected_walker_seconds, 5.0);
  EXPECT_LT(est.expected_walker_seconds, 10.0);
}

TEST(CostModel, OneIterationFitAtTwoRatesPricesInInverseProportion) {
  // Two hosts, one three times faster: the same built-in Costas n=17 fit
  // and the same iteration-fitted queens point, at each host's rate.
  CostModel slow;
  CostModel fast;
  for (CostModel* m : {&slow, &fast}) m->calibrate("queens", 32, kQueensIterations);
  slow.record_rate("costas", 17, 1e5, 1.0);
  fast.record_rate("costas", 17, 6e5, 2.0);
  slow.record_rate("queens", 32, 2e4, 0.5);
  fast.record_rate("queens", 32, 1.2e5, 1.0);
  SolveRequest costas = costas_request("", 17, 1);
  costas.walkers = 8;
  SolveRequest queens = costas;
  queens.problem = "queens";
  queens.size = 32;
  for (const SolveRequest& req : {costas, queens}) {
    const auto s = slow.estimate(resolve(req));
    const auto f = fast.estimate(resolve(req));
    ASSERT_TRUE(s.known && f.known) << req.problem;
    EXPECT_EQ(s.fit.mu, f.fit.mu);
    EXPECT_EQ(s.fit.lambda, f.fit.lambda);
    EXPECT_NEAR(s.expected_walker_seconds / f.expected_walker_seconds, 3.0, 1e-9);
    EXPECT_NEAR(s.expected_wall_seconds / f.expected_wall_seconds, 3.0, 1e-9);
  }
  EXPECT_EQ(slow.probes() + fast.probes(), 0);  // recorded rates need no probe
}

TEST(CostModel, ProbesOncePerCostasSizeAndNeverOnConstruction) {
  CostModel model;
  EXPECT_EQ(model.probes(), 0);
  SolverService service({/*pool_threads=*/2});
  EXPECT_EQ(service.cost_model().probes(), 0);

  const auto first = model.estimate(resolve(costas_request("", 12, 1)));
  ASSERT_TRUE(first.known);
  EXPECT_GT(first.iterations_per_second, 0.0);
  EXPECT_EQ(model.probes(), 1);
  // The rate is cached: another request at the size reuses it.
  SolveRequest wide = costas_request("", 12, 2);
  wide.walkers = 8;
  EXPECT_EQ(model.estimate(resolve(wide)).iterations_per_second, first.iterations_per_second);
  EXPECT_EQ(model.probes(), 1);
  (void)model.estimate(resolve(costas_request("", 13, 1)));
  EXPECT_EQ(model.probes(), 2);

  // A failed probe (no Costas instance of order 1) leaves the size unpriced,
  // once: the failure is cached too.
  const SolveRequest tiny = resolve(costas_request("", 1, 1));
  EXPECT_FALSE(model.estimate(tiny).known);
  EXPECT_FALSE(model.estimate(tiny).known);
  EXPECT_EQ(model.probes(), 3);
}

TEST(CostModel, IterationSamplesRefitTheCurveRateSamplesOnlyTheRate) {
  CostModel model;
  const SolveRequest req = resolve(costas_request("", 13, 1));
  model.record_rate("costas", 13, 2e5, 1.0);
  const auto built_in = model.estimate(req);
  ASSERT_TRUE(built_in.known);

  model.calibrate("costas", 13, {100, 300, 500, 700});
  const auto refit = model.estimate(req);
  EXPECT_DOUBLE_EQ(refit.fit.mu, 100);
  EXPECT_DOUBLE_EQ(refit.fit.lambda, 300);
  EXPECT_NE(refit.fit.lambda, built_in.fit.lambda);
  EXPECT_EQ(refit.iterations_per_second, built_in.iterations_per_second);

  // Rates pool as total iterations over total busy seconds.
  model.record_rate("costas", 13, 1e5, 1.0);
  const auto rerated = model.estimate(req);
  EXPECT_DOUBLE_EQ(rerated.iterations_per_second, 1.5e5);
  EXPECT_EQ(rerated.fit.mu, refit.fit.mu);
  EXPECT_EQ(rerated.fit.lambda, refit.fit.lambda);
  EXPECT_EQ(model.probes(), 0);
}

TEST(ServiceAutoCalibration, ConcurrentEstimatesWhileExecutionsComplete) {
  // Pricing threads (probing new sizes) race executions whose completions
  // record rates and refit curves: every model access is under the service
  // mutex.
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.cache_capacity = 0;
  opts.auto_calibrate_min_samples = 2;
  SolverService service(opts);
  std::atomic<bool> done{false};
  std::vector<std::thread> pricers;
  for (int t = 0; t < 3; ++t)
    pricers.emplace_back([&, t] {
      for (int i = 0; !done.load(); ++i) {
        const CostEstimate est = service.estimate(costas_request("p", 9 + (t + i) % 5, 1));
        EXPECT_TRUE(est.known);
        EXPECT_TRUE(std::isfinite(est.expected_walker_seconds));
      }
    });
  std::vector<std::future<SolveReport>> runs;
  for (int s = 1; s <= 8; ++s)
    runs.push_back(service.submit(costas_request("r", 10 + s % 3, static_cast<uint64_t>(s))));
  for (auto& f : runs) EXPECT_TRUE(f.get().solved);
  done = true;
  for (auto& t : pricers) t.join();
  EXPECT_GE(service.stats().cost_model_calibrations, 1u);
}

// ---------- streaming submission + per-outcome latency histograms --------

TEST(ServiceCallbacks, SubmitWithCallbackCoversExecutedCacheAndDedup) {
  SolverService service({/*pool_threads=*/2, /*cache_capacity=*/8});
  // Executed leader + a concurrent follower + a cache hit afterwards, all
  // through the callback API the network front-end uses.
  std::promise<SolveReport> lead, follow;
  service.submit_with_callback(costas_request("cb-lead", 12, 99),
                               [&](SolveReport r) { lead.set_value(std::move(r)); });
  service.submit_with_callback(costas_request("cb-follow", 12, 99),
                               [&](SolveReport r) { follow.set_value(std::move(r)); });
  const SolveReport r1 = lead.get_future().get();
  const SolveReport r2 = follow.get_future().get();
  EXPECT_EQ(r1.served_by, "executed");
  EXPECT_TRUE(r2.served_by == "dedup" || r2.served_by == "cache");
  EXPECT_EQ(r2.request.id, "cb-follow");  // follower reports are restamped

  // Cache path completes synchronously inside the call.
  bool done = false;
  service.submit_with_callback(costas_request("cb-cached", 12, 99), [&](SolveReport r) {
    EXPECT_EQ(r.served_by, "cache");
    done = true;
  });
  EXPECT_TRUE(done);

  // Every completion fed its outcome's latency histogram.
  const auto stats = service.stats();
  EXPECT_EQ(stats.latency_executed.count(), 1u);
  EXPECT_EQ(stats.latency_cache.count() + stats.latency_dedup.count(), 2u);
  EXPECT_GT(stats.latency_executed.min(), 0.0);
  EXPECT_GE(stats.latency_executed.percentile(0.99), stats.latency_executed.percentile(0.50));

  // ...and the JSON surface carries p50/p95/p99 per outcome.
  const util::Json j = stats.to_json();
  const util::Json& lat = j.at("latency");
  for (const char* outcome : {"executed", "dedup", "cache", "rejected"}) {
    const util::Json& o = lat.at(outcome);
    EXPECT_TRUE(o.contains("count"));
    EXPECT_TRUE(o.contains("p50_ms"));
    EXPECT_TRUE(o.contains("p99_ms"));
  }
  EXPECT_EQ(lat.at("executed").at("count").as_int(), 1);
}

TEST(ServiceCallbacks, RejectionCallbackIsSynchronousAndRecorded) {
  SolverService::Options opts;
  opts.pool_threads = 2;
  opts.admission_budget_walker_seconds = 1e-9;  // reject everything priceable
  SolverService service(opts);
  bool done = false;
  service.submit_with_callback(costas_request("cb-rej", 18, 5), [&](SolveReport r) {
    EXPECT_EQ(r.served_by, "rejected");
    EXPECT_NE(r.error.find("admission rejected"), std::string::npos);
    // The pricing rides the rejection, including through JSON (the wire
    // path's contract).
    EXPECT_TRUE(r.extras.at("cost_estimate").is_object());
    EXPECT_TRUE(r.to_json().at("extras").contains("cost_estimate"));
    done = true;
  });
  EXPECT_TRUE(done);
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.latency_rejected.count(), 1u);
}

TEST(ServiceCallbacks, EstimatePricesWithoutSubmitting) {
  SolverService service({/*pool_threads=*/2, /*cache_capacity=*/8});
  const CostEstimate est = service.estimate(costas_request("probe", 16, 3));
  EXPECT_TRUE(est.known);  // the built-in Costas curve covers n=16
  EXPECT_GT(est.expected_walker_seconds, 0.0);
  // Nothing was submitted, nothing ran.
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.completed, 0u);

  // Unresolvable requests price as unknown instead of throwing — the
  // server front-end sheds on estimates mid-read and must never unwind.
  SolveRequest bogus;
  bogus.problem = "no-such-problem";
  const CostEstimate none = service.estimate(bogus);
  EXPECT_FALSE(none.known);
}

}  // namespace
}  // namespace cas::runtime
