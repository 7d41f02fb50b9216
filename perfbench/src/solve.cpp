// solve_n17: the paper's measurement — time to a verified Costas solution
// through the runtime's SolverService (the path cas_run takes), closed
// loop, one request outstanding, cache off.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <map>

#include "analysis/exponential_fit.hpp"
#include "analysis/speedup_predictor.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/service.hpp"
#include "runtime/strategy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cas::runtime::SolveReport;
using cas::runtime::SolveRequest;
using cas::runtime::SolverService;

SolveRequest costas_request(int n, int walkers, uint64_t seed) {
  SolveRequest req;
  req.problem = "costas";
  req.size = n;
  req.engine = "as";
  req.strategy = "multiwalk";
  req.walkers = walkers;
  req.seed = seed;
  return req;
}

struct Rung {
  Sample latency;            // client-observed seconds
  Sample unstolen;           // the same, less the host's steal (UnstolenClock)
  Sample service_overhead;   // client latency - report.wall_seconds
  Sample strategy_overhead;  // report.wall_seconds - winner wall_seconds
  double iterations = 0;     // all walkers
  double wall = 0;           // summed report.wall_seconds
  double reset_seconds = 0;  // winner
  double winner_wall = 0;
  double busy = 0;           // loop time spent on this rung
};

/// Service start until ready: construct the pool and answer one trivial
/// request. Returns the seconds it took.
double start_service(std::unique_ptr<SolverService>& svc, unsigned threads) {
  const double t0 = now_s();
  SolverService::Options o;
  o.pool_threads = threads;
  o.cache_capacity = 0;
  o.auto_calibrate = false;
  svc = std::make_unique<SolverService>(o);
  svc->submit(costas_request(8, 1, 1)).get();
  return now_s() - t0;
}

}  // namespace

void solve_pass(const Settings& s, Tracer& tracer, int n, const std::vector<int>& rungs,
                double budget_seconds, Result& out) {
  std::unique_ptr<SolverService> svc;
  Sample setup;
  for (int i = 0; i < 31; ++i) {
    svc.reset();
    setup.add(start_service(svc, s.nproc));
  }

  const std::vector<uint64_t> seeds = seed_list(s.seed, kSolveSeeds, 4096);
  std::map<int, Rung> by_rung;
  size_t seeds_done = 0;
  const double t_start = now_s();
  while (seeds_done < seeds.size() && now_s() - t_start < budget_seconds) {
    const uint64_t seed = seeds[seeds_done++];
    for (const int walkers : rungs) {
      const SolveRequest req = costas_request(n, walkers, seed);
      const std::string rid = "w" + std::to_string(walkers) + "-s" + std::to_string(seed);
      ++out.attempted;
      const UnstolenClock stopwatch(std::min<unsigned>(walkers, s.nproc));
      const double t0 = now_s();
      SolveReport rep;
      uint64_t span_id = 0;
      {
        ScopedSpan span(tracer, "runtime.submit", rid);
        span_id = span.id();
        rep = svc->submit(req).get();
      }
      const double t1 = now_s();
      const double unstolen = stopwatch.seconds();
      Rung& r = by_rung[walkers];
      const bool ok = rep.error.empty() && rep.solved &&
                      verify_costas(rep.winner_stats.solution, n);
      r.busy += now_s() - t0;
      if (!ok) {
        out.fail(rid + ": " + (!rep.error.empty() ? rep.error
                               : rep.solved   ? "reported solution is not a Costas array"
                                              : "unsolved"));
        continue;
      }
      if (tracer.enabled()) {
        // The strategy ran inside the service call and the winning walk
        // inside the strategy; their spans are placed from the report's own
        // durations, ending when the call returned.
        const uint64_t strategy_id =
            tracer.record("strategy.multiwalk", rid, std::max(t0, t1 - rep.wall_seconds), t1,
                          span_id);
        tracer.record("core.winner_walk", rid,
                      std::max(t0, t1 - rep.winner_stats.wall_seconds), t1, strategy_id);
      }
      r.latency.add(t1 - t0);
      r.unstolen.add(unstolen);
      r.service_overhead.add((t1 - t0) - rep.wall_seconds);
      r.strategy_overhead.add(rep.wall_seconds - rep.winner_stats.wall_seconds);
      r.iterations += static_cast<double>(rep.total_iterations);
      r.wall += rep.wall_seconds;
      r.reset_seconds += rep.winner_stats.reset_seconds;
      r.winner_wall += rep.winner_stats.wall_seconds;
    }
  }
  const double elapsed = now_s() - t_start;
  svc.reset();

  const int widest = rungs.back();
  const Rung& top = by_rung[widest];
  std::printf("solve: n=%d, rungs", n);
  for (int w : rungs)
    std::printf(" %d:%zu/%.4fs", w, by_rung[w].latency.size(), by_rung[w].latency.mean());
  std::printf(" (walkers:samples/mean), %zu seeds in %.1fs\n", seeds_done, elapsed);

  out.set("setup_s", setup.median(), "s");
  const double unstolen_sum = top.unstolen.mean() * static_cast<double>(top.unstolen.size());
  out.set("tts_mean_s", top.unstolen.mean(), "s");
  out.set("iters_per_s", top.iterations / unstolen_sum, "1/s");
  std::printf("solve: wall tts mean %.4fs p50 %.4fs tail p%.1f %.4fs over %zu samples, "
              "%.2f solves/s closed loop\n",
              top.latency.mean(), top.latency.median(), top.latency.tail_q() * 100,
              top.latency.tail(), top.latency.size(),
              static_cast<double>(top.latency.size()) / top.busy);
  std::printf("solve: less steal: tts mean %.4fs p50 %.4fs tail p%.1f %.4fs, %.0f iterations/s\n",
              top.unstolen.mean(), top.unstolen.median(), top.unstolen.tail_q() * 100,
              top.unstolen.tail(), top.iterations / unstolen_sum);
  if (rungs.size() < 2 || rungs.front() != 1) return;
  const Rung& one = by_rung[1];
  if (one.latency.size() < 2 || top.latency.size() < 2) return;
  out.set("core.reset_share", top.winner_wall > 0 ? top.reset_seconds / top.winner_wall : 0,
          "ratio");
  out.set("strategy.overhead_ms", top.strategy_overhead.mean() * 1e3, "ms");
  Sample all_overhead;
  for (const auto& [w, r] : by_rung)
    for (double x : r.service_overhead.xs) all_overhead.add(x);
  out.set("service.exec_overhead_us", all_overhead.mean() * 1e6, "us");
  const double rate1 = one.iterations / one.wall;
  const double rate_top = top.iterations / top.wall;
  out.set("par.iter_efficiency", rate_top / (widest * rate1), "ratio");

  const auto fit = cas::analysis::fit_shifted_exponential(one.latency.xs);
  const double ks = cas::analysis::ks_distance(one.latency.xs, fit);
  const double speedup = one.latency.mean() / top.latency.mean();
  const double predicted = cas::analysis::predict_speedup(fit, widest).speedup;
  out.set("walker.ttt_mu_s", fit.mu, "s");
  out.set("walker.ttt_lambda_s", fit.lambda, "s");
  out.set("walker.ttt_ks", ks, "ratio");
  out.set("strategy.speedup", speedup, "x");
  out.set("strategy.speedup_vs_predicted", speedup / predicted, "ratio");

  const cas::runtime::CostModel model;
  const auto est = model.estimate(cas::runtime::resolve(costas_request(n, 1, 1)));
  out.set("runtime.cost_model_ratio", est.expected_walker_seconds / one.latency.mean(), "ratio");
  std::printf(
      "analysis: 1-walker fit mu=%.4fs lambda=%.4fs KS=%.3f over %zu samples; speedup %.2fx "
      "measured vs %.2fx predicted (min-of-%d); CostModel prices %.3f walker-s vs %.3fs "
      "measured\n",
      fit.mu, fit.lambda, ks, one.latency.size(), speedup, predicted, widest,
      est.expected_walker_seconds, one.latency.mean());
}

}  // namespace perfbench
