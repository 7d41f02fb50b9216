// Direct timings of the layers' public functions, on the workload's own
// instance: each is a tight loop around one call for a fixed slice of time,
// reported per call.
#include <cstdio>
#include <limits>

#include "core/adaptive_search.hpp"
#include "core/candidate_batch.hpp"
#include "core/rng.hpp"
#include "costas/model.hpp"
#include "dist/ckpt.hpp"
#include "runtime/problems.hpp"
#include "runtime/service.hpp"
#include "runtime/strategy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Calls fn() in batches of 16 for about `seconds`; returns seconds per call.
template <typename Fn>
double per_call(Tracer& tracer, const char* span, double seconds, Fn&& fn) {
  ScopedSpan s(tracer, span);
  const double t0 = now_s();
  uint64_t calls = 0;
  double t = t0;
  while (calls == 0 || t - t0 < seconds) {
    for (int k = 0; k < 16; ++k) fn();
    calls += 16;
    t = now_s();
  }
  return (t - t0) / static_cast<double>(calls);
}

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

}  // namespace

void layer_micro(const Settings& s, Tracer& tracer, Instance inst, Result& out) {
  const int n = inst.n;
  const uint64_t seed = seed_list(s.seed, kMicroSeeds, 1)[0];
  constexpr double kSlice = 0.25;

  // simd: one culprit row fill, and one reset-shaped candidate batch.
  {
    cas::costas::CostasProblem p(n);
    cas::core::Rng rng(seed);
    p.randomize(rng);
    std::vector<cas::core::Cost> row(static_cast<size_t>(n));
    int i = 0;
    out.set("simd.row_fill_ns", per_call(tracer, "simd.row_fill", kSlice, [&] {
              p.delta_costs_row(i++ % n, {row.data(), row.size()});
              keep(row);
            }) * 1e9,
            "ns");
    cas::core::CandidateBatch batch;
    batch.reset(n, p.reset_candidate_count());
    p.append_reset_families_1_2(n / 2, batch);
    std::vector<cas::core::Cost> costs(static_cast<size_t>(batch.count()));
    out.set("simd.reset_batch_ns", per_call(tracer, "simd.reset_batch", kSlice, [&] {
              p.evaluate_batch(batch, std::numeric_limits<cas::core::Cost>::max(),
                               {costs.data(), costs.size()});
              keep(costs);
            }) * 1e9,
            "ns");
    out.set("costas.custom_reset_us", per_call(tracer, "costas.custom_reset", kSlice, [&] {
              const bool escaped = p.custom_reset(rng);
              keep(escaped);
            }) * 1e6,
            "us");
  }

  // core: bounded single-thread Adaptive Search with the paper's config.
  {
    cas::costas::CostasProblem p(n);
    uint64_t iterations = 0, runs = 0;
    const double dt = per_call(tracer, "core.bounded_solve", 0.5, [&] {
      auto cfg = cas::costas::recommended_config(n, seed + runs++);
      cfg.max_iterations = 5000;
      cas::core::AdaptiveSearch<cas::costas::CostasProblem> engine(p, cfg);
      iterations += engine.solve().iterations;
    });
    out.set("core.iters_per_s", static_cast<double>(iterations) / (dt * static_cast<double>(runs)),
            "1/s");
  }

  // util + runtime: the workload's request on the wire and its report.
  cas::runtime::SolveRequest req;
  req.problem = "costas";
  req.size = n;
  req.strategy = "multiwalk";
  req.walkers = inst.walkers;
  req.seed = seed;
  cas::runtime::SolverService::Options so;
  so.pool_threads = s.nproc;
  so.auto_calibrate = false;
  cas::runtime::SolverService svc(so);
  const cas::runtime::SolveReport leader = svc.submit(req).get();
  ++out.attempted;
  if (!leader.solved || !verify_costas(leader.winner_stats.solution, n))
    out.fail("layer pass: the instance's leader execution did not solve");
  out.set("util.report_dump_us", per_call(tracer, "util.report_dump", kSlice, [&] {
            const std::string text = leader.to_json().dump(0);
            keep(text);
          }) * 1e6,
          "us");
  cas::util::Json frame = cas::util::Json::object();
  frame["type"] = "solve";
  frame["request"] = req.to_json();
  const std::string frame_text = frame.dump(0);
  out.set("util.request_parse_us", per_call(tracer, "util.request_parse", kSlice, [&] {
            const auto parsed = cas::runtime::SolveRequest::from_json(
                cas::util::Json::parse(frame_text).at("request"));
            keep(parsed);
          }) * 1e6,
          "us");
  bool hits_ok = true;
  out.set("service.hit_us", per_call(tracer, "runtime.cache_hit", kSlice, [&] {
            svc.submit_with_callback(req, [&](cas::runtime::SolveReport rep) {
              hits_ok = hits_ok && rep.served_by == "cache" &&
                        rep.winner_stats.solution == leader.winner_stats.solution;
            });
          }) * 1e6,
          "us");
  if (!hits_ok) out.fail("layer pass: an in-process cache hit differed from its leader");
  const cas::runtime::SolveRequest resolved = cas::runtime::resolve(req);
  out.set("service.estimate_us", per_call(tracer, "runtime.estimate", kSlice, [&] {
            const auto est = svc.estimate(resolved);
            keep(est);
          }) * 1e6,
          "us");

  // dist: a mid-walk snapshot to its checkpoint JSON and back.
  {
    const auto factory =
        cas::runtime::problem_registry().at("costas", "problem").make_resumable_walker(resolved);
    auto walk = factory(seed);
    walk->begin();
    walk->advance(5000, {});
    cas::runtime::WalkSnapshot snap = walk->snapshot();
    cas::util::Json snap_json = cas::dist::walk_snapshot_to_json(snap);
    out.set("dist.snapshot_us", per_call(tracer, "dist.snapshot", kSlice, [&] {
              snap_json = cas::dist::walk_snapshot_to_json(walk->snapshot());
              keep(snap_json);
            }) * 1e6,
            "us");
    auto other = factory(seed);
    out.set("dist.restore_us", per_call(tracer, "dist.restore", kSlice, [&] {
              other->restore(cas::dist::walk_snapshot_from_json(snap_json));
            }) * 1e6,
            "us");
    ++out.attempted;
    if (other->stats().iterations != walk->stats().iterations)
      out.fail("layer pass: a restored walk lost its iteration count");
  }
  std::printf("layers: n=%d row fill %.0f ns, reset batch %.0f ns, custom reset %.2f us, "
              "%.0f it/s, cache hit %.2f us\n",
              n, out.metrics["simd.row_fill_ns"].first, out.metrics["simd.reset_batch_ns"].first,
              out.metrics["costas.custom_reset_us"].first, out.metrics["core.iters_per_s"].first,
              out.metrics["service.hit_us"].first);
}

}  // namespace perfbench
