// perfbench — the repository's benchmark entry point. One Release build,
// three workloads driven through the public entry points:
//
//   solve_n17    runtime::SolverService, Costas n=17, 4 walkers, closed loop
//   serve_mix    cas_serve over loopback, open-loop mix at a fixed rate,
//                then a rate ladder for max_rps
//   elastic_n17  dist::World + dist::solve_elastic, 2 ranks x 2 walkers
//
//   cas_perfbench --workload=solve_n17 --seed=1 --seconds=30 --trace=0
//                 --serve-bin=PATH --work-dir=DIR
//
// --trace=0 prints the end-to-end metrics; --trace=1 replays the workload
// with spans recorded around every call into a layer, times the layers'
// public functions on the workload's instance, writes the spans to
// DIR/spans-<workload>-<seed>.jsonl and prints the per-layer metrics. The
// last line of stdout is always the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "simd/simd.hpp"
#include "util/flags.hpp"
#include "util/provenance.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// The bounded workloads' end-to-end metrics (BENCHMARK.json).
const char* const kEndToEnd[] = {"tts_mean_s", "iters_per_s", "setup_s"};
/// serve_mix is not bounded; it reports request latencies and a capacity.
const char* const kServeEndToEnd[] = {"tts_mean_s", "req_tail_ms", "max_rps", "setup_s"};

const char* const kPerLayer[] = {
    "simd.row_fill_ns",       "simd.reset_batch_ns",
    "costas.custom_reset_us", "core.iters_per_s",
    "core.reset_share",       "strategy.overhead_ms",
    "par.iter_efficiency",    "walker.ttt_mu_s",
    "walker.ttt_lambda_s",    "walker.ttt_ks",
    "strategy.speedup",       "strategy.speedup_vs_predicted",
    "service.exec_overhead_us", "service.hit_us",
    "service.estimate_us",    "service.cache_p99_ms",
    "service.exec_p99_ms",    "net.wire_self_us",
    "net.server_cpu_us_per_req", "net.frames_per_req",
    "net.bytes_per_req",      "net.generator_lag_ms",
    "util.report_dump_us",    "util.request_parse_us",
    "dist.wave_ms",           "dist.compute_share",
    "dist.ckpt_write_p50_ms", "dist.ckpt_write_p99_ms",
    "dist.ckpt_bytes_per_wave", "dist.frames_per_wave",
    "dist.snapshot_us",       "dist.restore_us",
    "runtime.cost_model_ratio", "trace.spans",
    "trace.span_ns",          "trace.overhead_share",
};

/// The serve mix at its fixed rate: well below the knee on a 4-core host.
MixOptions serve_mix_options(double seconds) {
  MixOptions m;
  m.fixed_seconds = seconds * 0.6;
  m.ladder_seconds = seconds * 0.4;
  return m;
}

/// A short wire pass on a closed-loop workload's own request: one leader
/// execution, then cache hits at a modest rate, no edge shedding.
MixOptions hot_only_options(Instance inst) {
  MixOptions m;
  m.fresh = {0, 0};
  m.hot_instance = inst;
  m.monster = false;
  m.shed_budget = 0;
  m.rate = 2000;
  m.fixed_seconds = 2;
  m.ladder = false;
  return m;
}

/// Cost of recording one span, measured on a scratch tracer.
double span_cost_seconds() {
  Tracer scratch(true);
  const int spans = 20000;
  const double t0 = now_s();
  for (int i = 0; i < spans; ++i) ScopedSpan s(scratch, "trace.cost", "r");
  return (now_s() - t0) / spans;
}

void run_untraced(const Settings& s, Tracer& tracer, Result& r) {
  if (s.workload == "solve_n17") {
    solve_pass(s, tracer, 17, {4}, s.seconds, r);
  } else if (s.workload == "serve_mix") {
    serve_pass(s, tracer, serve_mix_options(s.seconds), r);
  } else {
    elastic_pass(s, tracer, {17, 4}, 2, s.seconds, r);
  }
}

/// Every pass on the workload's instance; the workload's own pass last and
/// with the full budget, so its values win where passes overlap.
void run_traced(const Settings& s, Tracer& tracer, Result& r) {
  if (s.workload == "solve_n17") {
    layer_micro(s, tracer, {17, 4}, r);
    serve_pass(s, tracer, hot_only_options({17, 4}), r);
    elastic_pass(s, tracer, {17, 4}, 2, 3.0, r);
    solve_pass(s, tracer, 17, {1, 2, 4}, s.seconds, r);
  } else if (s.workload == "serve_mix") {
    layer_micro(s, tracer, {14, 2}, r);
    solve_pass(s, tracer, 14, {1, 2, 4}, 3.0, r);
    elastic_pass(s, tracer, {14, 2}, 2, 3.0, r);
    MixOptions m = serve_mix_options(s.seconds);
    m.ladder = false;
    serve_pass(s, tracer, m, r);
  } else {
    layer_micro(s, tracer, {17, 4}, r);
    solve_pass(s, tracer, 17, {1, 2, 4}, 6.0, r);
    serve_pass(s, tracer, hot_only_options({17, 4}), r);
    elastic_pass(s, tracer, {17, 4}, 2, s.seconds, r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cas::util::Flags flags(
      "cas_perfbench — time to solution, serving and elastic-world workloads from one Release "
      "build, with an optional traced per-layer pass.");
  flags.add_string("workload", "", "solve_n17 | serve_mix | elastic_n17");
  flags.add_int("seed", 1, "benchmark seed: every seed list and request stream derives from it");
  flags.add_double("seconds", 30, "measurement budget of the workload's pass");
  flags.add_int("trace", 0, "1 = traced per-layer run");
  flags.add_string("serve-bin", "", "path of the cas_serve executable");
  flags.add_string("work-dir", "", "scratch directory (spans, checkpoints, server logs)");
  if (!flags.parse(argc, argv)) return 0;

  Settings s;
  s.workload = flags.get_string("workload");
  s.seed = static_cast<uint64_t>(flags.get_int("seed"));
  s.seconds = flags.get_double("seconds");
  s.trace = flags.get_int("trace") != 0;
  s.serve_bin = flags.get_string("serve-bin");
  s.work_dir = flags.get_string("work-dir");
  s.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (s.workload != "solve_n17" && s.workload != "serve_mix" && s.workload != "elastic_n17") {
    std::fprintf(stderr, "error: unknown workload '%s'\n", s.workload.c_str());
    return 2;
  }
  if (s.work_dir.empty() || s.serve_bin.empty()) {
    std::fprintf(stderr, "error: --work-dir and --serve-bin are required\n");
    return 2;
  }

  // Refusal guards: numbers from a non-Release build, an armed fault
  // injector or a pinned SIMD backend are not this benchmark's numbers.
  for (const char* var : {"CAS_FAULT_PLAN", "CAS_DISK_FAULT_PLAN", "CAS_SIMD"})
    if (const char* v = std::getenv(var); v != nullptr && v[0] != '\0') {
      std::fprintf(stderr, "error: refusing to measure with %s set\n", var);
      return 3;
    }
  cas::util::Json prov = cas::util::build_provenance();
  prov["isa"] = cas::simd::isa_name(cas::simd::active_isa());
  prov["nproc"] = static_cast<uint64_t>(s.nproc);
  if (prov.at("build_type").as_string() != "Release") {
    std::fprintf(stderr, "error: refusing to measure a %s build (Release required)\n",
                 prov.at("build_type").as_string().c_str());
    return 3;
  }
  std::printf("provenance: %s\n", prov.dump(0).c_str());
  std::printf("workload %s, seed %llu, %.0fs, %s\n", s.workload.c_str(),
              static_cast<unsigned long long>(s.seed), s.seconds,
              s.trace ? "traced" : "untraced");
  std::fflush(stdout);
  std::filesystem::create_directories(s.work_dir);

  Tracer tracer(s.trace);
  Result r;
  const double t0 = now_s();
  const double steal0 = host_steal_s();
  try {
    if (s.trace)
      run_traced(s, tracer, r);
    else
      run_untraced(s, tracer, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double wall = now_s() - t0;
  // Context for reading the numbers: on a shared VM they move with it.
  std::printf("host: CPU steal %.2f%% of this machine's CPU time during the run\n",
              (host_steal_s() - steal0) / (wall * s.nproc) * 100);

  if (s.trace) {
    const double span_s = span_cost_seconds();
    r.set("trace.spans", static_cast<double>(tracer.count()), "count");
    r.set("trace.span_ns", span_s * 1e9, "ns");
    r.set("trace.overhead_share", static_cast<double>(tracer.count()) * span_s / wall, "ratio");
    const std::string path = s.work_dir + "/spans-" + s.workload + "-" +
                             std::to_string(s.seed) + ".jsonl";
    if (!tracer.write(path)) r.fail("cannot write " + path);
    std::printf("trace: %zu spans -> %s; per layer %s\n", tracer.count(), path.c_str(),
                tracer.layer_summary().dump(0).c_str());
  }

  cas::util::Json metrics = cas::util::Json::object();
  bool complete = true;
  const auto emit = [&](const char* name) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end() || !std::isfinite(it->second.first)) {
      std::fprintf(stderr, "error: metric %s was not measured\n", name);
      complete = false;
      return;
    }
    std::printf("  %-30s %.6g %s\n", name, it->second.first, it->second.second.c_str());
    cas::util::Json m = cas::util::Json::object();
    m["value"] = it->second.first;
    m["unit"] = it->second.second;
    metrics[name] = std::move(m);
  };
  if (s.trace)
    for (const char* name : kPerLayer) emit(name);
  else if (s.workload == "serve_mix")
    for (const char* name : kServeEndToEnd) emit(name);
  else
    for (const char* name : kEndToEnd) emit(name);
  for (const auto& f : r.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

  const bool correct = complete && r.failed == 0 && r.attempted > 0;
  cas::util::Json result = cas::util::Json::object();
  result["correct"] = correct;
  result["attempted"] = r.attempted;
  result["failed"] = r.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump(0).c_str());
  return correct ? 0 : 1;
}
