// elastic_n17: the distributed wave machine on the critical path of every
// segment — dist::World loopback ranks as threads of this process (the
// bench_dist / test_dist_elastic pattern), dist::solve_elastic with short
// checkpointed segments, one hunt at a time.
#include <stdlib.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>

#include "dist/elastic.hpp"
#include "dist/world.hpp"
#include "runtime/strategy.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cas::runtime::SolveReport;

constexpr uint64_t kCkptIters = 5000;

/// One hunt on a fresh world (a world runs one hunt): one thread per rank,
/// all ranks start together once every world is constructed. After the
/// hunt the threads tear their worlds down — World::finalize lingers for
/// the peers' byes — so the teardown overlaps the next hunt; destroying the
/// object joins them.
class HuntWorld {
 public:
  HuntWorld(Tracer& tracer, std::string rid, cas::runtime::SolveRequest req, int ranks,
            unsigned busy_cpus, std::string ckpt_dir)
      : tracer_(tracer), rid_(std::move(rid)), req_(std::move(req)), ranks_(ranks),
        busy_cpus_(busy_cpus), ckpt_dir_(std::move(ckpt_dir)),
        port_(port_promise_.get_future().share()),
        reports_(static_cast<size_t>(ranks)), t_setup_(now_s()) {
    for (int r = 0; r < ranks; ++r) threads_.emplace_back([this, r] { rank_main(r); });
  }
  HuntWorld(const HuntWorld&) = delete;
  HuntWorld& operator=(const HuntWorld&) = delete;

  /// Blocks until every rank has its report (or failed).
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_ == ranks_; });
  }
  // Valid after wait().
  [[nodiscard]] double setup() const { return setup_; }      // world start until all ready
  [[nodiscard]] double seconds() const { return seconds_; }  // hunt call until member 0 returned
  [[nodiscard]] double unstolen() const { return unstolen_; }  // the same, less host steal
  [[nodiscard]] const std::vector<SolveReport>& reports() const { return reports_; }

 private:
  void rank_main(int r) {
    std::optional<cas::dist::World> world;
    try {
      cas::dist::WorldOptions wo;
      wo.rank = r;
      wo.ranks = ranks_;
      wo.elastic = true;
      wo.collective_timeout_seconds = 60.0;
      if (r == 0) {
        world.emplace(wo, [&](uint16_t p) { port_promise_.set_value(p); });
      } else {
        wo.port = port_.get();
        world.emplace(wo);
      }
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (++ready_ == ranks_) {
          stopwatch_.emplace(busy_cpus_);
          t_start_ = now_s();
          setup_ = t_start_ - t_setup_;
          cv_.notify_all();
        }
        cv_.wait(lk, [&] { return ready_ == ranks_ || aborted_; });
        if (ready_ != ranks_) throw std::runtime_error("another rank failed to join");
      }
      cas::dist::ElasticOptions eo;
      eo.ckpt_dir = ckpt_dir_;
      eo.ckpt_iters = kCkptIters;
      eo.control_timeout_seconds = 60.0;
      SolveReport rep;
      {
        ScopedSpan span(tracer_, "dist.solve_elastic", rid_);
        rep = cas::dist::solve_elastic(*world, req_, cas::runtime::StrategyContext{}, eo);
      }
      std::lock_guard<std::mutex> g(mu_);
      if (r == 0) {
        seconds_ = now_s() - t_start_;
        unstolen_ = stopwatch_->seconds();
      }
      reports_[static_cast<size_t>(r)] = std::move(rep);
      ++done_;
      cv_.notify_all();
    } catch (const std::exception& e) {
      if (r == 0) {
        try {
          port_promise_.set_value(0);
        } catch (const std::future_error&) {
        }
      }
      std::lock_guard<std::mutex> g(mu_);
      reports_[static_cast<size_t>(r)].error = e.what();
      aborted_ = true;
      ++done_;
      cv_.notify_all();
    }
    if (world) world->finalize();
  }

  Tracer& tracer_;
  const std::string rid_;
  const cas::runtime::SolveRequest req_;
  const int ranks_;
  const unsigned busy_cpus_;  // CPUs the hunt's walkers occupy
  const std::string ckpt_dir_;
  std::promise<uint16_t> port_promise_;
  std::shared_future<uint16_t> port_;
  std::mutex mu_;  // guards everything below up to threads_
  std::condition_variable cv_;
  std::vector<SolveReport> reports_;
  int ready_ = 0;
  int done_ = 0;
  bool aborted_ = false;  // a rank failed before the hunt started
  const double t_setup_;
  double t_start_ = 0;
  std::optional<UnstolenClock> stopwatch_;  // started with t_start_
  double setup_ = 0;
  double seconds_ = 0;
  double unstolen_ = 0;
  std::vector<std::jthread> threads_;  // last: joined before the state above dies
};

double json_number(const cas::util::Json* j, const char* key) {
  const cas::util::Json* v = j != nullptr ? j->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace

void elastic_pass(const Settings& s, Tracer& tracer, Instance inst, int ranks,
                  double budget_seconds, Result& out) {
  const std::vector<uint64_t> seeds = seed_list(s.seed, kSolveSeeds, 4096);
  const std::string ckpt_root = s.work_dir + "/ckpt";
  std::filesystem::create_directories(ckpt_root);

  struct Outcome {
    int winner = -1;
    uint64_t iterations = 0;
  };
  std::vector<Outcome> outcomes;
  std::deque<std::unique_ptr<HuntWorld>> retiring;  // worlds still tearing down
  Sample tts, unstolen, setup, ckpt_p50, ckpt_p99;
  double epochs = 0, wall = 0, iterations = 0, ckpt_bytes = 0, coord_frames = 0;

  const auto hunt_once = [&](size_t k, bool repeat) -> std::optional<Outcome> {
    cas::runtime::SolveRequest req;
    req.problem = "costas";
    req.size = inst.n;
    req.strategy = "multiwalk";
    req.walkers = inst.walkers;
    req.seed = seeds[k];
    const std::string rid = std::string(repeat ? "repeat" : "hunt") + "-s" +
                            std::to_string(seeds[k]);
    std::string dir = ckpt_root + "/hunt-XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      out.fail(rid + ": cannot create a checkpoint directory");
      return std::nullopt;
    }
    ++out.attempted;
    auto hunt = std::make_unique<HuntWorld>(
        tracer, rid, req, ranks, std::min<unsigned>(static_cast<unsigned>(inst.walkers), s.nproc),
        dir);
    hunt->wait();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const HuntWorld& h = *hunt;
    retiring.push_back(std::move(hunt));
    while (retiring.size() > 4) retiring.pop_front();
    for (const SolveReport& rep : h.reports())
      if (!rep.error.empty()) {
        out.fail(rid + ": " + rep.error);
        return std::nullopt;
      }
    const SolveReport& rep = h.reports()[0];
    if (!rep.solved || !verify_costas(rep.winner_stats.solution, inst.n)) {
      out.fail(rid + (rep.solved ? ": reported solution is not a Costas array" : ": unsolved"));
      return std::nullopt;
    }
    for (const SolveReport& other : h.reports())
      if (other.winner != rep.winner) {
        out.fail(rid + ": ranks disagree on the winner");
        return std::nullopt;
      }
    if (!repeat) {
      tts.add(h.seconds());
      unstolen.add(h.unstolen());
      setup.add(h.setup());
      const cas::util::Json* d = rep.extras.find("dist");
      epochs += json_number(d, "epochs");
      wall += h.seconds();
      iterations += static_cast<double>(rep.total_iterations);
      if (d != nullptr)
        if (const cas::util::Json* comm = d->find("comm"))
          coord_frames += json_number(comm->find("coordinator"), "frames_in");
      for (const SolveReport& r : h.reports()) {
        const cas::util::Json* rd = r.extras.find("dist");
        const cas::util::Json* ck = rd != nullptr ? rd->find("ckpt") : nullptr;
        ckpt_bytes += json_number(ck, "bytes");
        if (const cas::util::Json* lat = ck != nullptr ? ck->find("write_latency") : nullptr) {
          ckpt_p50.add(json_number(lat, "p50_seconds"));
          ckpt_p99.add(json_number(lat, "p99_seconds"));
        }
      }
    }
    return Outcome{rep.winner, rep.winner_stats.iterations};
  };

  const double t0 = now_s();
  size_t hunts = 0;
  while (hunts < seeds.size() && now_s() - t0 < budget_seconds) {
    const auto o = hunt_once(hunts, /*repeat=*/false);
    outcomes.push_back(o.value_or(Outcome{}));
    ++hunts;
  }
  const double elapsed = now_s() - t0;
  retiring.clear();

  // The (segment, walker id) winner rule makes a hunt's work repeat
  // exactly: the first seeds run again and must name the same winner at
  // the same iteration count.
  const size_t repeats = std::min<size_t>(3, hunts);
  for (size_t k = 0; k < repeats; ++k) {
    const auto o = hunt_once(k, /*repeat=*/true);
    if (o && outcomes[k].winner >= 0 &&
        (o->winner != outcomes[k].winner || o->iterations != outcomes[k].iterations))
      out.fail("repeat of seed " + std::to_string(seeds[k]) + " changed the winner: walker " +
               std::to_string(o->winner) + " at " + std::to_string(o->iterations) +
               " iterations vs walker " + std::to_string(outcomes[k].winner) + " at " +
               std::to_string(outcomes[k].iterations));
  }
  retiring.clear();

  std::printf("elastic: n=%d, %d ranks x %d walkers, %zu hunts in %.1fs (+%zu repeats), "
              "%.0f waves\n",
              inst.n, ranks, inst.walkers / ranks, tts.size(), elapsed, repeats, epochs);
  std::printf("elastic: wall tts mean %.4fs p50 %.4fs tail p%.1f %.4fs, %.2f hunts/s\n",
              tts.mean(), tts.median(), tts.tail_q() * 100, tts.tail(),
              static_cast<double>(tts.size()) / elapsed);
  const double unstolen_sum = unstolen.mean() * static_cast<double>(unstolen.size());
  std::printf("elastic: less steal: tts mean %.4fs p50 %.4fs tail p%.1f %.4fs, "
              "%.0f iterations/s\n",
              unstolen.mean(), unstolen.median(), unstolen.tail_q() * 100, unstolen.tail(),
              iterations / unstolen_sum);
  out.set("setup_s", setup.median(), "s");
  out.set("tts_mean_s", unstolen.mean(), "s");
  out.set("iters_per_s", iterations / unstolen_sum, "1/s");

  if (epochs <= 0) return;
  out.set("dist.wave_ms", wall / epochs * 1e3, "ms");
  out.set("dist.ckpt_write_p50_ms", ckpt_p50.median() * 1e3, "ms");
  out.set("dist.ckpt_write_p99_ms", ckpt_p99.median() * 1e3, "ms");
  out.set("dist.ckpt_bytes_per_wave", ckpt_bytes / epochs, "B");
  out.set("dist.frames_per_wave", coord_frames / epochs, "count");
  if (const auto ips = out.metrics.find("core.iters_per_s"); ips != out.metrics.end())
    out.set("dist.compute_share", iterations / (wall * inst.walkers * ips->second.first), "ratio");
}

}  // namespace perfbench
