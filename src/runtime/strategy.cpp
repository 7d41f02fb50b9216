#include "runtime/strategy.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "par/multiwalk.hpp"
#include "runtime/engines.hpp"
#include "runtime/knobs.hpp"
#include "runtime/problems.hpp"

namespace cas::runtime {

namespace {

par::MultiWalkOptions multiwalk_options(const SolveRequest& req, const StrategyContext& ctx) {
  par::MultiWalkOptions opts;
  opts.num_threads = req.num_threads;
  opts.executor = ctx.executor;
  opts.timeout_seconds = req.timeout_seconds;
  return opts;
}

void fill_from_result(SolveReport& report, const par::MultiWalkResult& res,
                      const ProblemEntry& entry) {
  report.solved = res.solved;
  report.winner = res.winner;
  report.wall_seconds = res.wall_seconds;
  report.total_iterations = res.total_iterations();
  report.winner_stats = res.winner_stats;
  report.walkers_run = 0;
  for (const auto& st : res.walker_stats)
    if (st.iterations > 0 || st.solved) ++report.walkers_run;
  if (res.solved && entry.check != nullptr) {
    report.checked = true;
    report.check_passed = entry.check(res.winner_stats.solution);
  }
}

/// Spec reader over strategy_config, labelled for this strategy's errors.
KnobReader strategy_knobs(const SolveRequest& req) {
  return KnobReader(req.strategy_config, "strategy '" + req.strategy + "'");
}

void multiwalk_strategy(const SolveRequest& req, const StrategyContext& ctx, SolveReport& report) {
  strategy_knobs(req).finish();
  const auto& entry = entry_of(req);
  const auto res =
      par::run_multiwalk(req.walkers, req.seed, entry.make_walker(req), multiwalk_options(req, ctx));
  fill_from_result(report, res, entry);
}

void portfolio_strategy(const SolveRequest& req, const StrategyContext& ctx, SolveReport& report) {
  // The portfolio's engine mix comes exclusively from strategy_config; a
  // non-default engine field would be silently ignored, so reject it.
  if (req.engine != "as")
    throw std::invalid_argument(
        "strategy 'portfolio' selects engines via strategy_config {\"engines\": [...]}; "
        "the request's engine field is not used");
  // Default mix: the four engines of the portfolio ablation bench.
  std::vector<std::string> engines{"as", "tabu", "dialectic", "sa"};
  KnobReader knobs = strategy_knobs(req);
  if (const auto* j = knobs.take("engines")) {
    engines.clear();
    for (const auto& e : j->as_array()) engines.push_back(e.as_string());
    if (engines.empty())
      throw std::invalid_argument("portfolio: 'engines' must name at least one engine");
  }
  knobs.finish();
  const auto& entry = entry_of(req);
  // One walker factory per portfolio member; walker id picks round-robin.
  std::vector<Walker> members;
  members.reserve(engines.size());
  for (const auto& engine : engines) {
    SolveRequest member = req;
    member.engine = engine;
    (void)engine_catalog().at(engine, "engine");  // fail before any thread starts
    members.push_back(entry.make_walker(member));
  }
  const auto res = par::run_multiwalk(
      req.walkers, req.seed,
      [&](int id, uint64_t seed, core::StopToken stop) {
        return members[static_cast<size_t>(id) % members.size()](id, seed, stop);
      },
      multiwalk_options(req, ctx));
  fill_from_result(report, res, entry);
  util::Json extras = util::Json::object();
  if (res.winner >= 0)
    extras["winner_engine"] = engines[static_cast<size_t>(res.winner) % engines.size()];
  report.extras = std::move(extras);
}

}  // namespace

const Registry<StrategyInfo>& strategy_registry() {
  static const Registry<StrategyInfo> registry = [] {
    Registry<StrategyInfo> r;
    // resolve() pins walkers to 1 for "sequential", so the echoed request
    // always describes what actually ran; the execution is plain multiwalk.
    r.add("sequential", {"one walker, no parallelism (paper Table I setting)", multiwalk_strategy});
    r.add("multiwalk",
          {"independent multi-walk, first win cancels (paper Sec. V-A)", multiwalk_strategy});
    r.add("portfolio", {"heterogeneous engines racing on one instance", portfolio_strategy});
    return r;
  }();
  return registry;
}

SolveRequest resolve(SolveRequest req) {
  const auto& entry = entry_of(req);
  engine_catalog().at(req.engine, "engine").validate(
      [&] {
        EngineParams p;
        p.overrides = req.engine_config;
        return p;
      }());
  (void)strategy_registry().at(req.strategy, "strategy");
  if (req.size <= 0) req.size = entry.default_size;
  const int asked = req.size;
  // Clamped so that rounding up cannot overflow; a size past the limit
  // stays past it.
  if (entry.adjust_size != nullptr)
    req.size = entry.adjust_size(std::min(req.size, entry.max_size + 1));
  if (req.size > entry.max_size)
    throw std::invalid_argument("size " + std::to_string(asked) + " exceeds problem '" +
                                req.problem + "' limit of " + std::to_string(entry.max_size));
  if (req.strategy == "sequential") req.walkers = 1;
  if (req.walkers < 1) throw std::invalid_argument("walkers must be >= 1");
  if (req.walkers > kMaxWalkers)
    throw std::invalid_argument("walkers must be <= " + std::to_string(kMaxWalkers));
  if (req.timeout_seconds < 0) throw std::invalid_argument("timeout_seconds must be >= 0");
  return req;
}

uint64_t draw_seed() {
  std::random_device rd;
  uint64_t s = 0;
  while (s == 0) s = (static_cast<uint64_t>(rd()) << 32) | rd();
  return s;
}

SolveReport solve(const SolveRequest& req, const StrategyContext& ctx) {
  SolveReport report;
  report.request = req;
  try {
    report.request = resolve(req);
    // The echoed request carries the drawn seed, so any individual
    // stochastic run stays replayable as a deterministic request.
    if (report.request.seed == 0) report.request.seed = draw_seed();
    const auto& strategy = strategy_registry().at(report.request.strategy, "strategy");
    strategy.run(report.request, ctx, report);
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace cas::runtime
