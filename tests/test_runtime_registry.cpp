// The runtime registries: generic Registry semantics, the problem/engine/
// strategy catalogs, spec round-tripping, and request resolution (size
// defaults, feasibility rounding, loud failure on unknown names/knobs).
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include "costas/model.hpp"
#include "problems/queens.hpp"

namespace cas::runtime {
namespace {

TEST(Registry, AddFindAtAndKeys) {
  Registry<int> r;
  r.add("b", 2).add("a", 1);
  EXPECT_EQ(*r.find("a"), 1);
  EXPECT_EQ(r.find("zzz"), nullptr);
  EXPECT_EQ(r.at("b", "thing"), 2);
  EXPECT_EQ(r.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(r.contains("a"));
  EXPECT_FALSE(r.contains("c"));
}

TEST(Registry, DuplicateKeyThrows) {
  Registry<int> r;
  r.add("x", 1);
  EXPECT_THROW(r.add("x", 2), std::logic_error);
}

TEST(Registry, UnknownKeyErrorNamesAlternatives) {
  Registry<int> r;
  r.add("as", 1).add("tabu", 2);
  try {
    r.at("taboo", "engine");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("taboo"), std::string::npos);
    EXPECT_NE(msg.find("tabu"), std::string::npos);
    EXPECT_NE(msg.find("as"), std::string::npos);
  }
}

TEST(ProblemRegistry, HasAllSevenModels) {
  const auto keys = problem_registry().keys();
  EXPECT_EQ(keys.size(), 7u);
  for (const char* name :
       {"costas", "queens", "all-interval", "magic-square", "langford", "partition", "alpha"})
    EXPECT_TRUE(problem_registry().contains(name)) << name;
}

TEST(EngineCatalog, MatchesTypedTableForCostas) {
  // The type-erased catalog and the typed factory table are two views of
  // the same engine set; this pins them against drifting apart. Costas
  // satisfies every engine concept, so its table is the full set.
  EXPECT_EQ(engine_catalog().keys(), engine_table<costas::CostasProblem>().keys());
}

TEST(EngineCatalog, GeneticOnlyWherePermutationEvaluatorExists) {
  EXPECT_TRUE(engine_table<costas::CostasProblem>().contains("genetic"));
  // Queens has no stateless evaluate(); its table must omit the GA but
  // keep the six local-search engines.
  EXPECT_FALSE(engine_table<problems::QueensProblem>().contains("genetic"));
  EXPECT_EQ(engine_table<problems::QueensProblem>().size(), engine_catalog().size() - 1);
}

TEST(Spec, RoundTripsThroughJson) {
  SolveRequest req;
  req.id = "r1";
  req.problem = "queens";
  req.size = 64;
  req.engine = "tabu";
  req.engine_config = util::Json::parse(R"({"tenure": 7})");
  req.strategy = "portfolio";
  req.strategy_config = util::Json::parse(R"({"engines": ["as", "tabu"]})");
  req.walkers = 3;
  req.num_threads = 2;
  req.seed = 99;
  req.timeout_seconds = 1.5;
  req.max_iterations = 1000;
  req.probe_interval = 32;

  const SolveRequest back = SolveRequest::from_json(req.to_json());
  EXPECT_EQ(back.id, "r1");
  EXPECT_EQ(back.problem, "queens");
  EXPECT_EQ(back.size, 64);
  EXPECT_EQ(back.engine, "tabu");
  EXPECT_EQ(back.engine_config.at("tenure").as_int(), 7);
  EXPECT_EQ(back.strategy, "portfolio");
  EXPECT_EQ(back.strategy_config.at("engines").size(), 2u);
  EXPECT_EQ(back.walkers, 3);
  EXPECT_EQ(back.num_threads, 2u);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_DOUBLE_EQ(back.timeout_seconds, 1.5);
  EXPECT_EQ(back.max_iterations, 1000u);
  EXPECT_EQ(back.probe_interval, 32u);
}

TEST(Spec, LargeSeedsRoundTripExactly) {
  // Json numbers are doubles (exact to 2^53); larger uint64 budgets must
  // survive the echo or the report is useless as a reproducibility record.
  SolveRequest req;
  req.seed = (uint64_t{1} << 60) + 1;
  req.max_iterations = (uint64_t{1} << 55) + 3;
  const SolveRequest back = SolveRequest::from_json(req.to_json());
  EXPECT_EQ(back.seed, (uint64_t{1} << 60) + 1);
  EXPECT_EQ(back.max_iterations, (uint64_t{1} << 55) + 3);
}

TEST(Spec, UnknownRequestKeyThrows) {
  EXPECT_THROW(SolveRequest::from_json(util::Json::parse(R"({"problem":"costas","walker":4})")),
               std::invalid_argument);
}

TEST(CanonicalKey, IdIsExcludedFromIdentity) {
  // The id is a bookkeeping label, not part of the work: two requests
  // differing only in id are the same computation (what makes the
  // SolverService coalesce them).
  SolveRequest a = SolveRequest{};
  a.id = "first";
  SolveRequest b = SolveRequest{};
  b.id = "totally-different";
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
}

TEST(CanonicalKey, ResolvedDefaultsCollapseSpellings) {
  // "size absent" and "size = the default, spelled out" are the same
  // request once resolved; same for the sequential strategy's walker pin.
  SolveRequest implicit_size;
  implicit_size.problem = "costas";
  SolveRequest explicit_size;
  explicit_size.problem = "costas";
  explicit_size.size = problem_registry().at("costas", "problem").default_size;
  EXPECT_EQ(resolve(implicit_size).canonical_key(), resolve(explicit_size).canonical_key());

  SolveRequest seq4;
  seq4.strategy = "sequential";
  seq4.walkers = 4;  // resolve pins sequential to 1 walker
  SolveRequest seq1;
  seq1.strategy = "sequential";
  seq1.walkers = 1;
  EXPECT_EQ(resolve(seq4).canonical_key(), resolve(seq1).canonical_key());
}

TEST(CanonicalKey, ConfigSpellingsNormalize) {
  SolveRequest a, b;
  a.engine_config = util::Json::parse(R"({"tenure": 7})");
  b.engine_config = util::Json::parse(R"({"tenure": 7.0})");  // integral double
  EXPECT_EQ(a.canonical_key(), b.canonical_key());

  // Null members drop; a config that empties out equals no config at all.
  b.engine_config = util::Json::parse(R"({"tenure": 7, "ghost": null})");
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  SolveRequest empty_cfg, no_cfg;
  empty_cfg.strategy_config = util::Json::object();
  EXPECT_EQ(empty_cfg.canonical_key(), no_cfg.canonical_key());
}

TEST(CanonicalKey, DifferentWorkDiffers) {
  const std::string base = SolveRequest{}.canonical_key();
  SolveRequest req;
  req.seed = 2013;
  EXPECT_NE(req.canonical_key(), base);
  req = SolveRequest{};
  req.engine = "tabu";
  EXPECT_NE(req.canonical_key(), base);
  req = SolveRequest{};
  req.engine_config = util::Json::parse(R"({"tabu_tenure": 9})");
  EXPECT_NE(req.canonical_key(), base);
  req = SolveRequest{};
  req.walkers = 8;
  EXPECT_NE(req.canonical_key(), base);
}

TEST(Resolve, FillsDefaultSizeAndValidates) {
  SolveRequest req;
  req.problem = "costas";
  req.size = 0;
  const auto resolved = resolve(req);
  EXPECT_EQ(resolved.size, problem_registry().at("costas", "problem").default_size);
}

TEST(Resolve, RoundsInfeasibleSizesUp) {
  SolveRequest req;
  req.problem = "langford";
  req.size = 5;  // L(2,5) has no solutions; nearest feasible is 7
  EXPECT_EQ(resolve(req).size, 7);
  req.problem = "partition";
  req.size = 10;  // multiples of 4 only
  EXPECT_EQ(resolve(req).size, 12);
  req.problem = "alpha";
  req.size = 999;  // fixed-size model
  EXPECT_EQ(resolve(req).size, 26);
}

TEST(Resolve, SizeAndWalkersAreBounded) {
  SolveRequest req;
  req.problem = "costas";
  req.size = problem_registry().at("costas", "problem").max_size;
  EXPECT_EQ(resolve(req).size, req.size);
  req.size += 1;
  EXPECT_THROW(resolve(req), std::invalid_argument);
  req.size = 20000;  // ~6.4 GB of difference tables per walker replica
  try {
    (void)resolve(req);
    ADD_FAILURE() << "size 20000 resolved";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("limit of 64"), std::string::npos) << e.what();
  }
  req.size = 14;
  req.walkers = kMaxWalkers;
  EXPECT_EQ(resolve(req).walkers, kMaxWalkers);
  req.walkers = 100000000;  // ~14 GB of walker stats
  EXPECT_THROW(resolve(req), std::invalid_argument);
  // The rounding happens first, and cannot overflow at the top of int.
  req.walkers = 4;
  req.problem = "partition";
  req.size = 2147483647;
  EXPECT_THROW(resolve(req), std::invalid_argument);
  req.problem = "queens";  // the largest size a scenario uses
  req.size = 64;
  EXPECT_EQ(resolve(req).size, 64);
}

TEST(Resolve, UnknownNamesThrow) {
  SolveRequest req;
  req.problem = "sudoku";
  EXPECT_THROW(resolve(req), std::invalid_argument);
  req.problem = "costas";
  req.engine = "quantum";
  EXPECT_THROW(resolve(req), std::invalid_argument);
  req.engine = "as";
  req.strategy = "magic";
  EXPECT_THROW(resolve(req), std::invalid_argument);
}

TEST(Resolve, UnknownEngineKnobThrows) {
  SolveRequest req;
  req.problem = "costas";
  req.engine_config = util::Json::parse(R"({"plateau_probabillity": 0.5})");
  EXPECT_THROW(resolve(req), std::invalid_argument);
}

TEST(Resolve, InvalidBudgetsThrow) {
  SolveRequest req;
  req.walkers = 0;
  EXPECT_THROW(resolve(req), std::invalid_argument);
  req.walkers = 1;
  req.timeout_seconds = -1;
  EXPECT_THROW(resolve(req), std::invalid_argument);
}

TEST(EngineConfigs, OverridesApplyOnTopOfTunedBase) {
  EngineParams p;
  p.base_as = costas::recommended_config(14, 1);
  p.overrides = util::Json::parse(R"({"tabu_tenure": 3, "plateau_probability": 0.5})");
  p.probe_interval = 16;
  p.max_iterations = 500;
  const auto cfg = make_as_config(p);
  EXPECT_EQ(cfg.tabu_tenure, 3);
  EXPECT_DOUBLE_EQ(cfg.plateau_probability, 0.5);
  EXPECT_EQ(cfg.reset_limit, costas::recommended_config(14, 1).reset_limit);
  EXPECT_EQ(cfg.probe_interval, 16u);
  EXPECT_EQ(cfg.max_iterations, 500u);
}

TEST(EngineConfigs, UnknownKnobNamesEngine) {
  EngineParams p;
  p.overrides = util::Json::parse(R"({"tenure": 3})");  // a tabu knob, not an AS knob
  try {
    make_as_config(p);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'tenure'"), std::string::npos);
  }
}

TEST(ProblemConfig, CostasOptionsParsed) {
  SolveRequest req;
  req.problem = "costas";
  req.size = 10;
  req.problem_config = util::Json::parse(R"({"err": "unit", "chang": false})");
  req.strategy = "sequential";
  req.walkers = 1;
  req.max_iterations = 10;  // options parsing is what's under test
  const auto report = solve(req);
  EXPECT_TRUE(report.error.empty()) << report.error;

  req.problem_config = util::Json::parse(R"({"err": "cubic"})");
  EXPECT_FALSE(solve(req).error.empty());
  req.problem_config = util::Json::parse(R"({"changg": true})");
  EXPECT_FALSE(solve(req).error.empty());
}

}  // namespace
}  // namespace cas::runtime
