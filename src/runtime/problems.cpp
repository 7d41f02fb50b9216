#include "runtime/problems.hpp"

#include <cctype>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "costas/checker.hpp"
#include "costas/model.hpp"
#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/queens.hpp"
#include "runtime/engines.hpp"
#include "runtime/knobs.hpp"

namespace cas::runtime {

namespace {

EngineParams engine_params_for(const SolveRequest& req, core::AsConfig base_as) {
  EngineParams p;
  p.overrides = req.engine_config;
  p.base_as = base_as;
  p.probe_interval = req.probe_interval;
  p.max_iterations = req.max_iterations;
  return p;
}

void require_no_problem_config(const SolveRequest& req) {
  if (req.problem_config.is_null()) return;
  if (req.problem_config.is_object() && req.problem_config.size() == 0) return;
  throw std::invalid_argument("problem '" + req.problem + "' takes no problem_config");
}

/// The typed half of a registry entry: how to build the model and which
/// tuned Adaptive Search defaults it gets (the per-problem tuning the
/// csp_gallery example always hardcoded).
template <typename P>
struct Binding {
  std::function<P(const SolveRequest&)> make;
  std::function<core::AsConfig(const SolveRequest&)> base_as;
};

/// The type-erased pausable walk: a private replica plus an Adaptive Search
/// engine bound to it. Non-movable (the engine holds a reference into
/// problem_), so it always lives behind the factory's unique_ptr.
template <typename P>
class AsResumableWalk final : public ResumableWalk {
 public:
  AsResumableWalk(P problem, core::AsConfig cfg)
      : problem_(std::move(problem)), engine_(problem_, cfg) {}

  void begin() override { engine_.begin_walk(); }

  bool advance(uint64_t iter_budget, core::StopToken stop) override {
    return engine_.advance_walk(iter_budget, stop);
  }

  [[nodiscard]] WalkSnapshot snapshot() const override {
    WalkSnapshot s;
    const int n = problem_.size();
    s.config.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) s.config[static_cast<size_t>(i)] = problem_.value(i);
    engine_.export_walk(s.engine);
    return s;
  }

  void restore(const WalkSnapshot& s) override {
    const int n = problem_.size();
    // These checks come before the replica moves: the engine indexes the
    // tabu table by variable and checks its length only by assert, and it
    // would replay a restart point behind the iteration count (which no
    // real walk leaves) one missed restart at a time.
    if (static_cast<int>(s.config.size()) != n ||
        static_cast<int>(s.engine.tabu_until.size()) != n)
      throw std::invalid_argument("walk snapshot does not match the instance size");
    if (s.engine.next_restart < s.engine.stats.iterations)
      throw std::invalid_argument("walk snapshot restarts behind its iteration count");
    // Realign the replica's configuration to the snapshot through
    // apply_swap so the model's incremental bookkeeping stays valid. Every
    // registered model is a permutation of distinct values, so a
    // selection pass settles each position exactly once.
    for (int i = 0; i < n; ++i) {
      if (problem_.value(i) == s.config[static_cast<size_t>(i)]) continue;
      int j = i + 1;
      while (j < n && problem_.value(j) != s.config[static_cast<size_t>(i)]) ++j;
      if (j >= n)
        throw std::invalid_argument("walk snapshot is not a permutation of this instance");
      problem_.apply_swap(i, j);
    }
    engine_.import_walk(s.engine);
  }

  [[nodiscard]] const core::RunStats& stats() const override { return engine_.walk_stats(); }

 private:
  P problem_;
  core::AdaptiveSearch<P> engine_;
};

template <typename P>
ProblemEntry entry_for(std::string description, int default_size, int max_size,
                       std::function<int(int)> adjust_size, Binding<P> b,
                       std::function<bool(const std::vector<int>&)> check) {
  ProblemEntry e;
  e.description = std::move(description);
  e.default_size = default_size;
  e.max_size = max_size;
  e.adjust_size = std::move(adjust_size);
  e.check = std::move(check);

  e.make_walker = [b](const SolveRequest& req) -> Walker {
    const auto& factory = engine_table<P>().at(req.engine, "engine");
    auto runner = factory(engine_params_for(req, b.base_as(req)));
    b.make(req);  // eager probe: bad sizes/options throw HERE, on the
                  // caller's thread, never inside a walker thread
    return [b, req, runner](int /*walker_id*/, uint64_t seed, core::StopToken stop) {
      P problem = b.make(req);  // private replica per walker
      return runner(problem, seed, stop);
    };
  };

  e.make_resumable_walker = [b](const SolveRequest& req) {
    if (req.engine != "as")
      throw std::invalid_argument(
          "resumable walks run Adaptive Search walkers; set engine to 'as'");
    const auto base_cfg = make_as_config(engine_params_for(req, b.base_as(req)));
    b.make(req);  // eager probe, as in make_walker
    return [b, req, base_cfg](uint64_t seed) -> std::unique_ptr<ResumableWalk> {
      auto cfg = base_cfg;
      cfg.seed = seed;
      return std::make_unique<AsResumableWalk<P>>(b.make(req), cfg);
    };
  };

  return e;
}

// --- independent solution verifiers (presentation values) ---

bool check_queens(const std::vector<int>& sol) {
  const int n = static_cast<int>(sol.size());
  std::set<int> rows, up, down;
  for (int i = 0; i < n; ++i) {
    if (!rows.insert(sol[static_cast<size_t>(i)]).second) return false;
    if (!up.insert(i + sol[static_cast<size_t>(i)]).second) return false;
    if (!down.insert(i - sol[static_cast<size_t>(i)]).second) return false;
  }
  return true;
}

bool check_all_interval(const std::vector<int>& sol) {
  const int n = static_cast<int>(sol.size());
  std::set<int> values(sol.begin(), sol.end());
  if (static_cast<int>(values.size()) != n || *values.begin() != 0 ||
      *values.rbegin() != n - 1)
    return false;
  std::set<int> diffs;
  for (int i = 0; i + 1 < n; ++i) {
    if (!diffs.insert(std::abs(sol[static_cast<size_t>(i + 1)] - sol[static_cast<size_t>(i)]))
             .second)
      return false;
  }
  return true;
}

bool check_langford(const std::vector<int>& sol) {
  // sol[i] = the number (1..n) occupying slot i of 2n slots; the two copies
  // of k must sit k + 1 slots apart.
  const int slots = static_cast<int>(sol.size());
  const int n = slots / 2;
  std::vector<int> first(static_cast<size_t>(n + 1), -1);
  std::vector<int> count(static_cast<size_t>(n + 1), 0);
  for (int i = 0; i < slots; ++i) {
    const int k = sol[static_cast<size_t>(i)];
    if (k < 1 || k > n) return false;
    if (first[static_cast<size_t>(k)] < 0)
      first[static_cast<size_t>(k)] = i;
    else if (i - first[static_cast<size_t>(k)] != k + 1)
      return false;
    ++count[static_cast<size_t>(k)];
  }
  for (int k = 1; k <= n; ++k)
    if (count[static_cast<size_t>(k)] != 2) return false;
  return true;
}

bool check_magic_square(const std::vector<int>& sol) {
  int order = 0;
  while (order * order < static_cast<int>(sol.size())) ++order;
  if (order * order != static_cast<int>(sol.size())) return false;
  const int n = order * order;
  std::set<int> values(sol.begin(), sol.end());
  if (static_cast<int>(values.size()) != n || *values.begin() != 1 || *values.rbegin() != n)
    return false;
  const long long target = static_cast<long long>(order) * (n + 1) / 2;
  const auto cell = [&](int r, int c) {
    return static_cast<long long>(sol[static_cast<size_t>(r * order + c)]);
  };
  long long d1 = 0, d2 = 0;
  for (int r = 0; r < order; ++r) {
    long long row = 0, col = 0;
    for (int c = 0; c < order; ++c) {
      row += cell(r, c);
      col += cell(c, r);
    }
    if (row != target || col != target) return false;
    d1 += cell(r, r);
    d2 += cell(r, order - 1 - r);
  }
  return d1 == target && d2 == target;
}

bool check_partition(const std::vector<int>& sol) {
  const int n = static_cast<int>(sol.size());
  std::set<int> values(sol.begin(), sol.end());
  if (static_cast<int>(values.size()) != n || *values.begin() != 1 || *values.rbegin() != n)
    return false;
  long long sum = 0, sq = 0;
  for (int i = 0; i < n / 2; ++i) {
    const long long v = sol[static_cast<size_t>(i)];
    const long long w = sol[static_cast<size_t>(i + n / 2)];
    sum += v - w;
    sq += v * v - w * w;
  }
  return sum == 0 && sq == 0;
}

bool check_alpha(const std::vector<int>& sol) {
  // sol[i] = the number assigned to letter 'A' + i; a valid assignment is
  // a permutation of 1..26 satisfying every equation of the classic
  // twenty-equation instance.
  if (sol.size() != 26) return false;
  std::set<int> values(sol.begin(), sol.end());
  if (values.size() != 26 || *values.begin() != 1 || *values.rbegin() != 26) return false;
  for (const auto& eq : problems::AlphaProblem::default_equations()) {
    long long sum = 0;
    for (char c : eq.word) {
      const int idx = std::toupper(static_cast<unsigned char>(c)) - 'A';
      if (idx < 0 || idx >= 26) return false;
      sum += sol[static_cast<size_t>(idx)];
    }
    if (sum != eq.target) return false;
  }
  return true;
}

costas::CostasOptions costas_options_from(const SolveRequest& req) {
  costas::CostasOptions opts;
  KnobReader k(req.problem_config, "costas problem_config");
  if (const auto* v = k.take("err")) {
    const std::string& e = v->as_string();
    if (e == "unit")
      opts.err = costas::ErrFunction::kUnit;
    else if (e == "quadratic")
      opts.err = costas::ErrFunction::kQuadratic;
    else
      throw std::invalid_argument("costas err: expected 'unit' or 'quadratic'");
  }
  k.read("chang", opts.use_chang);
  k.finish();
  return opts;
}

}  // namespace

const Registry<ProblemEntry>& problem_registry() {
  static const Registry<ProblemEntry> registry = [] {
    Registry<ProblemEntry> r;

    r.add("costas",
          entry_for<costas::CostasProblem>(
              "Costas Array Problem (the paper's target; tuned model of Sec. IV)", 14, 64,
              [](int n) { return std::max(1, n); },
              {[](const SolveRequest& req) {
                 return costas::CostasProblem(req.size, costas_options_from(req));
               },
               [](const SolveRequest& req) { return costas::recommended_config(req.size, 0); }},
              [](const std::vector<int>& sol) { return costas::is_costas(sol); }));

    r.add("queens", entry_for<problems::QueensProblem>(
                        "N-Queens as a permutation problem (rows fixed, diagonals free)", 100,
                        100000,
                        [](int n) { return std::max(1, n); },
                        {[](const SolveRequest& req) {
                           require_no_problem_config(req);
                           return problems::QueensProblem(req.size);
                         },
                         [](const SolveRequest&) {
                           core::AsConfig cfg;
                           cfg.tabu_tenure = 4;
                           cfg.reset_limit = 4;
                           cfg.reset_fraction = 0.05;
                           return cfg;
                         }},
                        check_queens));

    r.add("all-interval", entry_for<problems::AllIntervalProblem>(
                              "All-Interval Series (CSPLib prob007)", 14, 100000,
                              [](int n) { return std::max(2, n); },
                              {[](const SolveRequest& req) {
                                 require_no_problem_config(req);
                                 return problems::AllIntervalProblem(req.size);
                               },
                               [](const SolveRequest&) {
                                 core::AsConfig cfg;
                                 cfg.tabu_tenure = 3;
                                 cfg.reset_limit = 2;
                                 cfg.reset_fraction = 0.15;
                                 cfg.plateau_probability = 0.5;
                                 return cfg;
                               }},
                              check_all_interval));

    r.add("magic-square", entry_for<problems::MagicSquareProblem>(
                              "Magic Square (CSPLib prob019); size = the order", 5, 300,
                              [](int n) { return std::max(3, n); },
                              {[](const SolveRequest& req) {
                                 require_no_problem_config(req);
                                 return problems::MagicSquareProblem(req.size);
                               },
                               [](const SolveRequest&) {
                                 core::AsConfig cfg;
                                 cfg.tabu_tenure = 5;
                                 cfg.reset_limit = 3;
                                 cfg.reset_fraction = 0.1;
                                 cfg.plateau_probability = 0.93;
                                 return cfg;
                               }},
                              check_magic_square));

    r.add("langford",
          entry_for<problems::LangfordProblem>(
              "Langford pairing L(2,n); size rounded up to n = 0 or 3 (mod 4)", 16, 100000,
              [](int n) {
                n = std::max(3, n);
                while (!problems::LangfordProblem::solvable(n)) ++n;
                return n;
              },
              {[](const SolveRequest& req) {
                 require_no_problem_config(req);
                 return problems::LangfordProblem(req.size);
               },
               [](const SolveRequest&) { return core::AsConfig{}; }},
              check_langford));

    r.add("partition",
          entry_for<problems::PartitionProblem>(
              "Number partitioning (equal sums and sums of squares); size rounded up to a "
              "multiple of 4",
              40, 100000,
              [](int n) {
                n = std::max(4, n);
                return n % 4 == 0 ? n : n + (4 - n % 4);
              },
              {[](const SolveRequest& req) {
                 require_no_problem_config(req);
                 return problems::PartitionProblem(req.size);
               },
               [](const SolveRequest&) { return core::AsConfig{}; }},
              check_partition));

    r.add("alpha", entry_for<problems::AlphaProblem>(
                       "The alpha cryptarithm (26 letters, 20 equations); size is fixed", 26, 26,
                       [](int) { return 26; },
                       {[](const SolveRequest& req) {
                          require_no_problem_config(req);
                          return problems::AlphaProblem();
                        },
                        [](const SolveRequest&) {
                          return problems::AlphaProblem::recommended_config(0);
                        }},
                       check_alpha));

    return r;
  }();
  return registry;
}

const ProblemEntry& entry_of(const SolveRequest& req) {
  return problem_registry().at(req.problem, "problem");
}

}  // namespace cas::runtime
