// cas_run — the declarative driver for the solver runtime: any
// {problem × engine × strategy} combination the registries know, from CLI
// flags or a JSON scenario file, with no recompilation. Emits one
// machine-readable JSON report (provenance-stamped) per invocation.
//
// One request from flags:
//   $ cas_run --problem=costas --size=14 --engine=as --strategy=multiwalk --walkers=4
//
// A batch through the SolverService (all requests share one thread pool,
// each keeps its own first-win cancellation; identical concurrent requests
// coalesce, and with --cache completed deterministic-seed reports are
// served from memory on resubmission — see each report's "served_by"):
//   $ cas_run --scenario=scenario.json --cache=64 --out=report.json
//
// scenario.json is either an array of request objects or
//   { "pool_threads": 8, "requests": [ {...}, {...} ] }
// optionally with service options ("cache", "cache_ttl", "admit_budget",
// "auto_calibrate", "auto_calibrate_min_samples")
// and/or "waves": an array of request arrays solved as successive batches
// over ONE service, so later waves hit the cache warmed by earlier ones.
// "description" and "expect" keys are ignored by cas_run itself — the CI
// corpus checker (tools/check_report.py) reads them.
//
// Catalog listing (what names the registries accept):
//   $ cas_run --list
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dist/elastic.hpp"
#include "dist/world.hpp"
#include "net/fault.hpp"
#include "runtime/runtime.hpp"
#include "util/flags.hpp"
#include "util/provenance.hpp"
#include "util/strings.hpp"

using namespace cas;

namespace {

/// SIGTERM latch for distributed worlds: the handler only sets this flag;
/// the epoch loop notices it at the next boundary and drains gracefully
/// (member 0 halts the world, other members leave and retire).
std::atomic<bool> g_drain{false};

void on_drain_signal(int) { g_drain.store(true, std::memory_order_relaxed); }

util::Json parse_json_flag(const util::Flags& flags, const std::string& name) {
  const std::string& text = flags.get_string(name);
  if (text.empty()) return {};
  return util::Json::parse(text);
}

runtime::SolveRequest request_from_flags(const util::Flags& flags) {
  runtime::SolveRequest req;
  req.problem = flags.get_string("problem");
  req.size = static_cast<int>(flags.get_int("size"));
  req.problem_config = parse_json_flag(flags, "problem-config");
  req.engine = flags.get_string("engine");
  req.engine_config = parse_json_flag(flags, "engine-config");
  req.strategy = flags.get_string("strategy");
  req.walkers = static_cast<int>(flags.get_int("walkers"));
  req.num_threads = static_cast<unsigned>(flags.get_int("threads"));
  req.strategy_config = parse_json_flag(flags, "strategy-config");
  req.seed = static_cast<uint64_t>(flags.get_int("seed"));
  req.timeout_seconds = flags.get_double("timeout");
  req.max_iterations = static_cast<uint64_t>(flags.get_int("max-iters"));
  req.probe_interval = static_cast<uint64_t>(flags.get_int("probe"));
  return req;
}

void print_catalogs() {
  std::printf("problems:\n");
  for (const auto& [name, entry] : runtime::problem_registry()) {
    std::printf("  %-14s %s (default size %d)\n", name.c_str(), entry.description.c_str(),
                entry.default_size);
  }
  std::printf("engines:\n");
  for (const auto& [name, info] : runtime::engine_catalog())
    std::printf("  %-14s %s\n", name.c_str(), info.description.c_str());
  std::printf("strategies:\n");
  for (const auto& [name, info] : runtime::strategy_registry())
    std::printf("  %-14s %s\n", name.c_str(), info.description.c_str());
}

/// Distributed-mode settings, from the scenario's "dist" block and/or the
/// --ranks/--rank/--coordinator flags (flags win). ranks > 1 turns the run
/// into one rank of a multi-process world: rank 0 hosts the rendezvous and
/// (absent an explicit --coordinator) forks the sibling ranks over loopback.
/// So do --ckpt-dir, --resume and --join, even on one rank.
struct DistConfig {
  int ranks = 1;
  int rank = 0;
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (launcher mode)
  bool explicit_coordinator = false;
  double connect_timeout = 15.0;
  double heartbeat_timeout = 10.0;
  double collective_timeout = 120.0;  // the wait for each rebalance

  // --- membership + checkpoint/restore (see docs/OPERATIONS.md) ---
  std::string ckpt_dir;        // durable checkpoints (empty = off)
  uint64_t ckpt_iters = 100000;  // iterations per walker per epoch
  uint64_t max_epochs = 0;       // absolute epoch bound (0 = unbounded)
  bool resume = false;           // restore from ckpt_dir's manifest
  std::string join;              // host:port of a running world
  uint64_t die_at_epoch = 0;     // fault injection (with die_rank)
  int die_rank = -1;
  uint64_t drop_conn_at_epoch = 0;  // fault injection (with drop_conn_rank)
  int drop_conn_rank = -1;
  bool standby = false;          // coordinator failover (wire v3)
};

struct Scenario {
  // Caching defaults OFF in the CLI (a one-shot driver), unlike the
  // library's serving default; the scenario file's "cache" key or the
  // --cache flag turns it on.
  runtime::SolverService::Options service = [] {
    runtime::SolverService::Options o;
    o.cache_capacity = 0;
    return o;
  }();
  /// Successive batches over one service; single-batch scenarios are one
  /// wave. Cache state persists across waves, so a wave re-issuing an
  /// earlier wave's requests demonstrates (and tests) cache hits.
  std::vector<std::vector<runtime::SolveRequest>> waves;
  DistConfig dist;
};

std::vector<runtime::SolveRequest> parse_requests(const util::Json& arr) {
  if (!arr.is_array()) throw std::runtime_error("scenario: expected an array of requests");
  std::vector<runtime::SolveRequest> out;
  for (const auto& r : arr.as_array()) out.push_back(runtime::SolveRequest::from_json(r));
  return out;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  const util::Json doc = util::Json::parse(buf.str());

  Scenario sc;
  if (!doc.is_object()) {
    sc.waves.push_back(parse_requests(doc));
    return sc;
  }
  if (const auto* p = doc.find("pool_threads"))
    sc.service.pool_threads = static_cast<unsigned>(p->as_int());
  if (const auto* p = doc.find("cache"))
    sc.service.cache_capacity = static_cast<size_t>(p->as_int());
  if (const auto* p = doc.find("cache_ttl")) sc.service.cache_ttl_seconds = p->as_number();
  if (const auto* p = doc.find("admit_budget"))
    sc.service.admission_budget_walker_seconds = p->as_number();
  if (const auto* p = doc.find("auto_calibrate")) sc.service.auto_calibrate = p->as_bool();
  if (const auto* p = doc.find("auto_calibrate_min_samples"))
    sc.service.auto_calibrate_min_samples = static_cast<int>(p->as_int());
  if (const auto* dist = doc.find("dist")) {
    if (!dist->is_object()) throw std::runtime_error("scenario: 'dist' must be an object");
    if (const auto* p = dist->find("ranks")) sc.dist.ranks = static_cast<int>(p->as_int());
    if (const auto* p = dist->find("host")) sc.dist.host = p->as_string();
    if (const auto* p = dist->find("port")) sc.dist.port = static_cast<uint16_t>(p->as_int());
    if (const auto* p = dist->find("connect_timeout")) sc.dist.connect_timeout = p->as_number();
    if (const auto* p = dist->find("heartbeat_timeout"))
      sc.dist.heartbeat_timeout = p->as_number();
    if (const auto* p = dist->find("collective_timeout"))
      sc.dist.collective_timeout = p->as_number();
    if (const auto* p = dist->find("ckpt_dir")) sc.dist.ckpt_dir = p->as_string();
    if (const auto* p = dist->find("ckpt_iters"))
      sc.dist.ckpt_iters = static_cast<uint64_t>(p->as_int());
    if (const auto* p = dist->find("max_epochs"))
      sc.dist.max_epochs = static_cast<uint64_t>(p->as_int());
    if (const auto* p = dist->find("standby")) sc.dist.standby = p->as_bool();
  }
  if (const auto* waves = doc.find("waves")) {
    if (!waves->is_array()) throw std::runtime_error("scenario: 'waves' must be an array of request arrays");
    for (const auto& wave : waves->as_array()) sc.waves.push_back(parse_requests(wave));
  } else if (const auto* requests = doc.find("requests")) {
    sc.waves.push_back(parse_requests(*requests));
  } else {
    throw std::runtime_error("scenario object needs a 'requests' or 'waves' array");
  }
  return sc;
}

int write_report(const util::Json& doc, const std::string& out_path, int indent) {
  const std::string text = doc.dump(indent) + "\n";
  if (out_path.empty() || out_path == "-") {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

void parse_coordinator(const std::string& spec, DistConfig& dist) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size())
    throw std::runtime_error("--coordinator expects host:port, got '" + spec + "'");
  dist.host = spec.substr(0, colon);
  dist.port = static_cast<uint16_t>(std::stoi(spec.substr(colon + 1)));
  dist.explicit_coordinator = true;
}

/// True for argv entries that carry a per-process identity — these are
/// stripped before re-exec'ing a sibling rank and re-issued with the
/// child's own values. Handles both --flag=value and --flag value forms.
bool is_identity_flag(const std::string& arg, bool& eats_next) {
  static const char* kNames[] = {"--rank", "--ranks", "--coordinator", "--port-fd"};
  for (const char* name : kNames) {
    if (arg == name) {
      eats_next = true;
      return true;
    }
    if (arg.rfind(std::string(name) + "=", 0) == 0) {
      eats_next = false;
      return true;
    }
  }
  eats_next = false;
  return false;
}

/// Fork+exec one sibling rank of this very binary, with this process's own
/// arguments plus the child's rank identity — the single-command loopback
/// launcher. Returns the child pid (-1: fork failed). With port_fd >= 0 the
/// child is a SUPERVISED rank 0: it hosts the coordinator on an ephemeral
/// port and reports that port back through the inherited pipe fd instead of
/// dialing a --coordinator address.
pid_t spawn_rank(int argc, char** argv, int rank, int ranks, uint16_t port, int port_fd = -1) {
  std::vector<std::string> args;
  args.emplace_back("/proc/self/exe");
  for (int i = 1; i < argc; ++i) {
    bool eats_next = false;
    if (is_identity_flag(argv[i], eats_next)) {
      if (eats_next) ++i;
      continue;
    }
    args.emplace_back(argv[i]);
  }
  args.push_back("--ranks=" + std::to_string(ranks));
  args.push_back("--rank=" + std::to_string(rank));
  if (port_fd >= 0)
    args.push_back("--port-fd=" + std::to_string(port_fd));
  else
    args.push_back("--coordinator=127.0.0.1:" + std::to_string(port));

  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Every rank derives its own deterministic fault stream from the shared
  // CAS_FAULT_PLAN seed: same schedule every run, different faults per rank.
  setenv("CAS_FAULT_SALT", std::to_string(rank).c_str(), 1);
  std::vector<char*> cargv;
  cargv.reserve(args.size() + 1);
  for (auto& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  execv(cargv[0], cargv.data());
  std::fprintf(stderr, "rank %d: exec failed\n", rank);
  _exit(127);
}

/// Decode a waitpid status for the failure-cause report.
std::string describe_exit(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status)) + " (" +
           strsignal(WTERMSIG(status)) + ")";
  return "wait status " + std::to_string(status);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "cas_run — declarative solver runtime driver: run any registered\n"
      "{problem x engine x strategy} combination from flags or a JSON scenario.");
  flags.add_string("problem", "costas", "problem name (see --list)");
  flags.add_int("size", 0, "instance size (0 = problem default)");
  flags.add_string("problem-config", "", "problem options as JSON, e.g. {\"err\":\"unit\"}");
  flags.add_string("engine", "as", "engine name (see --list)");
  flags.add_string("engine-config", "", "engine knob overrides as JSON");
  flags.add_string("strategy", "multiwalk", "parallel strategy (see --list)");
  flags.add_int("walkers", 4, "walkers (sequential runs one)");
  flags.add_int("threads", 0, "cap on concurrent OS threads (0 = one per walker)");
  flags.add_string("strategy-config", "", "strategy knobs as JSON");
  flags.add_int("seed", 2012,
                "master seed (per-walker seeds via the chaotic map); 0 = stochastic: "
                "a fresh seed per execution, never served from the report cache");
  flags.add_double("timeout", 0.0, "wall-clock budget in seconds (0 = unlimited)");
  flags.add_int("max-iters", 0, "per-walker iteration cap (0 = unlimited)");
  flags.add_int("probe", 0, "stop-token probe interval (0 = engine default)");
  flags.add_string("scenario", "", "JSON scenario file: batch of requests via SolverService");
  flags.add_int("pool-threads", 0, "SolverService pool width (0 = hardware)");
  flags.add_int("cache", 0, "report-cache capacity in entries (0 = caching off)");
  flags.add_double("cache-ttl", 0.0, "report-cache TTL in seconds (0 = never expires)");
  flags.add_double("admit-budget", 0.0,
                   "reject requests whose estimated cost (fitted iterations to solution / this "
                   "host's measured iteration rate) exceeds this many walker-seconds "
                   "(0 = admit everything; refused in a distributed world)");
  flags.add_bool("auto-calibrate", true,
                 "refit the admission cost model from this run's own completed reports");
  flags.add_int("ranks", 0,
                "distributed mode: total ranks of the multi-process world (0/1 = off); "
                "without --coordinator, rank 0 forks the sibling ranks over loopback");
  flags.add_int("rank", 0, "this process's rank in the distributed world");
  flags.add_string("coordinator", "",
                   "host:port of the rank-0 rendezvous (join an existing world instead "
                   "of launching one)");
  flags.add_string("ckpt-dir", "",
                   "directory for durable walker checkpoints + the resume manifest (empty = no "
                   "checkpoints; hosts a world; one request only)");
  flags.add_int("ckpt-iters", 0,
                "distributed world: iterations each walker advances per epoch (0 = default "
                "100000); epoch boundaries are where membership changes and checkpoints cut");
  flags.add_int("max-epochs", 0,
                "distributed world: stop cleanly after this absolute epoch (0 = unbounded) — "
                "the whole-world preemption knob");
  flags.add_string("resume", "",
                   "resume a hunt from this checkpoint directory's manifest (rank count may "
                   "differ from the original world; one request only)");
  flags.add_string("join", "",
                   "host:port of a RUNNING world to join late (admitted at the next epoch "
                   "boundary or hunt; one request only)");
  flags.add_int("die-at-epoch", 0,
                "fault injection: the rank named by --die-rank hard-kills its "
                "communicator after this many executed epochs (0 = off)");
  flags.add_int("die-rank", -1, "fault injection: which rank --die-at-epoch applies to");
  flags.add_int("drop-conn-at-epoch", 0,
                "fault injection: the rank named by --drop-conn-rank severs its coordinator "
                "connection (mid-epoch partition) after this many executed epochs and must "
                "recover through the rejoin path (0 = off)");
  flags.add_int("drop-conn-rank", -1,
                "fault injection: which rank --drop-conn-at-epoch applies to");
  flags.add_bool("standby", false,
                 "distributed world: replicate the coordinator's wave state to an elected "
                 "standby member, so the coordinator-hosting process's death is survivable — "
                 "the standby promotes itself, survivors re-rendezvous, and the hunt resumes "
                 "from the last completed wave (wire v3 failover)");
  flags.add_int("port-fd", -1,
                "internal (supervised launch): this rank-0 process writes its coordinator "
                "port to the given pipe fd instead of forking sibling ranks itself");
  flags.add_string("out", "-", "report path ('-' = stdout)");
  flags.add_bool("compact", false, "emit single-line JSON instead of pretty-printed");
  flags.add_bool("stats", false,
                 "print the final ServiceStats JSON (with per-outcome latency "
                 "percentiles) to stderr, even in single-request mode");
  flags.add_bool("require-solved", false, "exit non-zero unless every request solved");
  flags.add_bool("list", false, "print the problem/engine/strategy catalogs and exit");
  if (!flags.parse(argc, argv)) return 0;

  if (flags.get_bool("list")) {
    print_catalogs();
    return 0;
  }

  // A peer resetting mid-write must surface as EPIPE (handled per
  // connection), never as process death.
  std::signal(SIGPIPE, SIG_IGN);
  // Deterministic wire/disk fault injection (chaos runs): inert unless
  // CAS_FAULT_PLAN is set in the environment.
  net::FaultInjector::arm_from_env();

  util::Json doc = util::Json::object();
  doc["provenance"] = util::build_provenance();

  std::vector<runtime::SolveReport> reports;
  int my_rank = 0;
  bool promoted_host = false;  // this participant ended up hosting (failover)
  std::vector<pid_t> children;
  try {
    Scenario sc;
    if (!flags.get_string("scenario").empty())
      sc = load_scenario(flags.get_string("scenario"));
    else
      sc.waves.push_back({request_from_flags(flags)});
    // CLI flags override the scenario file's service options.
    if (flags.get_int("pool-threads") > 0)
      sc.service.pool_threads = static_cast<unsigned>(flags.get_int("pool-threads"));
    if (flags.get_int("cache") > 0)
      sc.service.cache_capacity = static_cast<size_t>(flags.get_int("cache"));
    if (flags.get_double("cache-ttl") > 0)
      sc.service.cache_ttl_seconds = flags.get_double("cache-ttl");
    if (flags.get_double("admit-budget") > 0)
      sc.service.admission_budget_walker_seconds = flags.get_double("admit-budget");
    if (!flags.get_bool("auto-calibrate")) sc.service.auto_calibrate = false;
    if (flags.get_int("ranks") > 0) sc.dist.ranks = static_cast<int>(flags.get_int("ranks"));
    sc.dist.rank = static_cast<int>(flags.get_int("rank"));
    if (!flags.get_string("coordinator").empty())
      parse_coordinator(flags.get_string("coordinator"), sc.dist);
    if (!flags.get_string("ckpt-dir").empty()) sc.dist.ckpt_dir = flags.get_string("ckpt-dir");
    if (flags.get_int("ckpt-iters") > 0)
      sc.dist.ckpt_iters = static_cast<uint64_t>(flags.get_int("ckpt-iters"));
    if (flags.get_int("max-epochs") > 0)
      sc.dist.max_epochs = static_cast<uint64_t>(flags.get_int("max-epochs"));
    if (!flags.get_string("resume").empty()) {
      sc.dist.resume = true;
      sc.dist.ckpt_dir = flags.get_string("resume");
    }
    sc.dist.join = flags.get_string("join");
    sc.dist.die_at_epoch = static_cast<uint64_t>(flags.get_int("die-at-epoch"));
    sc.dist.die_rank = static_cast<int>(flags.get_int("die-rank"));
    sc.dist.drop_conn_at_epoch = static_cast<uint64_t>(flags.get_int("drop-conn-at-epoch"));
    sc.dist.drop_conn_rank = static_cast<int>(flags.get_int("drop-conn-rank"));
    if (flags.get_bool("standby")) sc.dist.standby = true;
    my_rank = sc.dist.rank;
    const bool joiner = !sc.dist.join.empty();
    const bool hosts_world =
        sc.dist.ranks > 1 || !sc.dist.ckpt_dir.empty() || sc.dist.resume || joiner;

    // Every rank of a world runs its own SolverService, and each prices a
    // request with its own rate probe, so one budget can admit a request on
    // one rank and reject it on another — which leaves the admitting ranks
    // waiting for a hunt that never opens. Refuse the combination before
    // any rendezvous.
    if (hosts_world && sc.service.admission_budget_walker_seconds > 0)
      throw std::runtime_error(
          "an admission budget (--admit-budget / scenario 'admit_budget') cannot be used "
          "with a distributed world (--ranks > 1, --ckpt-dir, --join, --resume): every rank "
          "prices requests with its own rate probe, so the ranks could disagree on admission");

    if (hosts_world) {
      // A checkpoint directory and a joiner's request key each belong to
      // one hunt.
      size_t total_requests = 0;
      for (const auto& wave : sc.waves) total_requests += wave.size();
      if (total_requests != 1 && (!sc.dist.ckpt_dir.empty() || sc.dist.resume || joiner))
        throw std::runtime_error(util::strf(
            "--ckpt-dir, --resume and --join take exactly one request (this run has %zu): a "
            "checkpoint directory and a joiner's request key each belong to one hunt",
            total_requests));
      // Graceful drain: SIGTERM is a request to stop at the next epoch
      // boundary, not to die. Installed before the launcher forks so the
      // children inherit the disposition.
      std::signal(SIGTERM, on_drain_signal);
    }

    // Supervised launch: when the coordinator-hosting rank itself may die
    // (failover drills: --standby, or rank 0 named by --die-rank), the
    // launcher must outlive rank 0. The parent forks ALL ranks — rank 0
    // reports its ephemeral coordinator port back through a pipe — and only
    // reaps and aggregates. Without this, SIGKILLing the coordinator would
    // take the launcher down with it and orphan the surviving ranks.
    const int port_fd = static_cast<int>(flags.get_int("port-fd"));
    const bool supervise = sc.dist.ranks > 1 && sc.dist.rank == 0 &&
                           !sc.dist.explicit_coordinator && !joiner && port_fd < 0 &&
                           (sc.dist.standby || sc.dist.die_rank == 0);
    if (supervise) {
      int pfd[2];
      if (pipe(pfd) != 0) throw std::runtime_error("supervisor: pipe failed");
      std::vector<std::pair<int, pid_t>> kids;
      const pid_t r0 = spawn_rank(argc, argv, 0, sc.dist.ranks, 0, pfd[1]);
      close(pfd[1]);
      if (r0 < 0) {
        close(pfd[0]);
        throw std::runtime_error("supervisor: fork failed for rank 0");
      }
      kids.emplace_back(0, r0);
      std::string line;
      char ch = 0;
      while (read(pfd[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
      close(pfd[0]);
      int port = 0;
      try {
        port = std::stoi(line);
      } catch (const std::exception&) {
      }
      if (port <= 0 || port > 65535) {
        waitpid(r0, nullptr, 0);
        throw std::runtime_error("supervisor: rank 0 never reported its coordinator port");
      }
      for (int r = 1; r < sc.dist.ranks; ++r) {
        const pid_t pid =
            spawn_rank(argc, argv, r, sc.dist.ranks, static_cast<uint16_t>(port));
        if (pid > 0) kids.emplace_back(r, pid);
      }
      // Signal deaths are membership events the world absorbs (that is the
      // feature under drill); a rank EXITING nonzero reports a genuine
      // failure — e.g. every survivor aborting because no standby was
      // elected — and fails the run, with the cause per rank.
      int completed = 0;
      bool hard_failure = false;
      std::vector<std::string> causes;
      for (const auto& [r, pid] : kids) {
        int status = 0;
        waitpid(pid, &status, 0);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          ++completed;
          continue;
        }
        if (WIFEXITED(status)) hard_failure = true;
        causes.push_back("rank " + std::to_string(r) + ": " + describe_exit(status));
      }
      if (completed == 0 || hard_failure) {
        std::fprintf(stderr, "error: the supervised world failed\n");
        for (const auto& c : causes) std::fprintf(stderr, "  %s\n", c.c_str());
        return 1;
      }
      for (const auto& c : causes)
        std::fprintf(stderr, "note: %s — tolerated: the world evicts a dead member\n",
                     c.c_str());
      return 0;
    }

    std::optional<dist::World> world;
    if (hosts_world) {
      dist::WorldOptions wo;
      wo.rank = sc.dist.rank;
      wo.ranks = sc.dist.ranks;
      wo.host = sc.dist.host;
      wo.port = sc.dist.port;
      wo.connect_timeout_seconds = sc.dist.connect_timeout;
      wo.heartbeat_timeout_seconds = sc.dist.heartbeat_timeout;
      wo.standby = sc.dist.standby;
      if (joiner) {
        // Late joiner: no rank claim, no coordinator hosting. The hunt key
        // authenticates us against the hunt in progress; admission happens
        // at the next epoch boundary or hunt, so allow a generous
        // rendezvous.
        parse_coordinator(sc.dist.join, sc.dist);
        wo.join = true;
        wo.rank = -1;
        wo.ranks = 0;
        wo.host = sc.dist.host;
        wo.port = sc.dist.port;
        wo.hunt_key = dist::elastic_hunt_key(runtime::resolve(sc.waves.at(0).at(0)));
        wo.connect_timeout_seconds = std::max(sc.dist.connect_timeout, 60.0);
        my_rank = 1;  // participant, not the reporting rank
      }
      // Single-command loopback launch: rank 0 without an explicit
      // coordinator forks the sibling ranks once its port is known. A
      // supervised rank 0 (--port-fd) instead reports the port to its
      // supervisor, which does the forking.
      const bool launch = sc.dist.rank == 0 && !sc.dist.explicit_coordinator && !joiner &&
                          port_fd < 0 && sc.dist.ranks > 1;
      world.emplace(wo, [&](uint16_t port) {
        if (port_fd >= 0) {
          const std::string line = std::to_string(port) + "\n";
          (void)!write(port_fd, line.c_str(), line.size());
          close(port_fd);
        }
        if (!launch) return;
        for (int r = 1; r < sc.dist.ranks; ++r) {
          const pid_t pid = spawn_rank(argc, argv, r, sc.dist.ranks, port);
          if (pid > 0) children.push_back(pid);
        }
      });
      // The serving layer wraps the distributed runner unchanged — dedup,
      // cache, and stats apply (admission is refused above). Requests go
      // through one at a time: each is one hunt every rank takes part in,
      // and sequential submission keeps serving decisions rank-consistent.
      dist::ElasticOptions eo;
      eo.ckpt_dir = sc.dist.ckpt_dir;
      eo.ckpt_iters = sc.dist.ckpt_iters;
      eo.max_epochs = sc.dist.max_epochs;
      eo.resume = sc.dist.resume;
      eo.drain = &g_drain;
      eo.control_timeout_seconds = sc.dist.collective_timeout;
      if (!joiner && sc.dist.die_rank >= 0 && sc.dist.die_rank == sc.dist.rank) {
        eo.die_at_epoch = sc.dist.die_at_epoch;
        // In a multi-process world "die" means PROCESS death: raise
        // SIGKILL so the coordinator (in-process on rank 0) dies with the
        // member, instead of a comm-only kill followed by a live process
        // racing the survivors for the report file.
        eo.die_sigkill = sc.dist.ranks > 1;
      }
      if (!joiner && sc.dist.drop_conn_rank >= 0 && sc.dist.drop_conn_rank == sc.dist.rank)
        eo.drop_conn_at_epoch = sc.dist.drop_conn_at_epoch;
      sc.service.solve_fn = [&world, eo](const runtime::SolveRequest& req,
                                         const runtime::StrategyContext& ctx) {
        return dist::solve_elastic(*world, req, ctx, eo);
      };
    }

    runtime::SolverService service(sc.service);
    for (const auto& wave : sc.waves) {
      if (world.has_value()) {
        for (const auto& req : wave) reports.push_back(service.submit(req).get());
      } else {
        auto batch = service.solve_batch(wave);
        reports.insert(reports.end(), std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
      }
    }
    doc["pool_threads"] = static_cast<uint64_t>(service.pool().size());
    doc["waves"] = static_cast<uint64_t>(sc.waves.size());
    doc["service"] = service.stats().to_json();
    if (world.has_value()) {
      util::Json dj = util::Json::object();
      dj["ranks"] = static_cast<int64_t>(sc.dist.ranks);
      dj["rank"] = static_cast<int64_t>(sc.dist.rank);
      dj["coordinator_port"] = static_cast<int64_t>(world->port());
      if (!sc.dist.ckpt_dir.empty()) dj["ckpt_dir"] = sc.dist.ckpt_dir;
      if (sc.dist.resume) dj["resumed"] = true;
      if (sc.dist.standby) dj["standby"] = true;
      if (world->promoted_from() >= 0) dj["promoted_from"] = world->promoted_from();
      // A participant promoted to coordinator host mid-hunt holds the
      // merged world report — it writes --out in the dead rank 0's stead.
      promoted_host = my_rank > 0 && world->is_host();
      doc["dist"] = std::move(dj);
      world->finalize();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    for (const pid_t pid : children) waitpid(pid, nullptr, 0);
    return 2;
  }

  // The launcher reaps its forked ranks. A rank dying (SIGKILL, fault
  // injection, eviction) is a membership event the world absorbed, not a
  // run failure: rank 0's report is the verdict.
  for (const pid_t pid : children) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      std::fprintf(stderr, "note: a launched rank died (%s) — tolerated: the world evicts a "
                   "dead member\n", describe_exit(status).c_str());
  }

  // Ranks > 0 are participants, not reporters: rank 0's report is the
  // merged, authoritative one — unless a failover made THIS participant
  // the host, in which case it reports for the world.
  if (my_rank > 0 && !promoted_host) {
    for (const auto& rep : reports)
      if (!rep.error.empty()) {
        std::fprintf(stderr, "rank %d error: %s\n", my_rank, rep.error.c_str());
        return 1;
      }
    return 0;
  }

  if (flags.get_bool("stats"))
    std::fprintf(stderr, "%s\n", doc["service"].dump(2).c_str());

  util::Json results = util::Json::array();
  bool any_error = false, all_solved = true;
  for (const auto& rep : reports) {
    results.push_back(rep.to_json());
    if (!rep.error.empty()) any_error = true;
    if (!rep.solved) all_solved = false;
    if (rep.checked && !rep.check_passed) any_error = true;
  }
  doc["results"] = std::move(results);

  const int rc = write_report(doc, flags.get_string("out"), flags.get_bool("compact") ? 0 : 2);
  if (rc != 0) return rc;
  if (any_error) return 1;
  if (flags.get_bool("require-solved") && !all_solved) return 1;
  return 0;
}
