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
// In a world only rank 0 reads requests and serves them; a member follows:
//   $ cas_run --ranks=4 --rank=2 --coordinator=10.0.0.1:7000
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
/// dist flags (flags win) — the deployment settings every process reads.
/// ranks > 1 turns the run into one rank of a multi-process world: rank 0
/// hosts the rendezvous and (absent an explicit --coordinator) forks the
/// sibling ranks over loopback. So do --ckpt-dir, --resume and --join, even
/// on one rank. See docs/OPERATIONS.md.
struct DistConfig {
  dist::WorldOptions world;      // identity, coordinator address, timeouts, standby
  dist::ElasticOptions elastic;  // checkpoints, resume; the host's segment length and
                                 // epoch bound define each hunt
  bool explicit_coordinator = false;  // --coordinator: dial it, fork nothing
};

/// What the host (or a single process) serves: requests and service options.
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
};

std::vector<runtime::SolveRequest> parse_requests(const util::Json& arr) {
  if (!arr.is_array()) throw std::runtime_error("scenario: expected an array of requests");
  std::vector<runtime::SolveRequest> out;
  for (const auto& r : arr.as_array()) out.push_back(runtime::SolveRequest::from_json(r));
  return out;
}

util::Json read_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  return util::Json::parse(buf.str());
}

/// The scenario's "dist" block, if any.
DistConfig dist_of(const util::Json& doc) {
  DistConfig d;
  const util::Json* dist = doc.is_object() ? doc.find("dist") : nullptr;
  if (dist == nullptr) return d;
  if (!dist->is_object()) throw std::runtime_error("scenario: 'dist' must be an object");
  dist::WorldOptions& w = d.world;
  dist::ElasticOptions& e = d.elastic;
  if (const auto* p = dist->find("ranks")) w.ranks = static_cast<int>(p->as_int());
  if (const auto* p = dist->find("host")) w.host = p->as_string();
  if (const auto* p = dist->find("port")) w.port = static_cast<uint16_t>(p->as_int());
  if (const auto* p = dist->find("connect_timeout")) w.connect_timeout_seconds = p->as_number();
  if (const auto* p = dist->find("heartbeat_timeout")) w.heartbeat_timeout_seconds = p->as_number();
  if (const auto* p = dist->find("standby")) w.standby = p->as_bool();
  if (const auto* p = dist->find("collective_timeout")) e.control_timeout_seconds = p->as_number();
  if (const auto* p = dist->find("ckpt_dir")) e.ckpt_dir = p->as_string();
  if (const auto* p = dist->find("ckpt_iters")) e.ckpt_iters = static_cast<uint64_t>(p->as_int());
  if (const auto* p = dist->find("max_epochs")) e.max_epochs = static_cast<uint64_t>(p->as_int());
  return d;
}

/// The scenario's requests and service options.
Scenario scenario_of(const util::Json& doc) {
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
  dist.world.host = spec.substr(0, colon);
  dist.world.port = static_cast<uint16_t>(std::stoi(spec.substr(colon + 1)));
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
                   "(0 = admit everything; in a world the host decides, and a rejected request "
                   "opens no hunt)");
  flags.add_bool("auto-calibrate", true,
                 "refit the admission cost model from this run's own completed reports");
  flags.add_int("ranks", 0,
                "distributed mode: total ranks of the multi-process world (0/1 = off); "
                "without --coordinator, rank 0 forks the sibling ranks over loopback");
  flags.add_int("rank", 0,
                "this process's rank in the distributed world; a rank > 0 reads only the dist "
                "flags and block, and follows the hunts rank 0 opens");
  flags.add_string("coordinator", "",
                   "host:port of the rank-0 rendezvous (join an existing world instead "
                   "of launching one)");
  flags.add_string("ckpt-dir", "",
                   "directory for durable walker checkpoints + the resume manifest (empty = no "
                   "checkpoints; hosts a world; one request only)");
  flags.add_int("ckpt-iters", 0,
                "distributed world: iterations each walker advances per epoch (0 = default "
                "100000); epoch boundaries are where membership changes and checkpoints cut "
                "(the host's value: members take it from each hunt's opening)");
  flags.add_int("max-epochs", 0,
                "distributed world: stop cleanly after this absolute epoch (0 = unbounded) — "
                "the whole-world preemption knob (the host's value, as --ckpt-iters)");
  flags.add_string("resume", "",
                   "resume a hunt from this checkpoint directory's manifest (rank count may "
                   "differ from the original world; one request only)");
  flags.add_string("join", "",
                   "host:port of a RUNNING world to join late as a member (admitted at the next "
                   "epoch boundary or hunt; carries no request: it follows the host's hunts)");
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
  bool member = false;         // a rank > 0 or a joiner: it follows the host's hunts
  bool promoted_host = false;  // a member that ended up hosting (failover)
  std::vector<pid_t> children;
  try {
    // Deployment settings: every process reads these, members nothing else.
    util::Json scenario;
    if (!flags.get_string("scenario").empty())
      scenario = read_scenario(flags.get_string("scenario"));
    DistConfig dist = dist_of(scenario);
    dist::WorldOptions& wo = dist.world;
    dist::ElasticOptions& eo = dist.elastic;
    if (flags.get_int("ranks") > 0) wo.ranks = static_cast<int>(flags.get_int("ranks"));
    wo.rank = static_cast<int>(flags.get_int("rank"));
    if (!flags.get_string("coordinator").empty())
      parse_coordinator(flags.get_string("coordinator"), dist);
    if (flags.get_bool("standby")) wo.standby = true;
    if (!flags.get_string("ckpt-dir").empty()) eo.ckpt_dir = flags.get_string("ckpt-dir");
    if (flags.get_int("ckpt-iters") > 0)
      eo.ckpt_iters = static_cast<uint64_t>(flags.get_int("ckpt-iters"));
    if (flags.get_int("max-epochs") > 0)
      eo.max_epochs = static_cast<uint64_t>(flags.get_int("max-epochs"));
    if (!flags.get_string("resume").empty()) {
      eo.resume = true;
      eo.ckpt_dir = flags.get_string("resume");
    }
    const std::string join = flags.get_string("join");
    const bool joiner = !join.empty();
    member = wo.rank > 0 || joiner;
    const bool hosts_world = member || wo.ranks > 1 || !eo.ckpt_dir.empty() || eo.resume;
    // Fault injection applies to the rank its flag names.
    const int die_rank = static_cast<int>(flags.get_int("die-rank"));
    if (!joiner && die_rank == wo.rank) {
      eo.die_at_epoch = static_cast<uint64_t>(flags.get_int("die-at-epoch"));
      // In a multi-process world "die" means PROCESS death: raise SIGKILL
      // so the coordinator (in-process on rank 0) dies with the member,
      // instead of a comm-only kill followed by a live process racing the
      // survivors for the report file.
      eo.die_sigkill = wo.ranks > 1;
    }
    if (!joiner && flags.get_int("drop-conn-rank") == wo.rank)
      eo.drop_conn_at_epoch = static_cast<uint64_t>(flags.get_int("drop-conn-at-epoch"));

    // What the host serves: requests and service options (CLI flags
    // override the scenario file's).
    Scenario sc;
    if (!member) {
      if (!scenario.is_null())
        sc = scenario_of(scenario);
      else
        sc.waves.push_back({request_from_flags(flags)});
      if (flags.get_int("pool-threads") > 0)
        sc.service.pool_threads = static_cast<unsigned>(flags.get_int("pool-threads"));
      if (flags.get_int("cache") > 0)
        sc.service.cache_capacity = static_cast<size_t>(flags.get_int("cache"));
      if (flags.get_double("cache-ttl") > 0)
        sc.service.cache_ttl_seconds = flags.get_double("cache-ttl");
      if (flags.get_double("admit-budget") > 0)
        sc.service.admission_budget_walker_seconds = flags.get_double("admit-budget");
      if (!flags.get_bool("auto-calibrate")) sc.service.auto_calibrate = false;
      // A checkpoint directory belongs to one hunt.
      size_t total_requests = 0;
      for (const auto& wave : sc.waves) total_requests += wave.size();
      if (total_requests != 1 && (!eo.ckpt_dir.empty() || eo.resume))
        throw std::runtime_error(util::strf(
            "--ckpt-dir and --resume take exactly one request (this run has %zu): a checkpoint "
            "directory belongs to one hunt",
            total_requests));
    }
    // Graceful drain: SIGTERM is a request to stop at the next epoch
    // boundary, not to die. Installed before the launcher forks so the
    // children inherit the disposition.
    if (hosts_world) std::signal(SIGTERM, on_drain_signal);

    // Supervised launch: when the coordinator-hosting rank itself may die
    // (failover drills: --standby, or rank 0 named by --die-rank), the
    // launcher must outlive rank 0. The parent forks ALL ranks — rank 0
    // reports its ephemeral coordinator port back through a pipe — and only
    // reaps and aggregates. Without this, SIGKILLing the coordinator would
    // take the launcher down with it and orphan the surviving ranks.
    const int port_fd = static_cast<int>(flags.get_int("port-fd"));
    const bool supervise = wo.ranks > 1 && wo.rank == 0 && !dist.explicit_coordinator &&
                           !joiner && port_fd < 0 && (wo.standby || die_rank == 0);
    if (supervise) {
      int pfd[2];
      if (pipe(pfd) != 0) throw std::runtime_error("supervisor: pipe failed");
      std::vector<std::pair<int, pid_t>> kids;
      const pid_t r0 = spawn_rank(argc, argv, 0, wo.ranks, 0, pfd[1]);
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
      for (int r = 1; r < wo.ranks; ++r) {
        const pid_t pid = spawn_rank(argc, argv, r, wo.ranks, static_cast<uint16_t>(port));
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
      if (joiner) {
        // No rank claim, no hosting, and a generous rendezvous: admission
        // waits for the next epoch boundary or hunt.
        parse_coordinator(join, dist);
        wo.join = true;
        wo.rank = -1;
        wo.ranks = 0;
        wo.connect_timeout_seconds = std::max(wo.connect_timeout_seconds, 60.0);
      }
      // Single-command loopback launch: rank 0 without an explicit
      // coordinator forks the sibling ranks once its port is known. A
      // supervised rank 0 (--port-fd) instead reports the port to its
      // supervisor, which does the forking.
      const bool launch = wo.rank == 0 && !dist.explicit_coordinator && port_fd < 0 &&
                          wo.ranks > 1;
      world.emplace(wo, [&](uint16_t port) {
        if (port_fd >= 0) {
          const std::string line = std::to_string(port) + "\n";
          (void)!write(port_fd, line.c_str(), line.size());
          close(port_fd);
        }
        if (!launch) return;
        for (int r = 1; r < wo.ranks; ++r) {
          const pid_t pid = spawn_rank(argc, argv, r, wo.ranks, port);
          if (pid > 0) children.push_back(pid);
        }
      });
      eo.drain = &g_drain;
    }

    if (member) {  // it holds no requests and serves nothing itself
      reports = dist::follow(*world, runtime::StrategyContext{}, eo);
      doc["service"] = runtime::ServiceStats().to_json();
    } else {
      // The serving layer wraps the distributed runner: only a request it
      // executes opens a hunt. Requests go through one at a time.
      if (world.has_value())
        sc.service.solve_fn = [&world, eo](const runtime::SolveRequest& req,
                                           const runtime::StrategyContext& ctx) {
          return dist::solve_elastic(*world, req, ctx, eo);
        };
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
    }
    if (world.has_value()) {
      util::Json dj = util::Json::object();
      dj["ranks"] = static_cast<int64_t>(wo.ranks);
      dj["rank"] = static_cast<int64_t>(wo.rank);
      dj["coordinator_port"] = static_cast<int64_t>(world->port());
      if (!eo.ckpt_dir.empty()) dj["ckpt_dir"] = eo.ckpt_dir;
      if (eo.resume) dj["resumed"] = true;
      if (wo.standby) dj["standby"] = true;
      if (world->promoted_from() >= 0) dj["promoted_from"] = world->promoted_from();
      // A member promoted to coordinator host mid-hunt holds the merged
      // world report of the hunt it finished — it writes --out in the dead
      // rank 0's stead, and its finalize closes the world. One promoted
      // between hunts finished none: its last report is the error that says
      // the dead host's unopened requests did not run, and the run fails.
      promoted_host = member && world->is_host();
      if (promoted_host && reports.size() > 1) reports.erase(reports.begin(), reports.end() - 1);
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

  // Members are participants, not reporters: rank 0's report is the
  // merged, authoritative one — unless a failover made THIS member the
  // host, in which case it reports for the world.
  if (member && !promoted_host) {
    for (const auto& rep : reports)
      if (!rep.error.empty()) {
        std::fprintf(stderr, "member error: %s\n", rep.error.c_str());
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
