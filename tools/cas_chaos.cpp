// cas_chaos — the seeded chaos soak driver: proves that a scenario run
// under deterministic wire-fault injection (src/net/fault.hpp) finishes
// within a deadline AND lands on the same verified winner as the
// fault-free baseline.
//
//   $ cas_chaos --scenario=tools/scenarios/s12_dist_multiwalk_n18.json \
//               --seeds=1,2,3 --deadline=300 --out-dir=chaos_out
//
// Per invocation it runs cas_run once with no fault plan (the baseline),
// then once per --seeds entry with CAS_FAULT_PLAN armed (the plan template
// re-seeded each time), and diffs the reports: solved flags, winner walker
// ids, winner iteration counts, and the solution arrays must be identical.
// Every child runs in its own process group under a hard wall-clock
// deadline — a hang is a kill(-pgid) plus a failed run, never a hung CI
// job.
//
// --prove-no-retry closes the loop on the acceptance criterion: it re-runs
// the first chaos schedule with CAS_FAULT_NO_RETRY=1 and REQUIRES that run
// to fail. If the no-retry run passes, the plan never exercised the
// retry/backoff paths and the green chaos runs were vacuous.
//
// --kill-coordinator is the failover drill (multi-rank scenarios only): SIGKILL member 0 — the coordinator host — mid-hunt with --standby
// armed, require the promoted standby's report to carry the baseline's
// exact verified winner AND record the promotion, then require the same
// kill WITHOUT --standby to fail. Both directions, or the drill proved
// nothing.
//
// Exit status: 0 = every comparison (and the negative proof, if requested)
// held; 1 = a chaos run hung, crashed, or diverged from the baseline.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "net/fault.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

using namespace cas;

namespace {

// The default chaos schedule. Survivability is by construction: the
// guaranteed reset and corruption are capped at one firing each and
// windowed onto op 0 of a connection — the hello/welcome exchange, which
// the retry/backoff paths (rank re-hello, client reconnect) recover.
// Op 1 would already be the first POST-rendezvous frame of an established
// rank connection, where a lost byte is correctly fatal. Latency is
// likewise confined to early ops: delaying steady-state traffic can
// legitimately move a wall-clock winner race, which would make the
// baseline comparison test the solver's race instead of the wire's
// recovery. The lossless classes (short reads/writes, EINTR/EAGAIN
// storms) run unwindowed — the frame layer must absorb those verbatim for
// the whole run.
const char* kDefaultPlan = R"({
  "seed": 1,
  "short_read": {"prob": 0.1},
  "short_write": {"prob": 0.1},
  "latency": {"prob": 0.2, "ms": 2, "max_op": 20, "max": 200},
  "reset": {"prob": 1.0, "max": 1, "max_op": 0},
  "corrupt": {"prob": 1.0, "max": 1, "max_op": 0},
  "refuse_accept": {"prob": 0.25, "max": 1},
  "eintr": {"prob": 0.05, "burst": 2},
  "eagain": {"prob": 0.05}
})";

struct RunOutcome {
  int exit_code = -1;
  bool timed_out = false;
  double wall_seconds = 0.0;
};

double now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// cas_run lives next to us unless the caller says otherwise.
std::string sibling_cas_run() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "cas_run";
  buf[n] = '\0';
  std::string self(buf);
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "cas_run";
  return self.substr(0, slash + 1) + "cas_run";
}

/// Fork/exec `argv` with `env_extra` ("K=V") appended to the environment,
/// stdout+stderr redirected to `log_path`, in its own process group so a
/// blown deadline kills the whole tree (cas_run forks its ranks).
RunOutcome run_child(const std::vector<std::string>& argv,
                     const std::vector<std::string>& env_extra,
                     const std::string& log_path, double deadline_seconds) {
  RunOutcome out;
  const double start = now_seconds();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    const int logfd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logfd >= 0) {
      ::dup2(logfd, STDOUT_FILENO);
      ::dup2(logfd, STDERR_FILENO);
      ::close(logfd);
    }
    for (const std::string& kv : env_extra) {
      const size_t eq = kv.find('=');
      setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec %s failed: %s\n", cargv[0], std::strerror(errno));
    _exit(127);
  }
  ::setpgid(pid, pid);  // parent-side too: beat the child to the exec race
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      break;
    }
    if (now_seconds() - start > deadline_seconds) {
      out.timed_out = true;
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      out.exit_code = -1;
      break;
    }
    timespec nap{0, 50 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  out.wall_seconds = now_seconds() - start;
  return out;
}

/// The identity we assert chaos cannot move: per-request solved flag,
/// winner walker, winner iteration count, and the solution permutation.
///
/// `compare` = "full" | "verified" | "auto". Every in-process multi-walker
/// strategy picks its winner by a wall-clock race (first walker to solve
/// takes the stop-token CAS), so the very retry backoffs a chaos run exists
/// to exercise legitimately move it — near-tied walkers flip, and
/// cooperative's asynchronous elite-sharing changes whole trajectories.
/// "auto" therefore fingerprints bit-exactly only where the winner rule is
/// timing-invariant — distributed worlds (the (min solve iteration, min
/// walker id) rule) and single-walker sequential — and everything else by
/// solved-and-verified only.
util::Json winner_fingerprint(const util::Json& report, const std::string& compare) {
  const util::Json* dist = report.find("dist");
  const bool world = dist != nullptr && dist->is_object();
  util::Json fp = util::Json::array();
  const util::Json* results = report.find("results");
  if (results == nullptr || !results->is_array())
    throw std::runtime_error("report has no results array");
  size_t i = 0;
  for (const util::Json& r : results->as_array()) {
    ++i;
    util::Json row = util::Json::object();
    const util::Json* err = r.find("error");
    if (err != nullptr) {
      row["error"] = *err;
      fp.push_back(std::move(row));
      continue;
    }
    std::string strategy;
    const util::Json* req = r.find("request");
    if (req != nullptr) {
      const util::Json* sj = req->find("strategy");
      if (sj != nullptr && sj->is_string()) strategy = sj->as_string();
    }
    const bool exact =
        compare == "full" ||
        (compare == "auto" && (world || strategy == "sequential"));
    row["solved"] = r.at("solved").as_bool();
    if (r.at("solved").as_bool()) {
      if (exact) {
        row["winner"] = r.at("winner").as_int();
        row["winner_iterations"] = r.at("winner_iterations").as_int();
        row["solution"] = r.at("solution");
      }
      const util::Json* checked = r.find("check_passed");
      if (checked != nullptr && !checked->as_bool())
        throw std::runtime_error(
            util::strf("result %zu: solution failed verification", i));
    }
    fp.push_back(std::move(row));
  }
  return fp;
}

std::vector<uint64_t> parse_seeds(const std::string& spec) {
  std::vector<uint64_t> seeds;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) seeds.push_back(std::stoull(tok));
  if (seeds.empty()) throw std::runtime_error("--seeds parsed to nothing");
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "cas_chaos — seeded chaos soak driver: runs a cas_run scenario under\n"
      "deterministic wire-fault schedules and asserts the winner identity\n"
      "matches the fault-free baseline, under a hard no-hang deadline.");
  flags.add_string("scenario", "", "scenario JSON file (required; passed to cas_run)");
  flags.add_string("cas-run", "", "cas_run binary (default: sibling of this executable)");
  flags.add_string("seeds", "1,2,3", "comma-separated fault-plan seeds, one chaos run each");
  flags.add_string("plan", "",
                   "fault-plan template: inline JSON or @file (default: built-in "
                   "reset+corruption+latency schedule); its 'seed' field is "
                   "overwritten per run");
  flags.add_double("deadline", 300.0, "per-run wall-clock deadline in seconds (hang = fail)");
  flags.add_string("out-dir", "chaos_out", "where reports, plans, and child logs land");
  flags.add_string("extra", "", "extra cas_run arguments, space-separated (e.g. \"--ckpt-dir=ck\")");
  flags.add_string("compare", "auto",
                   "winner comparison: full = bit-exact winner/solution for every "
                   "result; verified = solved + independently-checked only; auto = "
                   "full except race-based strategies (cooperative)");
  flags.add_bool("prove-no-retry", false,
                 "re-run the first chaos schedule with CAS_FAULT_NO_RETRY=1 and "
                 "require it to FAIL (proves the plan exercises the retry paths)");
  flags.add_bool("kill-coordinator", false,
                 "coordinator assassination: run the scenario with --standby and "
                 "member 0 SIGKILLed mid-hunt, require the promoted report to match "
                 "the baseline, then require the SAME kill WITHOUT --standby to fail "
                 "(multi-rank scenarios only)");
  flags.add_int("kill-at-epoch", 2,
                "which epoch --kill-coordinator murders member 0 at (must be >= 1: "
                "promotion needs one replicated wave)");
  if (!flags.parse(argc, argv)) return 0;

  std::signal(SIGPIPE, SIG_IGN);

  try {
    const std::string scenario = flags.get_string("scenario");
    if (scenario.empty()) throw std::runtime_error("--scenario is required");
    const std::string out_dir = flags.get_string("out-dir");
    ::mkdir(out_dir.c_str(), 0755);
    std::string cas_run = flags.get_string("cas-run");
    if (cas_run.empty()) cas_run = sibling_cas_run();
    const double deadline = flags.get_double("deadline");
    const std::vector<uint64_t> seeds = parse_seeds(flags.get_string("seeds"));
    const std::string compare = flags.get_string("compare");
    if (compare != "auto" && compare != "full" && compare != "verified")
      throw std::runtime_error("--compare must be auto, full, or verified");

    std::string plan_text = flags.get_string("plan");
    if (plan_text.empty()) plan_text = kDefaultPlan;
    if (plan_text[0] == '@') plan_text = read_file(plan_text.substr(1));
    util::Json plan = util::Json::parse(plan_text);
    net::FaultPlan::parse(plan);  // reject malformed templates before spending runs

    std::vector<std::string> base_argv = {cas_run, "--scenario=" + scenario, "--compact=true"};
    {
      std::stringstream ss(flags.get_string("extra"));
      std::string tok;
      while (ss >> tok) base_argv.push_back(tok);
    }

    util::Json summary = util::Json::object();
    summary["scenario"] = scenario;
    util::Json runs = util::Json::array();
    bool ok = true;

    // Baseline: fault-free, same binary, same scenario. Everything after
    // is measured against this fingerprint.
    const std::string base_report = out_dir + "/baseline.json";
    std::vector<std::string> argv_base = base_argv;
    argv_base.push_back("--out=" + base_report);
    std::fprintf(stderr, "cas_chaos: baseline %s\n", scenario.c_str());
    const RunOutcome base = run_child(argv_base, {}, out_dir + "/baseline.log", deadline);
    if (base.exit_code != 0)
      throw std::runtime_error(util::strf(
          "baseline run failed (%s, exit %d) — see %s/baseline.log",
          base.timed_out ? "deadline" : "error", base.exit_code, out_dir.c_str()));
    const util::Json base_fp = winner_fingerprint(util::Json::parse(read_file(base_report)), compare);
    summary["baseline"] = base_fp;

    for (const uint64_t seed : seeds) {
      plan["seed"] = static_cast<int64_t>(seed);
      const std::string plan_path = util::strf("%s/plan-%llu.json", out_dir.c_str(),
                                               static_cast<unsigned long long>(seed));
      write_file(plan_path, plan.dump(2) + "\n");
      const std::string report = util::strf("%s/chaos-%llu.json", out_dir.c_str(),
                                            static_cast<unsigned long long>(seed));
      std::vector<std::string> argv_chaos = base_argv;
      argv_chaos.push_back("--out=" + report);
      std::fprintf(stderr, "cas_chaos: seed %llu ...\n", static_cast<unsigned long long>(seed));
      const RunOutcome rc = run_child(
          argv_chaos, {"CAS_FAULT_PLAN=@" + plan_path},
          util::strf("%s/chaos-%llu.log", out_dir.c_str(), static_cast<unsigned long long>(seed)),
          deadline);

      util::Json row = util::Json::object();
      row["seed"] = static_cast<int64_t>(seed);
      row["exit_code"] = static_cast<int64_t>(rc.exit_code);
      row["timed_out"] = rc.timed_out;
      row["wall_seconds"] = rc.wall_seconds;
      bool run_ok = rc.exit_code == 0;
      if (run_ok) {
        const util::Json fp = winner_fingerprint(util::Json::parse(read_file(report)), compare);
        run_ok = fp.dump(0) == base_fp.dump(0);
        if (!run_ok) row["divergence"] = fp;
      }
      row["ok"] = run_ok;
      std::fprintf(stderr, "cas_chaos: seed %llu %s (%.1fs)\n",
                   static_cast<unsigned long long>(seed), run_ok ? "OK" : "FAILED",
                   rc.wall_seconds);
      ok = ok && run_ok;
      runs.push_back(std::move(row));
    }
    summary["runs"] = std::move(runs);

    if (flags.get_bool("prove-no-retry")) {
      // Negative control: the identical schedule with the retry paths
      // disabled MUST fail, or the chaos runs above proved nothing.
      plan["seed"] = static_cast<int64_t>(seeds.front());
      const std::string plan_path = out_dir + "/plan-no-retry.json";
      write_file(plan_path, plan.dump(2) + "\n");
      std::vector<std::string> argv_nr = base_argv;
      argv_nr.push_back("--out=" + out_dir + "/no-retry.json");
      std::fprintf(stderr, "cas_chaos: no-retry negative control ...\n");
      const RunOutcome rc = run_child(
          argv_nr, {"CAS_FAULT_PLAN=@" + plan_path, "CAS_FAULT_NO_RETRY=1"},
          out_dir + "/no-retry.log", deadline);
      util::Json nr = util::Json::object();
      nr["exit_code"] = static_cast<int64_t>(rc.exit_code);
      nr["timed_out"] = rc.timed_out;
      // A hang is not an acceptable failure mode even here — the run must
      // fail FAST (abort propagation), not wedge until the deadline.
      const bool proved = !rc.timed_out && rc.exit_code != 0;
      nr["failed_as_required"] = proved;
      summary["no_retry"] = std::move(nr);
      std::fprintf(stderr, "cas_chaos: no-retry run %s\n",
                   proved ? "failed as required (retry paths are load-bearing)"
                          : "DID NOT FAIL — the schedule never exercised retry");
      ok = ok && proved;
    }

    if (flags.get_bool("kill-coordinator")) {
      // Coordinator assassination. No wire plan here — the process death IS
      // the fault: member 0 (the coordinator host) is SIGKILLed mid-hunt and
      // the promoted standby must finish with the baseline's exact verified
      // winner. The fingerprint alone could pass vacuously if the kill never
      // fired, so the report must also prove a promotion actually happened.
      const long long at = flags.get_int("kill-at-epoch");
      if (at < 1) throw std::runtime_error("--kill-at-epoch must be >= 1");
      const std::string kc_args[] = {"--die-rank=0", util::strf("--die-at-epoch=%lld", at)};
      std::vector<std::string> argv_kc = base_argv;
      argv_kc.insert(argv_kc.end(), std::begin(kc_args), std::end(kc_args));
      argv_kc.push_back("--standby");
      const std::string kc_report = out_dir + "/kill-coordinator.json";
      argv_kc.push_back("--out=" + kc_report);
      std::fprintf(stderr, "cas_chaos: kill-coordinator (SIGKILL member 0 at epoch %lld) ...\n",
                   at);
      const RunOutcome rc = run_child(argv_kc, {}, out_dir + "/kill-coordinator.log", deadline);
      util::Json kc = util::Json::object();
      kc["exit_code"] = static_cast<int64_t>(rc.exit_code);
      kc["timed_out"] = rc.timed_out;
      bool run_ok = rc.exit_code == 0;
      if (run_ok) {
        const util::Json doc = util::Json::parse(read_file(kc_report));
        const util::Json fp = winner_fingerprint(doc, compare);
        run_ok = fp.dump(0) == base_fp.dump(0);
        if (!run_ok) kc["divergence"] = fp;
        const util::Json* dist = doc.find("dist");
        const util::Json* pf = dist != nullptr ? dist->find("promoted_from") : nullptr;
        if (pf == nullptr || pf->as_int() < 0) {
          run_ok = false;
          kc["error"] = "report records no promotion — the kill never fired";
        } else {
          kc["promoted_from"] = *pf;
        }
      }
      kc["ok"] = run_ok;
      std::fprintf(stderr, "cas_chaos: kill-coordinator %s (%.1fs)\n",
                   run_ok ? "OK" : "FAILED", rc.wall_seconds);
      ok = ok && run_ok;

      // Negative control: the identical assassination WITHOUT --standby must
      // fail (and fail fast, not wedge) — otherwise the green run above
      // measured an unkilled world, not a survived failover.
      std::vector<std::string> argv_ns = base_argv;
      argv_ns.insert(argv_ns.end(), std::begin(kc_args), std::end(kc_args));
      argv_ns.push_back("--out=" + out_dir + "/kill-no-standby.json");
      std::fprintf(stderr, "cas_chaos: kill-coordinator no-standby negative control ...\n");
      const RunOutcome nc = run_child(argv_ns, {}, out_dir + "/kill-no-standby.log", deadline);
      util::Json ns = util::Json::object();
      ns["exit_code"] = static_cast<int64_t>(nc.exit_code);
      ns["timed_out"] = nc.timed_out;
      const bool proved = !nc.timed_out && nc.exit_code != 0;
      ns["failed_as_required"] = proved;
      kc["no_standby"] = std::move(ns);
      summary["kill_coordinator"] = std::move(kc);
      std::fprintf(stderr, "cas_chaos: no-standby run %s\n",
                   proved ? "failed as required (failover is load-bearing)"
                          : "DID NOT FAIL — the coordinator was never actually killed");
      ok = ok && proved;
    }

    summary["ok"] = ok;
    const std::string dumped = summary.dump(2);
    write_file(out_dir + "/chaos_summary.json", dumped + "\n");
    std::printf("%s\n", dumped.c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
