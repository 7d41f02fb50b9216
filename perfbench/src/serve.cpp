// serve_mix: cas_serve in its own process (so its CPU time can be read from
// outside), driven over loopback by this process's open-loop generator.
// Every request is timed from the slot it was due in, not from when the
// sender got to it, so a stalled sender shows as latency instead of hiding
// it; how late the sender ran is reported separately.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "net/frame.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "runtime/spec.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

using cas::util::Json;

/// A cas_serve child process: spawned, awaited until it answers a ping,
/// and always stopped and reaped by the destructor.
class ServerProcess {
 public:
  ServerProcess(const Settings& s, double shed_budget, int index) {
    const std::string port_file = s.work_dir + "/serve-" + std::to_string(index) + ".port";
    const std::string log_file = s.work_dir + "/serve-" + std::to_string(index) + ".log";
    std::remove(port_file.c_str());
    std::vector<std::string> args = {s.serve_bin, "--port=0", "--port-file=" + port_file,
                                     "--cache=256", "--max-inflight=4096",
                                     "--shed-budget=" + std::to_string(shed_budget)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
    const double t0 = now_s();
    const int rc = posix_spawn(&pid_, s.serve_bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + s.serve_bin);
    }
    try {
      wait_ready(port_file, t0);
    } catch (...) {
      stop(1.0);  // never leave the child behind
      throw;
    }
  }
  ~ServerProcess() { stop(5.0); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] double ready_seconds() const { return ready_seconds_; }

  /// User + system CPU seconds the process has used so far.
  [[nodiscard]] double cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const size_t paren = text.rfind(')');
    if (paren == std::string::npos) return 0;
    std::istringstream fields(text.substr(paren + 2));
    std::string f;
    double utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::stod(f);
      if (i == 15) stime = std::stod(f);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Graceful drain (SIGTERM), then SIGKILL after `timeout`; reaps the
  /// child. True when it exited 0 on its own.
  bool stop(double timeout) {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    const double t0 = now_s();
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0) {
        pid_ = -1;
        return false;
      }
      if (now_s() - t0 > timeout) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Ready = the bound port is published and the loop answers a ping.
  void wait_ready(const std::string& port_file, double t0) {
    while (port_ == 0) {
      if (now_s() - t0 > 10) throw std::runtime_error("cas_serve did not publish its port");
      std::ifstream in(port_file);
      int p = 0;
      if (in >> p && p > 0) port_ = static_cast<uint16_t>(p);
      else std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    cas::net::BlockingClient c;
    if (!c.connect_with_retry("127.0.0.1", port_)) throw std::runtime_error(c.error());
    c.send_json(Json::parse(R"({"type":"ping"})"));
    const auto pong = c.recv_json(10);
    if (!pong || pong->at("type").as_string() != "pong")
      throw std::runtime_error("cas_serve did not answer a ping");
    ready_seconds_ = now_s() - t0;
  }

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  double ready_seconds_ = 0;
};

enum Kind { kHot = 0, kFresh = 1, kMonster = 2 };

// Mix shares: one fresh execution in every 256 requests and one priced
// rejection in every 512; the rest are hot repeats. At 8k requests/s that
// keeps the executions' walkers, the server loop and the generator within
// a 4-core host most of the time, so the fixed rate stays below the knee.
constexpr uint64_t kFreshEvery = 256;
constexpr uint64_t kMonsterEvery = 512;

/// The winner's solution of a wire report (empty when there is none).
std::vector<int> solution_of(const Json& rep) {
  std::vector<int> out;
  if (const Json* sol = rep.find("solution"); sol != nullptr && sol->is_array())
    for (const Json& v : sol->as_array()) out.push_back(static_cast<int>(v.as_int()));
  return out;
}

/// The request mix: which kind slot i carries, and its frame.
class Mix {
 public:
  Mix(const Settings& s, const MixOptions& o) : opts_(o) {
    const auto hot_seeds = seed_list(s.seed, kHotSeeds, 4);
    if (o.hot_instance.n > 0) {
      hot_.push_back(request(o.hot_instance, seed_list(s.seed, kSolveSeeds, 1)[0]));
    } else {
      for (int k = 0; k < 3; ++k) hot_.push_back(request({10 + k, 2}, hot_seeds[k]));
    }
    monster_ = request({17, 8}, hot_seeds[3]);
    fresh_base_ = SeedStream(s.seed, kFreshSeeds).next_seed() % (1u << 30) + 1;
  }

  [[nodiscard]] Kind kind(uint64_t slot) const {
    if (opts_.fresh.walkers > 0 && slot % kFreshEvery == kFreshEvery - 1) return kFresh;
    if (opts_.monster && slot % kMonsterEvery == kMonsterEvery / 2) return kMonster;
    return kHot;
  }
  [[nodiscard]] size_t hot_index(uint64_t slot) const { return slot % hot_.size(); }
  [[nodiscard]] size_t hot_count() const { return hot_.size(); }
  [[nodiscard]] const cas::runtime::SolveRequest& hot(size_t k) const { return hot_[k]; }
  [[nodiscard]] int size_of(Kind k, uint64_t slot) const {
    return k == kFresh ? opts_.fresh.n : k == kMonster ? 17 : hot_[hot_index(slot)].size;
  }

  /// The solve frame for global slot `slot`, tagged with request id `id`.
  [[nodiscard]] std::string frame(uint64_t slot, const std::string& id) const {
    cas::runtime::SolveRequest req;
    switch (kind(slot)) {
      case kFresh:
        // Fresh seeds are distinct by construction: each executes once.
        req = request(opts_.fresh, fresh_base_ + slot / kFreshEvery);
        break;
      case kMonster:
        req = monster_;
        break;
      case kHot:
        req = hot_[hot_index(slot)];
        break;
    }
    req.id = id;
    Json msg = Json::object();
    msg["type"] = "solve";
    msg["request"] = req.to_json();
    return cas::net::encode_frame(msg.dump(0));
  }

 private:
  static cas::runtime::SolveRequest request(Instance inst, uint64_t seed) {
    cas::runtime::SolveRequest req;
    req.problem = "costas";
    req.size = inst.n;
    req.strategy = "multiwalk";
    req.walkers = inst.walkers;
    req.seed = seed;
    return req;
  }

  MixOptions opts_;
  std::vector<cas::runtime::SolveRequest> hot_;
  cas::runtime::SolveRequest monster_;
  uint64_t fresh_base_ = 1;
};

/// Samples the host's CPU steal counter (/proc/stat) every 50 ms, so the
/// seconds in which the hypervisor took CPU away can be told apart.
class StealMonitor {
 public:
  StealMonitor() : thread_([this](std::stop_token st) { run(st); }) {}
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Steal seconds (summed over CPUs) between two instants, interpolated.
  [[nodiscard]] double seconds_between(double a, double b) const { return at(b) - at(a); }

 private:
  void run(const std::stop_token& st) {
    while (!st.stop_requested()) {
      const double t = now_s(), v = host_steal_s();
      {
        std::lock_guard<std::mutex> g(mu_);
        samples_.emplace_back(t, v);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  [[nodiscard]] double at(double t) const {
    std::lock_guard<std::mutex> g(mu_);
    if (samples_.empty()) return 0;
    auto it = std::lower_bound(samples_.begin(), samples_.end(), std::make_pair(t, 0.0));
    if (it == samples_.begin()) return it->second;
    if (it == samples_.end()) return samples_.back().second;
    const auto& [t1, v1] = *it;
    const auto& [t0, v0] = *(it - 1);
    return v0 + (v1 - v0) * (t - t0) / std::max(1e-9, t1 - t0);
  }

  mutable std::mutex mu_;  // guards samples_
  std::vector<std::pair<double, double>> samples_;  // (time, steal seconds)
  std::jthread thread_;  // last: stopped and joined first
};

/// One phase's tally (per generator thread, merged afterwards).
struct Tally {
  struct Window {
    Sample all;    // every answered request, seconds from its due slot
    Sample fresh;  // executed fresh solves, from the due slot
  };
  double t0 = 0;     // due time of the phase's first slot
  Sample all;        // every answered request, seconds from its due slot
  Sample fresh;      // executed fresh solves, from the due slot
  Sample hit_wire;   // cache hits, from the actual send
  Sample lag;        // actual send - due slot
  std::vector<Window> windows;  // by second of offered load
  uint64_t sent = 0, answered = 0, overload = 0, wire_errors = 0, bytes = 0;
  std::vector<std::string> failures;

  void merge(const Tally& o) {
    t0 = o.t0;
    all.xs.insert(all.xs.end(), o.all.xs.begin(), o.all.xs.end());
    fresh.xs.insert(fresh.xs.end(), o.fresh.xs.begin(), o.fresh.xs.end());
    hit_wire.xs.insert(hit_wire.xs.end(), o.hit_wire.xs.begin(), o.hit_wire.xs.end());
    lag.xs.insert(lag.xs.end(), o.lag.xs.begin(), o.lag.xs.end());
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (size_t w = 0; w < o.windows.size(); ++w) {
      windows[w].all.xs.insert(windows[w].all.xs.end(), o.windows[w].all.xs.begin(),
                               o.windows[w].all.xs.end());
      windows[w].fresh.xs.insert(windows[w].fresh.xs.end(), o.windows[w].fresh.xs.begin(),
                                 o.windows[w].fresh.xs.end());
    }
    sent += o.sent;
    answered += o.answered;
    overload += o.overload;
    wire_errors += o.wire_errors;
    bytes += o.bytes;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  }

  /// The quieter half of the phase: the one-second windows whose host CPU
  /// steal is at most the median window's, pooled. Latency on a shared host
  /// moves with its neighbours; this is the figure of the seconds in which
  /// the host gave the benchmark its CPUs.
  [[nodiscard]] Window quiet(const StealMonitor& steal, size_t* used = nullptr) const {
    std::vector<std::pair<double, size_t>> by_steal;
    for (size_t w = 0; w < windows.size(); ++w)
      by_steal.emplace_back(steal.seconds_between(t0 + static_cast<double>(w),
                                                  t0 + static_cast<double>(w + 1)),
                            w);
    std::sort(by_steal.begin(), by_steal.end());
    Window q;
    const size_t keep = (by_steal.size() + 1) / 2;
    for (size_t k = 0; k < by_steal.size(); ++k) {
      if (k >= keep && by_steal[k].first > by_steal[keep - 1].first) break;
      const Window& w = windows[by_steal[k].second];
      q.all.xs.insert(q.all.xs.end(), w.all.xs.begin(), w.all.xs.end());
      q.fresh.xs.insert(q.fresh.xs.end(), w.fresh.xs.begin(), w.fresh.xs.end());
      if (used != nullptr) *used = k + 1;
    }
    return q;
  }
};

/// Checks one report against the mix and records it.
class Checker {
 public:
  Checker(const Mix& mix, double shed_budget, std::vector<std::vector<int>> leaders)
      : mix_(mix), shed_budget_(shed_budget), leaders_(std::move(leaders)) {}

  /// Returns an empty string when the report is what the slot asked for.
  /// Overload rejections are reported through `overload`, not as failures.
  [[nodiscard]] std::string check(uint64_t slot, const Json& rep, bool& overload,
                                  bool& executed_fresh, bool& hit) const {
    overload = executed_fresh = hit = false;
    const Json* served = rep.find("served_by");
    const std::string by = served != nullptr && served->is_string() ? served->as_string() : "";
    const Json* err = rep.find("error");
    const std::string error = err != nullptr && err->is_string() ? err->as_string() : "";
    if (by == "rejected" && error.rfind("overloaded", 0) == 0) {
      overload = true;
      return {};
    }
    const Kind kind = mix_.kind(slot);
    const std::string where = "slot " + std::to_string(slot) + ": ";
    if (kind == kMonster) {
      const Json* extras = rep.find("extras");
      const Json* est = extras != nullptr ? extras->find("cost_estimate") : nullptr;
      const Json* ws = est != nullptr ? est->find("expected_walker_seconds") : nullptr;
      if (by != "rejected" || error.rfind("load shed", 0) != 0 || ws == nullptr ||
          !ws->is_number() || ws->as_number() <= shed_budget_)
        return where + "the over-budget request was not shed with its price (" + by + ")";
      return {};
    }
    if (!error.empty()) return where + error;
    const Json* solved = rep.find("solved");
    if (solved == nullptr || !solved->is_bool() || !solved->as_bool()) return where + "unsolved";
    const std::vector<int> solution = solution_of(rep);
    if (!verify_costas(solution, mix_.size_of(kind, slot)))
      return where + "reported solution is not a Costas array";
    if (kind == kFresh) {
      if (by != "executed") return where + "a fresh seed was served by " + by;
      executed_fresh = true;
      return {};
    }
    if (by != "cache" && by != "dedup") return where + "a hot repeat was served by " + by;
    if (solution != leaders_[mix_.hot_index(slot)])
      return where + "a cache hit returned a different solution than its leader";
    hit = true;
    return {};
  }

 private:
  const Mix& mix_;
  double shed_budget_;
  std::vector<std::vector<int>> leaders_;
};

/// The open-loop generator: one thread per connection, each sending the
/// slots congruent to its index at their due times and reading replies in
/// between (ppoll with sub-millisecond timeouts).
class Generator {
 public:
  Generator(const Mix& mix, const Checker& checker, Tracer& tracer, uint16_t port, int conns)
      : mix_(mix), checker_(checker), tracer_(tracer) {
    decoders_.resize(static_cast<size_t>(conns));
    for (int k = 0; k < conns; ++k) {
      clients_.emplace_back();
      if (!clients_.back().connect_with_retry("127.0.0.1", port, {}, static_cast<uint64_t>(k)))
        throw std::runtime_error("generator connect: " + clients_.back().error());
    }
  }

  /// Offer `rate` requests/s for `seconds`, global slots starting at
  /// `first_slot`. Waits up to `drain_seconds` after the last due slot.
  Tally run(const std::string& phase, uint64_t first_slot, double rate, double seconds,
            double drain_seconds, bool trace) {
    trace_ = trace && tracer_.enabled();
    const auto count = static_cast<uint64_t>(rate * seconds);
    const double t0 = now_s() + 0.002;
    std::vector<Tally> tallies(clients_.size());
    for (Tally& t : tallies) t.t0 = t0;
    {
      std::vector<std::jthread> threads;
      for (size_t k = 0; k < clients_.size(); ++k)
        threads.emplace_back([&, k] {
          try {
            drive(clients_[k].fd(), decoders_[k], k, phase, first_slot, count, t0, rate,
                  drain_seconds, tallies[k]);
          } catch (const std::exception& e) {
            tallies[k].failures.push_back(phase + ": generator: " + e.what());
          }
        });
    }
    Tally total;
    for (const Tally& t : tallies) total.merge(t);
    return total;
  }

 private:
  void drive(int fd, cas::net::FrameDecoder& decoder, size_t k, const std::string& phase,
             uint64_t first_slot, uint64_t count, double t0, double rate, double drain_seconds,
             Tally& tally) {
    const size_t stride = clients_.size();
    std::vector<double> sent_at(count / stride + 2, 0.0);
    uint64_t next = k;  // phase-local slot
    uint64_t outstanding = 0;
    std::string err, payload;
    const std::string prefix = phase + "-";
    const double last_due = t0 + static_cast<double>(count) / rate;
    for (;;) {
      double now = now_s();
      while (next < count && t0 + static_cast<double>(next) / rate <= now) {
        const uint64_t slot = first_slot + next;
        const std::string frame = mix_.frame(slot, prefix + std::to_string(slot));
        const double t_send = now_s();
        if (!cas::net::write_all(fd, frame, err)) {
          ++tally.wire_errors;
          tally.failures.push_back(phase + ": send failed: " + err);
          return;
        }
        sent_at[next / stride] = t_send;
        tally.lag.add(t_send - (t0 + static_cast<double>(next) / rate));
        ++tally.sent;
        ++outstanding;
        next += stride;
        now = now_s();
      }
      if (next >= count && outstanding == 0) return;
      if (next >= count && now > last_due + drain_seconds) return;  // backlog: left unanswered
      const double wait = next < count ? t0 + static_cast<double>(next) / rate - now : 0.01;
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(std::max(0.0, wait));
      ts.tv_nsec = static_cast<long>((std::max(0.0, wait) - static_cast<double>(ts.tv_sec)) * 1e9);
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
      if (rc <= 0) continue;
      size_t got = 0;
      const auto st = cas::net::read_chunk(fd, decoder, got);
      if (st == cas::net::IoStatus::kEof || st == cas::net::IoStatus::kError) {
        ++tally.wire_errors;
        tally.failures.push_back(phase + ": connection lost");
        return;
      }
      tally.bytes += got;
      const double t_recv = now_s();
      while (decoder.next(payload) == cas::net::FrameDecoder::Result::kFrame) {
        tally.bytes += cas::net::kFrameHeaderBytes;
        static const std::string kProgress = "\"type\":\"progress\"}";
        if (payload.size() >= kProgress.size() &&
            payload.compare(payload.size() - kProgress.size(), kProgress.size(), kProgress) == 0)
          continue;
        const Json msg = Json::parse(payload);
        const Json* rep = msg.find("report");
        if (rep == nullptr) {
          ++tally.wire_errors;
          tally.failures.push_back(phase + ": unexpected frame " + payload.substr(0, 80));
          continue;
        }
        const std::string id = rep->at("request").at("id").as_string();
        // A late answer from an earlier phase (one that left a backlog, and
        // counted it there) is a stray here.
        if (id.rfind(prefix, 0) != 0) continue;
        const uint64_t slot = std::stoull(id.substr(prefix.size()));
        if (slot < first_slot || slot - first_slot >= count) continue;
        const uint64_t local = slot - first_slot;
        const double due = t0 + static_cast<double>(local) / rate;
        --outstanding;
        ++tally.answered;
        bool overload = false, fresh = false, hit = false;
        const std::string why = checker_.check(slot, *rep, overload, fresh, hit);
        if (overload) {
          ++tally.overload;
          continue;
        }
        if (!why.empty()) {
          tally.failures.push_back(phase + ": " + why);
          continue;
        }
        const double sent = sent_at[local / stride];
        tally.all.add(t_recv - due);
        if (fresh) tally.fresh.add(t_recv - due);
        const auto window = static_cast<size_t>(static_cast<double>(local) / rate);
        if (tally.windows.size() <= window) tally.windows.resize(window + 1);
        tally.windows[window].all.add(t_recv - due);
        if (fresh) tally.windows[window].fresh.add(t_recv - due);
        if (hit) tally.hit_wire.add(t_recv - sent);
        if (trace_) {
          const uint64_t root = tracer_.record("net.request", id, due, t_recv);
          tracer_.record("net.gen_wait", id, due, sent, root);
        }
      }
    }
  }

  const Mix& mix_;
  const Checker& checker_;
  Tracer& tracer_;
  bool trace_ = false;  // record per-request spans in the current phase
  std::vector<cas::net::BlockingClient> clients_;
  std::vector<cas::net::FrameDecoder> decoders_;  // one per connection, across phases
};

/// The server's stats frame, over a connection of its own.
std::optional<Json> server_stats(uint16_t port) {
  cas::net::BlockingClient c;
  if (!c.connect_with_retry("127.0.0.1", port) || !c.send_text(R"({"type":"stats"})"))
    return std::nullopt;
  for (;;) {
    auto frame = c.recv_json(10);
    if (!frame) return std::nullopt;
    if (const Json* t = frame->find("type"); t != nullptr && t->is_string() &&
                                             t->as_string() == "stats")
      return frame;
  }
}

double json_at(const Json& j, std::initializer_list<const char*> path) {
  const Json* cur = &j;
  for (const char* key : path) {
    cur = cur->find(key);
    if (cur == nullptr) return 0;
  }
  return cur->is_number() ? cur->as_number() : 0;
}

}  // namespace

void serve_pass(const Settings& s, Tracer& tracer, const MixOptions& o, Result& out) {
  // Set-up: process start until the loop answers, five times; the last
  // server carries the workload.
  Sample setup;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < 5; ++i) {
    server.reset();
    ScopedSpan span(tracer, "net.server_start");
    server = std::make_unique<ServerProcess>(s, o.shed_budget, i);
    setup.add(server->ready_seconds());
  }

  const Mix mix(s, o);
  const int conns = static_cast<int>(std::max(1u, std::min(2u, s.nproc)));
  // Warm-up: each hot request executes once; its solution is the leader
  // every later cache hit must return.
  std::vector<std::vector<int>> leaders;
  {
    cas::net::BlockingClient c;
    if (!c.connect_with_retry("127.0.0.1", server->port())) throw std::runtime_error(c.error());
    for (size_t k = 0; k < mix.hot_count(); ++k) {
      cas::runtime::SolveRequest req = mix.hot(k);
      req.id = "warm-" + std::to_string(k);
      Json msg = Json::object();
      msg["type"] = "solve";
      msg["request"] = req.to_json();
      ScopedSpan span(tracer, "runtime.leader_execution", req.id);
      c.send_json(msg);
      std::optional<Json> rep;
      while ((rep = c.recv_json(60)) && rep->at("type").as_string() == "progress") {
      }
      std::vector<int> solution;
      if (rep && rep->find("report") != nullptr) solution = solution_of(rep->at("report"));
      ++out.attempted;
      if (!verify_costas(solution, req.size)) out.fail(req.id + ": hot leader did not solve");
      leaders.push_back(std::move(solution));
    }
  }
  const Checker checker(mix, o.shed_budget, leaders);
  Generator gen(mix, checker, tracer, server->port(), conns);

  // Fixed offered rate, well below the knee: the latency metrics.
  const StealMonitor steal;
  const double cpu0 = server->cpu_seconds();
  Tally fixed;
  {
    ScopedSpan span(tracer, "net.fixed_rate_phase");
    fixed = gen.run("fixed", 0, o.rate, o.fixed_seconds, 2.0, /*trace=*/true);
  }
  const double cpu1 = server->cpu_seconds();
  out.attempted += fixed.sent;
  for (const auto& f : fixed.failures) out.fail(f);
  for (uint64_t i = 0; i < fixed.overload; ++i) out.fail("fixed: overload rejection");
  const uint64_t unanswered = fixed.sent - std::min(fixed.sent, fixed.answered);
  for (uint64_t i = 0; i < unanswered; ++i) out.fail("fixed: request never answered");
  size_t quiet_windows = 0;
  const Tally::Window quiet = fixed.quiet(steal, &quiet_windows);
  const double stolen = steal.seconds_between(fixed.t0, fixed.t0 + o.fixed_seconds);
  std::printf("serve: fixed %.0f rps x %.0fs over %d connections: %llu sent, %llu answered; "
              "host steal %.2f%% of CPU time\n",
              o.rate, o.fixed_seconds, conns, static_cast<unsigned long long>(fixed.sent),
              static_cast<unsigned long long>(fixed.answered),
              stolen / o.fixed_seconds / s.nproc * 100);
  for (const auto& [label, w] : {std::pair<const char*, const Tally::Window*>{"all", nullptr},
                                 {"quiet", &quiet}}) {
    const Sample& all = w != nullptr ? w->all : fixed.all;
    const Sample& fresh = w != nullptr ? w->fresh : fixed.fresh;
    std::printf("serve: %s seconds%s: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms; %zu fresh executions, "
                "mean %.2f ms, tail p%.1f %.2f ms\n",
                label, w != nullptr ? (" (" + std::to_string(quiet_windows) + ")").c_str() : "",
                all.median() * 1e3, all.quantile(0.95) * 1e3, all.quantile(0.99) * 1e3,
                fresh.size(), fresh.mean() * 1e3, fresh.tail_q() * 100, fresh.tail() * 1e3);
  }
  std::printf("serve: generator lag p99 %.3f ms\n", fixed.lag.quantile(0.99) * 1e3);

  // Capacity: offered rates on a fixed grid, coarse steps (x1.2) from 1.5x
  // the fixed rate until one misses, then fine steps (x1.04) up from the
  // last rate that met the limit. A one-second step meets it when every
  // request is answered within 0.25 s of the step's last due slot (no
  // backlog growth), overload rejections stay under 1% and the p95 from
  // the due slot is under 10 ms. A saturated loop fails all three; a host
  // stall of a few tens of milliseconds fails none. max_rps is the highest
  // rate that met it.
  double max_rps = o.rate;
  if (o.ladder) {
    uint64_t slot = fixed.sent + 1;
    const double t_ladder = now_s();
    // A rate misses only when it misses twice in a row: one host stall
    // must not end the search.
    const auto attempt = [&](double rate) {
      Tally t = gen.run("ladder", slot, rate, 1.0, 0.25, /*trace=*/false);
      slot += t.sent + 1;
      for (const auto& f : t.failures) out.fail(f);
      const bool ok = t.failures.empty() && t.answered == t.sent && t.all.size() > 0 &&
                      static_cast<double>(t.overload) <= 0.01 * static_cast<double>(t.sent) &&
                      t.all.quantile(0.95) <= 0.010;
      std::printf("serve: ladder %.0f rps: p95 %.3f ms, overload %llu, unanswered %llu -> %s\n",
                  rate, t.all.quantile(0.95) * 1e3, static_cast<unsigned long long>(t.overload),
                  static_cast<unsigned long long>(t.sent - std::min(t.sent, t.answered)),
                  ok ? "meets" : "misses");
      return ok;
    };
    const auto step = [&](double rate) {
      const bool ok = attempt(rate) || attempt(rate);
      if (ok) max_rps = std::max(max_rps, rate);
      return ok;
    };
    const auto time_left = [&] { return now_s() - t_ladder + 1.3 <= o.ladder_seconds; };
    double rate = o.rate * 1.5;
    while (time_left() && step(rate)) rate *= 1.2;
    for (rate = max_rps * 1.04; time_left() && step(rate); rate *= 1.04) {
    }
  }

  // Server-side view, then a clean drain.
  const auto stats = server_stats(server->port());
  if (!stats) out.fail("no stats frame from cas_serve");
  if (!server->stop(10.0)) out.fail("cas_serve did not drain cleanly");

  out.set("setup_s", setup.median(), "s");
  out.set("tts_mean_s", quiet.fresh.mean(), "s");
  out.set("req_tail_ms", quiet.all.quantile(0.95) * 1e3, "ms");
  out.set("max_rps", max_rps, "1/s");

  const double answered = static_cast<double>(std::max<uint64_t>(1, fixed.answered));
  out.set("net.server_cpu_us_per_req", (cpu1 - cpu0) / answered * 1e6, "us");
  out.set("net.bytes_per_req", static_cast<double>(fixed.bytes) / answered, "B");
  out.set("net.generator_lag_ms", fixed.lag.quantile(0.99) * 1e3, "ms");
  if (stats) {
    const double frames_out = json_at(*stats, {"server", "frames_out"});
    const double solves = json_at(*stats, {"server", "requests"}) +
                          json_at(*stats, {"server", "shed_cost"}) +
                          json_at(*stats, {"server", "shed_overload"});
    out.set("net.frames_per_req", solves > 0 ? frames_out / solves : 0, "count");
    out.set("service.cache_p99_ms", json_at(*stats, {"service", "latency", "cache", "p99_ms"}),
            "ms");
    out.set("service.exec_p99_ms", json_at(*stats, {"service", "latency", "executed", "p99_ms"}),
            "ms");
    const double service_hit_p50_ms = json_at(*stats, {"service", "latency", "cache", "p50_ms"});
    out.set("net.wire_self_us", (fixed.hit_wire.median() * 1e3 - service_hit_p50_ms) * 1e3, "us");
    const double exec_mean_ms = json_at(*stats, {"service", "latency", "executed", "mean_ms"});
    if (fixed.fresh.size() > 0)
      out.set("service.exec_overhead_us", (fixed.fresh.mean() * 1e3 - exec_mean_ms) * 1e3, "us");
  }
}

}  // namespace perfbench
