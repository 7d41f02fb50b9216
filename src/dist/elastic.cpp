#include "dist/elastic.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/chaotic_seed.hpp"
#include "core/problem.hpp"
#include "core/stats.hpp"
#include "dist/ckpt.hpp"
#include "dist/rank_comm.hpp"
#include "dist/wire.hpp"
#include "net/retry.hpp"
#include "par/thread_pool.hpp"
#include "runtime/problems.hpp"
#include "util/histogram.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace cas::dist {

namespace {

/// A solve: (iteration, walker id). Winners rank by this pair, lowest first.
using Leader = std::pair<uint64_t, int>;

/// How far walker `id` must advance to show it cannot beat `leader` (solve
/// iteration L): through L when its id is lower, since a tie at L would
/// win, and to L - 1 when it is higher. No leader: unbounded.
uint64_t bound_of(const std::optional<Leader>& leader, int id) {
  if (!leader) return std::numeric_limits<uint64_t>::max();
  const auto [l, lid] = *leader;
  return id <= lid || l == 0 ? l : l - 1;
}

/// The leader a rebalance frame carries, if any.
std::optional<Leader> leader_of(const util::Json& frame) {
  const util::Json* l = frame.is_object() ? frame.find("leader") : nullptr;
  if (l == nullptr) return std::nullopt;
  return Leader{frame_u64(*l, "iters"), static_cast<int>(frame_u64(*l, "id"))};
}

/// How many segments past the wave its member is reporting a walker may
/// start. Two cover the wave protocol (file, epoch frame, rebalance,
/// manifest) on a loopback world; more only let walkers run off with work a
/// moving rebalance may drop.
constexpr uint64_t kLookahead = 2;

/// A walker's state where it crossed the end of segment `wave`.
struct WaveMark {
  uint64_t wave = 0;
  uint64_t iterations = 0;
  runtime::WalkSnapshot snap;  // taken only with a checkpoint dir
};

struct OwnedWalker {
  int id = -1;
  std::unique_ptr<runtime::ResumableWalk> walk;
  // Once the crew runs, the fields below are guarded by ElasticRun::mu, and
  // only the worker that marked it busy touches `walk`.
  bool solved = false;
  bool frozen = false;          // solved, capped, or cleared: it never advances again
  bool busy = false;            // a crew worker is advancing it
  bool paused = false;          // a crew stop or a new leader interrupted its segment
  uint64_t next_seg = 0;        // the segment it runs next
  uint64_t reported_iters = 0;  // its iterations at the last wave reported
  std::deque<WaveMark> marks;   // boundaries crossed but not yet reported
};

void freeze(OwnedWalker& w, bool solved) {
  w.frozen = true;
  w.solved = solved;
}

enum class Step { kReached, kSolved, kCapped, kStopped };

/// Advance a walk until its iteration count reaches `target`, it solves, it
/// stops making progress (the max_iterations cap), or `stop` is raised.
Step advance_to(runtime::ResumableWalk& walk, uint64_t target, core::StopToken stop = {}) {
  for (uint64_t at = walk.stats().iterations; at < target; at = walk.stats().iterations) {
    if (walk.advance(target - at, stop) || walk.stats().solved) return Step::kSolved;
    if (walk.stats().iterations < target && stop.stop_requested()) return Step::kStopped;
    if (walk.stats().iterations == at) return Step::kCapped;
  }
  return Step::kReached;
}

/// Read every wave-`epoch` walker file in `dir` into an id -> snapshot-JSON
/// map. Unreadable/corrupt files are skipped: their walkers fall back to
/// deterministic replay, which reproduces the same state from the seed.
std::map<int, util::Json> load_wave_snapshots(const std::string& dir, uint64_t epoch) {
  std::map<int, util::Json> out;
  for (const WalkerFileRef& ref : list_walker_files(dir)) {
    if (ref.epoch != epoch) continue;
    util::Json payload;
    try {
      payload = read_ckpt_file(ref.path);
    } catch (const CkptError&) {
      continue;
    }
    const util::Json* walkers = payload.find("walkers");
    if (walkers == nullptr || !walkers->is_array()) continue;
    for (const util::Json& w : walkers->as_array()) {
      const util::Json* id = w.find("id");
      if (id == nullptr) continue;
      try {
        out[static_cast<int>(u64_from(*id, "walker id"))] = w;
      } catch (const CkptError&) {
      }
    }
  }
  return out;
}

bool draining(const ElasticOptions& opts) {
  return opts.drain != nullptr && opts.drain->load(std::memory_order_relaxed);
}

/// Everything one epoch-loop pass needs; kept in a struct so the view
/// adoption, the crew and the report builders stay readable.
struct ElasticRun {
  RankComm* comm = nullptr;
  uint64_t hunt = 0;
  const ElasticOptions* opts = nullptr;
  const HuntDefinition* def = nullptr;  // from the hunt's first view
  par::ThreadPool* executor = nullptr;  // null: the crew fans out on jthreads

  std::vector<uint64_t> seeds;  // global walker id -> engine seed
  std::function<std::unique_ptr<runtime::ResumableWalk>(uint64_t)> factory;

  std::map<int, OwnedWalker> owned;  // reshaped only while the crew is stopped
  uint64_t executed_local = 0;     // iterations run here, through the last wave reported
  uint64_t epochs_executed = 0;    // waves this process reported
  util::WallTimer timer;

  // Checkpoint provenance.
  util::LogHistogram ckpt_write_seconds;
  uint64_t ckpt_written = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t walkers_restored = 0;
  uint64_t walkers_replayed = 0;
  int64_t manifest_epoch = -1;  // last manifest this process (the host) wrote

  // The crew: the walkers' workers for the current view, one par::fan_out
  // on a jthread of its own, so the member's thread stays free for the wave
  // protocol while they run ahead.
  std::mutex mu;                 // guards the walkers' crew fields and below
  std::condition_variable cv;    // a walker moved, the horizon or leader moved, or stop
  uint64_t reporting = 0;        // the wave the member is reporting
  std::optional<Leader> leader;  // the best solve known: its own, or the coordinator's
  std::atomic<uint64_t> leader_gen{0};  // bumped with `leader`: interrupts in-flight segments
  std::atomic<bool> crew_stop{false};  // also interrupts in-flight segments
  std::exception_ptr crew_error;
  uint64_t run_ahead_segments = 0;  // started before the previous wave's rebalance
  double horizon_wait_seconds = 0;  // worker time blocked on kLookahead
  std::jthread crew;

  ElasticRun() = default;
  ElasticRun(const ElasticRun&) = delete;  // the crew holds `this`
  ElasticRun& operator=(const ElasticRun&) = delete;
  ~ElasticRun() {
    if (comm != nullptr) comm->on_leader(hunt, nullptr);
    stop_crew();
  }

  [[nodiscard]] uint64_t elapsed_micros() const {
    return def->elapsed_micros + static_cast<uint64_t>(timer.seconds() * 1e6);
  }
  [[nodiscard]] bool out_of_time() const {
    return def->request.timeout_seconds > 0 &&
           static_cast<double>(elapsed_micros()) * 1e-6 >= def->request.timeout_seconds;
  }

  /// Tell the coordinator walker `id` solved; sent before the walker
  /// freezes, so it precedes any report that counts the walker stopped.
  /// A failed communicator is left to the member's thread: it meets the
  /// failure at its next frame and recovers (fault injection included),
  /// and every recovery re-announces the solves it re-adopts.
  void announce(int id, const runtime::ResumableWalk& walk) {
    try {
      comm->send_control(make_solved(comm->member(), hunt, static_cast<uint64_t>(id),
                                     walk.stats().iterations, run_stats_to_json(walk.stats())));
    } catch (const CommError&) {
    }
  }

  /// Adopt (iters, id) if it beats the leader this member knows: freeze the
  /// idle walkers it clears and interrupt the running ones, which stop at
  /// their next probe and resume against their new bound. Caller holds mu.
  void note_leader(uint64_t iters, int id) {
    if (leader && *leader <= Leader{iters, id}) return;
    leader = Leader{iters, id};
    leader_gen.fetch_add(1, std::memory_order_relaxed);
    for (auto& [wid, w] : owned)
      if (!w.frozen && !w.busy && w.walk->stats().iterations >= bound_of(leader, wid))
        freeze(w, false);
    cv.notify_all();
  }

  /// Adopt the walker slice of (rank, ranks) at epoch boundary `boundary`,
  /// with the crew stopped. Kept walkers keep any run-ahead; inherited
  /// walkers restore from wave `cut` files when available, else replay,
  /// and catch up to the boundary or their bound, whichever comes first.
  void adopt_view(int rank, int ranks, uint64_t boundary, int64_t cut) {
    const int walkers = def->request.walkers;
    const int share = share_of(walkers, ranks, rank);
    const int offset = offset_of(walkers, ranks, rank);
    {
      std::scoped_lock lock(mu);  // the leader hook walks `owned`
      for (auto it = owned.begin(); it != owned.end();)
        it = (it->first < offset || it->first >= offset + share) ? owned.erase(it) : std::next(it);
    }

    std::map<int, util::Json> snapshots;
    bool snapshots_loaded = false;
    for (int id = offset; id < offset + share; ++id) {
      if (owned.count(id) != 0) continue;
      if (!snapshots_loaded && !opts->ckpt_dir.empty() && cut >= 0) {
        snapshots = load_wave_snapshots(opts->ckpt_dir, static_cast<uint64_t>(cut));
        snapshots_loaded = true;
      }
      OwnedWalker w;
      w.id = id;
      w.walk = factory(seeds[static_cast<size_t>(id)]);
      bool restored = false;
      if (const auto sit = snapshots.find(id); sit != snapshots.end()) {
        try {
          w.walk->restore(walk_snapshot_from_json(sit->second));
          restored = true;
          ++walkers_restored;
        } catch (const std::exception&) {
          restored = false;  // stale snapshot: replay below
        }
      }
      if (!restored) {
        w.walk->begin();
        if (boundary > 0) ++walkers_replayed;
      }
      // Catch up (zero-cost for a fresh restore from cut == boundary - 1; a
      // full deterministic replay otherwise). A solve is announced again:
      // the coordinator keeps the minimum, so a repeat is free.
      const uint64_t before = w.walk->stats().iterations;
      const uint64_t bound = [&] {
        std::scoped_lock lock(mu);
        return bound_of(leader, id);
      }();
      const Step step = w.walk->stats().solved
                            ? Step::kSolved
                            : advance_to(*w.walk, std::min(boundary * def->ckpt_iters, bound));
      const uint64_t iters = w.walk->stats().iterations;
      if (step == Step::kSolved) announce(id, *w.walk);
      executed_local += iters - before;
      w.next_seg = boundary;
      w.reported_iters = iters;
      std::scoped_lock lock(mu);
      if (step == Step::kSolved) note_leader(iters, id);
      if (step != Step::kReached || iters >= bound_of(leader, id)) freeze(w, step == Step::kSolved);
      owned.emplace(id, std::move(w));
    }
  }

  /// Apply a view (the first, or a rebalance's) that opens wave `epoch`.
  /// One that keeps this member's slice only moves the horizon; one that
  /// moves walkers stops the crew, adopts the view and restarts it.
  void apply_view(int rank, int ranks, uint64_t epoch, int64_t cut, std::optional<Leader> known) {
    if (known) {
      std::scoped_lock lock(mu);
      note_leader(known->first, known->second);
    }
    const int share = share_of(def->request.walkers, ranks, rank);
    const int offset = offset_of(def->request.walkers, ranks, rank);
    const bool kept = static_cast<int>(owned.size()) == share &&
                      (share == 0 || (owned.begin()->first == offset &&
                                      owned.rbegin()->first == offset + share - 1));
    if (!kept) {
      stop_crew();
      adopt_view(rank, ranks, epoch, cut);
    }
    {
      std::scoped_lock lock(mu);
      reporting = epoch;
    }
    cv.notify_all();
    if (!kept) start_crew();
  }

  /// Launch the crew for the current view: par::fan_out on ctx.executor
  /// (jthreads when null), at most num_threads (default: one per core)
  /// workers, never more than the walkers that can still advance.
  void start_crew() {
    int live = 0;
    {
      std::scoped_lock lock(mu);
      for (const auto& [id, w] : owned) live += w.frozen ? 0 : 1;
    }
    if (live == 0) return;
    const unsigned cap = def->request.num_threads != 0 ? def->request.num_threads
                                                       : std::thread::hardware_concurrency();
    crew = std::jthread([this, live, cap] {
      try {
        // Each worker runs one crew loop to its end; the indices left over
        // then find the crew finished.
        par::fan_out(live, cap, executor, [this](int) {
          try {
            crew_loop();
          } catch (...) {
            fail_crew(std::current_exception());
          }
        });
      } catch (...) {
        fail_crew(std::current_exception());
      }
    });
  }

  /// Record the crew's first failure and stop it; await_wave rethrows it
  /// on the member's thread.
  void fail_crew(std::exception_ptr e) {
    {
      std::scoped_lock lock(mu);
      if (crew_error == nullptr) crew_error = std::move(e);
      crew_stop = true;
    }
    cv.notify_all();
  }

  void stop_crew() {
    {
      std::scoped_lock lock(mu);
      crew_stop = true;
    }
    cv.notify_all();
    if (crew.joinable()) crew.join();
    crew_stop = false;
  }

  /// One crew worker: take the lowest (segment, walker id) work item within
  /// kLookahead of the wave being reported, run it unlocked up to the
  /// segment's end or the walker's bound, and record where the walker
  /// stopped — a mark at the boundary (snapshotted in place when
  /// checkpointing), a freeze, or a pause. A solve is announced at once.
  /// Returns once the crew stops or every walker froze.
  void crew_loop() {
    std::unique_lock lock(mu);
    for (;;) {
      OwnedWalker* next = nullptr;
      bool work_left = false;
      bool held = false;  // a free walker waits on the lookahead
      for (auto& [id, w] : owned) {
        if (w.frozen) continue;
        work_left = true;
        if (w.busy) continue;
        if (w.next_seg > reporting + kLookahead)
          held = true;
        else if (next == nullptr || w.next_seg < next->next_seg)
          next = &w;
      }
      if (crew_stop || !work_left) return;
      if (next == nullptr) {
        const util::WallTimer waited;
        cv.wait(lock);
        if (held) horizon_wait_seconds += waited.seconds();
        continue;
      }
      const uint64_t seg = next->next_seg;
      const uint64_t seg_end = (seg + 1) * def->ckpt_iters;
      const uint64_t target = std::min(seg_end, bound_of(leader, next->id));
      const uint64_t gen = leader_gen.load(std::memory_order_relaxed);
      if (!next->paused && seg > reporting) ++run_ahead_segments;
      next->busy = true;
      next->paused = false;
      lock.unlock();
      const std::function<bool()> halted = [this, gen] {
        return crew_stop.load(std::memory_order_relaxed) ||
               leader_gen.load(std::memory_order_relaxed) != gen;
      };
      runtime::ResumableWalk& walk = *next->walk;
      const Step step = advance_to(walk, target, core::StopToken(&halted));
      const uint64_t iters = walk.stats().iterations;
      const bool crossed = step == Step::kReached && iters == seg_end;
      WaveMark mark{seg, iters, {}};
      if (crossed && !opts->ckpt_dir.empty()) mark.snap = walk.snapshot();
      if (step == Step::kSolved) announce(next->id, walk);
      lock.lock();
      next->busy = false;
      if (crossed) {
        next->marks.push_back(std::move(mark));
        ++next->next_seg;
      }
      if (step == Step::kStopped) next->paused = true;
      if (step == Step::kSolved) note_leader(iters, next->id);
      if (step == Step::kSolved || step == Step::kCapped)
        freeze(*next, step == Step::kSolved);
      else if (iters >= bound_of(leader, next->id))
        freeze(*next, false);  // cleared: it cannot beat the leader
      cv.notify_all();
    }
  }

  /// Every owned walker's state at the end of one wave, as reported.
  struct Wave {
    uint64_t executed = 0;     // iterations the owned walkers ran to reach it
    uint64_t owned_iters = 0;  // their iteration counts at its end
    bool settled = false;      // every walker stopped for good, against a leader in budget
    bool decides = false;      // the leader solved by its end: its reports decide the hunt
    uint64_t ahead = 0;        // settled: iterations the walkers ran past it
    std::vector<std::pair<int, runtime::WalkSnapshot>> snaps;  // with a checkpoint dir
    std::vector<std::pair<int, uint64_t>> solved;   // (id, iteration): solves by its end
    std::vector<std::pair<int, uint64_t>> stopped;  // settled: (id, iterations) at the stop
  };

  /// Block until every owned walker has crossed the end of segment `wave`
  /// or froze, and take its state there; the crew runs on. A mark wins
  /// over a freeze: a walker that solved ahead is unsolved at `wave`. A
  /// mark past the walker's bound waits for the walker to freeze, so a
  /// member that knows the leader reports settled as soon as it can.
  Wave await_wave(uint64_t wave) {
    const auto marked = [wave](const OwnedWalker& w) {
      return !w.marks.empty() && w.marks.front().wave == wave;
    };
    std::unique_lock lock(mu);
    cv.wait(lock, [&] {
      if (crew_error != nullptr) return true;
      return std::all_of(owned.begin(), owned.end(), [&](const auto& kv) {
        const OwnedWalker& w = kv.second;
        return w.frozen || (marked(w) && w.marks.front().iterations < bound_of(leader, kv.first));
      });
    });
    if (crew_error != nullptr) std::rethrow_exception(crew_error);
    Wave out;
    // A leader past the world's last boundary cannot end the hunt: the
    // world runs out of epochs first, and names no winner.
    out.settled = std::all_of(owned.begin(), owned.end(),
                              [](const auto& kv) { return kv.second.frozen; }) &&
                  (!leader || def->max_epochs == 0 ||
                   leader->first <= def->max_epochs * def->ckpt_iters);
    const bool ckpt = !opts->ckpt_dir.empty();
    const uint64_t wave_end = (wave + 1) * def->ckpt_iters;
    out.decides = leader && leader->first <= wave_end;
    for (auto& [id, w] : owned) {
      uint64_t iters = 0;
      if (marked(w)) {
        iters = w.marks.front().iterations;
        if (ckpt) out.snaps.emplace_back(id, std::move(w.marks.front().snap));
        w.marks.pop_front();
      } else {
        iters = w.walk->stats().iterations;  // frozen, so no worker touches it
        if (ckpt) out.snaps.emplace_back(id, w.walk->snapshot());
      }
      if (w.solved && w.walk->stats().iterations <= wave_end)
        out.solved.emplace_back(id, w.walk->stats().iterations);
      if (out.settled) {
        out.ahead += w.walk->stats().iterations - iters;
        out.stopped.emplace_back(id, w.walk->stats().iterations);
      }
      out.executed += iters - w.reported_iters;
      out.owned_iters += iters;
      w.reported_iters = iters;
    }
    return out;
  }

  /// Write this member's wave-`epoch` walker file and tell the coordinator.
  void write_wave_ckpt(uint64_t epoch, const Wave& wave) {
    util::Json payload = util::Json::object();
    payload["v"] = kCkptVersion;
    payload["epoch"] = wire_u64(epoch);
    payload["member"] = comm->member();
    util::Json walkers = util::Json::array();
    for (const auto& [id, s] : wave.snaps) {
      util::Json snap = walk_snapshot_to_json(s);
      snap["id"] = wire_u64(static_cast<uint64_t>(id));
      walkers.push_back(std::move(snap));
    }
    payload["walkers"] = std::move(walkers);

    util::WallTimer write_timer;
    const std::string path = opts->ckpt_dir + "/" + walker_file_name(comm->member(), epoch);
    const size_t bytes = write_ckpt_file(path, payload);
    const double seconds = write_timer.seconds();
    ckpt_write_seconds.add(seconds);
    ++ckpt_written;
    ckpt_bytes += bytes;
    comm->send_control(wire_make_ckpt(comm->member(), epoch, bytes, seconds));
  }

  /// Member 0: the coordinator announced a new consistent cut — persist the
  /// manifest and garbage-collect waves nobody can need any more.
  void write_manifest(int64_t cut, int ranks, const util::Json& members) {
    util::Json m = util::Json::object();
    m["v"] = kCkptVersion;
    m["epoch"] = wire_u64(static_cast<uint64_t>(cut));
    m["seed"] = wire_u64(def->request.seed);
    m["walkers"] = def->request.walkers;
    m["ranks"] = ranks;
    m["request"] = def->request.canonical_json();
    m["elapsed_micros"] = wire_u64(elapsed_micros());
    m["members"] = members;
    util::Json files = util::Json::array();
    for (const WalkerFileRef& ref : list_walker_files(opts->ckpt_dir))
      if (ref.epoch == static_cast<uint64_t>(cut))
        files.push_back(walker_file_name(ref.member, ref.epoch));
    m["files"] = std::move(files);
    write_manifest_file(opts->ckpt_dir, m);
    manifest_epoch = cut;
    if (cut >= 1) prune_walker_files(opts->ckpt_dir, static_cast<uint64_t>(cut - 1));
  }

  [[nodiscard]] util::Json ckpt_extras() const {
    util::Json c = util::Json::object();
    c["enabled"] = !opts->ckpt_dir.empty();
    if (!opts->ckpt_dir.empty()) c["dir"] = opts->ckpt_dir;
    c["ckpt_iters"] = static_cast<int64_t>(def->ckpt_iters);
    c["written"] = static_cast<int64_t>(ckpt_written);
    c["bytes"] = static_cast<int64_t>(ckpt_bytes);
    c["restored"] = static_cast<int64_t>(walkers_restored);
    c["replayed"] = static_cast<int64_t>(walkers_replayed);
    c["resumed_from_epoch"] = def->resumed_epoch;
    c["manifest_epoch"] = manifest_epoch;
    if (def->resumed_epoch >= 0) c["resume_fell_back"] = def->resume_fell_back;
    if (ckpt_write_seconds.count() > 0) {
      util::Json lat = util::Json::object();
      lat["count"] = static_cast<int64_t>(ckpt_write_seconds.count());
      lat["p50_seconds"] = ckpt_write_seconds.percentile(0.50);
      lat["p90_seconds"] = ckpt_write_seconds.percentile(0.90);
      lat["p99_seconds"] = ckpt_write_seconds.percentile(0.99);
      lat["max_seconds"] = ckpt_write_seconds.max();
      c["write_latency"] = std::move(lat);
    }
    return c;
  }

 private:
  // make_ckpt carries seconds as micros on the wire.
  static util::Json wire_make_ckpt(int member, uint64_t epoch, size_t bytes, double seconds) {
    return make_ckpt(member, epoch, static_cast<uint64_t>(bytes),
                     static_cast<uint64_t>(seconds * 1e6));
  }
};

/// The outcome fields every member that saw the final rebalance can fill:
/// winner identity, stats, and the independent check.
void fill_outcome(runtime::SolveReport& report, const util::Json& final_frame) {
  const util::Json* winner = final_frame.find("winner");
  if (winner == nullptr || !winner->is_object()) return;
  report.solved = true;
  report.winner = static_cast<int>(frame_u64(*winner, "id"));
  if (const util::Json* stats = winner->find("stats"); stats != nullptr)
    report.winner_stats = run_stats_from_json(*stats);
  const auto& entry = runtime::entry_of(report.request);
  if (entry.check != nullptr && !report.winner_stats.solution.empty()) {
    report.checked = true;
    report.check_passed = entry.check(report.winner_stats.solution);
  }
}

/// A final member summary's share of the hunt's iterations: a settled
/// member's walkers each up to their bound against the final leader,
/// anyone else's at the final wave's end.
uint64_t counted_iters(const util::Json& summary, const std::optional<Leader>& leader) {
  const util::Json* stopped = summary.find("stopped");
  if (stopped == nullptr || !stopped->is_array()) return frame_u64(summary, "owned_iters");
  uint64_t total = 0;
  for (const util::Json& w : stopped->as_array())
    total += std::min(frame_u64(w, "iters"),
                      bound_of(leader, static_cast<int>(frame_u64(w, "id"))));
  return total;
}

struct WorldClosed {};  // the host closed the world: no view comes any more

/// The next rebalance frame of a hunt in [lo, hi]; frames of other hunts
/// are dropped. Throws WorldClosed once the host closed the world, and
/// CommError when no frame arrives within the timeout.
util::Json await_view(RankComm& comm, uint64_t lo, uint64_t hi, double timeout_seconds) {
  for (;;) {
    std::optional<util::Json> ctl = comm.take_control(timeout_seconds);
    if (!ctl)
      throw CommError(util::strf("elastic: no rebalance for hunt %llu within %.0fs",
                                 static_cast<unsigned long long>(lo), timeout_seconds));
    if (frame_type(*ctl) == "close") throw WorldClosed{};
    const uint64_t hunt = frame_u64(*ctl, "hunt");
    if (hunt >= lo && hunt <= hi) return std::move(*ctl);
  }
}

/// Host: check `req` once, adopt a resume's manifest or draw a stochastic
/// seed, and open it as hunt `index`. Throws before opening anything.
void open_for(World& world, const runtime::SolveRequest& req, const ElasticOptions& opts,
              uint64_t index, runtime::SolveReport& report) {
  runtime::SolveRequest resolved = runtime::resolve(req);
  report.request = resolved;
  if (resolved.strategy != "multiwalk")
    throw std::invalid_argument(
        "elastic worlds support only the multiwalk strategy (independent walkers are what "
        "makes checkpointed ownership transferable); requested: " +
        resolved.strategy);
  if (opts.ckpt_iters == 0) throw std::invalid_argument("elastic: ckpt_iters must be >= 1");
  if (!opts.ckpt_dir.empty() && index > 1)
    throw std::invalid_argument(
        "elastic: a checkpoint directory belongs to a World's first hunt (this World already "
        "ran one)");
  if (opts.resume && opts.ckpt_dir.empty())
    throw std::invalid_argument("elastic: --resume needs --ckpt-dir");
  if (!runtime::entry_of(resolved).make_resumable_walker)
    throw std::invalid_argument("elastic: problem '" + resolved.problem +
                                "' has no resumable walker factory");
  HuntDefinition def;
  def.ckpt_iters = opts.ckpt_iters;
  def.max_epochs = opts.max_epochs;
  if (opts.resume) {
    // The manifest must describe this request, up to seed, num_threads and
    // timeout_seconds — execution-shape fields an operator may change.
    const auto identity = [](runtime::SolveRequest r) {
      r.id.clear();
      r.seed = r.num_threads = 0;
      r.timeout_seconds = 0.0;
      return r.canonical_key();
    };
    const util::Json manifest = read_manifest_file(opts.ckpt_dir, &def.resume_fell_back);
    const runtime::SolveRequest stored = runtime::SolveRequest::from_json(manifest.at("request"));
    if (identity(stored) != identity(resolved))
      throw CkptError(
          "resume: the checkpoint manifest describes a different request "
          "(seed/threads/timeout may differ; problem, size, configs, and walkers may not)");
    resolved.seed = u64_from(manifest.at("seed"), "manifest seed");
    def.elapsed_micros = u64_from(manifest.at("elapsed_micros"), "manifest elapsed_micros");
    const uint64_t manifest_wave = u64_from(manifest.at("epoch"), "manifest epoch");
    if (manifest_wave >= static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
      throw CkptError("resume: the manifest's epoch is out of range");
    def.resumed_epoch = static_cast<int64_t>(manifest_wave);
  } else if (resolved.seed == 0) {
    // Stochastic request: the host draws, everyone adopts it from the
    // opening (the report then echoes the drawn seed, keeping the run
    // replayable).
    resolved.seed = runtime::draw_seed();
  }
  def.request = std::move(resolved);
  world.open_hunt(index, std::move(def));
}

/// Run hunt `want` — or, when this member joins late, the first hunt after
/// it that admits this member — from the views the coordinator sends: the
/// first builds the walkers from the hunt's definition. Throws what
/// resolve() throws for a request a member cannot build (definition_from).
void run_hunt(World& world, const runtime::StrategyContext& ctx, const ElasticOptions& opts,
              uint64_t want, runtime::SolveReport& report) {
  RankComm& comm = world.comm();
  const util::Json first_view =
      await_view(comm, want, std::numeric_limits<uint64_t>::max(), opts.control_timeout_seconds);
  world.note_view(first_view);
  const HuntDefinition def = definition_from(first_view);
  if (def.ckpt_iters == 0) throw std::invalid_argument("elastic: the hunt's ckpt_iters is 0");
  const runtime::SolveRequest& resolved = def.request;
  report.request = resolved;
  if (frame_bool(first_view, "final", false)) {
    // A hunt it came too late for: it learns the outcome.
    fill_outcome(report, first_view);
    report.extras = util::Json::object();
    return;
  }
  int my_rank = frame_int(first_view, "your_rank");
  int ranks = frame_int(first_view, "ranks");
  uint64_t epoch = frame_u64(first_view, "epoch");  // wave index the next segment executes
  int64_t cut = first_view.at("ckpt_epoch").as_int();  // latest consistent checkpoint wave
  comm.set_view(my_rank, ranks);

  ElasticRun run;
  run.opts = &opts;
  run.def = &def;
  run.executor = ctx.executor;
  run.manifest_epoch = def.resumed_epoch;
  run.comm = &comm;
  run.hunt = frame_u64(first_view, "hunt");
  comm.on_leader(run.hunt, [&run](uint64_t iters, int id) {
    std::scoped_lock lock(run.mu);
    run.note_leader(iters, id);
  });
  run.seeds = core::ChaoticSeedSequence::generate(resolved.seed,
                                                  static_cast<size_t>(resolved.walkers));
  run.factory = runtime::entry_of(resolved).make_resumable_walker(resolved);
  run.apply_view(my_rank, ranks, epoch, cut, leader_of(first_view));

  const uint64_t start_epoch = epoch;
  bool leaving = false;
  bool preempted = false;
  util::Json final_frame;

  for (;;) {
    bool done = false;
    bool halt = false;

    // 1. Wait until every owned walker has finished segment `epoch` or
    // stopped for good; the crew runs on ahead while this thread reports.
    const ElasticRun::Wave wave = run.await_wave(epoch);
    run.executed_local += wave.executed;
    ++run.epochs_executed;
    if (def.max_epochs > 0 && epoch + 1 >= def.max_epochs) {
      done = true;
      preempted = true;
    }
    if (run.out_of_time()) halt = true;
    if (draining(opts)) {
      if (world.is_host()) {
        halt = true;
      } else if (!leaving) {
        comm.send_control(make_leave(comm.member()));
        leaving = true;
      }
    }

    // 2. Durable cut for this wave — written before the epoch frame, so a
    // ckpt_epoch announcement implies every wave file is on disk. A settled
    // member skips it when its leader solved by the wave's end, unless it
    // halts or runs out of epochs here: the wave's reports then decide the
    // hunt, so the world names the winner and nothing is left to resume.
    if (!opts.ckpt_dir.empty() && (!wave.settled || !wave.decides || done || halt))
      run.write_wave_ckpt(epoch, wave);

    // 3. Fault injection: die like SIGKILL, after the checkpoint, before
    // the epoch report — the worst-timed crash the protocol must absorb.
    if (opts.die_at_epoch > 0 && run.epochs_executed >= opts.die_at_epoch) {
      if (opts.die_sigkill) ::raise(SIGKILL);  // the forked-rank coordinator kill
      if (world.is_host())
        world.crash();  // take the hosted coordinator down with the member
      else
        comm.hard_kill();
      report.error = util::strf("elastic: fault injection hard-killed member %d at epoch %llu",
                                comm.member(), static_cast<unsigned long long>(epoch));
      return;
    }
    // 3b. Fault injection: mid-epoch partition — sever the transport and
    // let the epoch report below fail, driving solve_elastic's rejoin.
    if (opts.drop_conn_at_epoch > 0 && run.epochs_executed >= opts.drop_conn_at_epoch)
      comm.inject_disconnect();

    // 4. Report the epoch. `solved` lists every owned walker solved by the
    // end of segment `epoch` (its solved frame went out when it solved);
    // a settled report adds where each walker stopped, which the host
    // counts against the final leader.
    const auto id_iters = [](const std::vector<std::pair<int, uint64_t>>& list) {
      util::Json out = util::Json::array();
      for (const auto& [id, iters] : list) {
        util::Json e = util::Json::object();
        e["id"] = wire_u64(static_cast<uint64_t>(id));
        e["iters"] = wire_u64(iters);
        out.push_back(std::move(e));
      }
      return out;
    };
    util::Json ef = make_epoch_base(comm.member(), run.hunt, epoch);
    ef["done"] = done;
    ef["settled"] = wave.settled;
    ef["halt"] = halt;
    ef["executed"] = wire_u64(run.executed_local + wave.ahead);
    ef["owned_iters"] = wire_u64(wave.owned_iters);
    ef["walkers"] = static_cast<int64_t>(run.owned.size());
    ef["wall_micros"] = wire_u64(run.elapsed_micros());
    ef["solved"] = id_iters(wave.solved);
    if (wave.settled) ef["stopped"] = id_iters(wave.stopped);
    comm.send_control(ef);

    // 5. Wait for the coordinator to complete the wave.
    const util::Json rb = await_view(comm, run.hunt, run.hunt, opts.control_timeout_seconds);
    world.note_view(rb);
    cut = rb.at("ckpt_epoch").as_int();
    ranks = frame_int(rb, "ranks");

    // The host persists the manifest whenever the consistent cut advanced
    // (the role migrates with a promotion, so --resume survives failover).
    if (world.is_host() && !opts.ckpt_dir.empty() && cut > run.manifest_epoch) {
      const util::Json* members = rb.find("members");
      run.write_manifest(cut, ranks, members != nullptr ? *members : util::Json::array());
    }

    if (frame_bool(rb, "final", false)) {
      final_frame = rb;
      run.stop_crew();
      break;
    }

    my_rank = frame_int(rb, "your_rank");
    epoch = frame_u64(rb, "epoch");
    if (my_rank < 0) {
      // Retired: the coordinator rebalanced our walkers away after our
      // leave. Report participation and bow out.
      run.stop_crew();
      break;
    }
    comm.set_view(my_rank, ranks);
    run.apply_view(my_rank, ranks, epoch, cut, leader_of(rb));
  }

  // --- build the report ----------------------------------------------------
  report.wall_seconds = static_cast<double>(run.elapsed_micros()) * 1e-6;
  report.extras = util::Json::object();
  util::Json d = util::Json::object();
  d["hunt"] = static_cast<int64_t>(run.hunt);
  d["member"] = comm.member();
  d["run_ahead_segments"] = static_cast<int64_t>(run.run_ahead_segments);
  d["horizon_wait_seconds"] = run.horizon_wait_seconds;
  d["ckpt"] = run.ckpt_extras();
  d["comm"] = world.stats_json();
  if (final_frame.is_null()) {  // retired
    d["left"] = true;
    d["epochs"] = static_cast<int64_t>(run.epochs_executed);
    d["executed"] = static_cast<int64_t>(run.executed_local);
    report.extras["dist"] = std::move(d);
    return;
  }
  fill_outcome(report, final_frame);
  d["strategy"] = resolved.strategy;
  d["ranks"] = ranks;
  d["rank"] = my_rank;
  d["epochs"] = static_cast<int64_t>(frame_u64(final_frame, "epoch") + 1);
  d["start_epoch"] = static_cast<int64_t>(start_epoch);
  d["preempted"] = preempted;
  if (const util::Json* ev = final_frame.find("evicted"); ev != nullptr) d["evicted"] = *ev;

  const std::optional<Leader> final_leader = leader_of(final_frame);
  if (final_leader) {
    util::Json l = util::Json::object();
    l["id"] = final_leader->second;
    l["iters"] = static_cast<int64_t>(final_leader->first);
    d["leader"] = std::move(l);
  }
  if (world.is_host()) {
    // Merge the per-member summaries the coordinator gathered. Every live
    // walker is owned by exactly one final active member, so summing their
    // counts counts each walker's logical work once — inherited pre-crash
    // iterations included, replayed duplicates excluded. A settled member's
    // walker counts up to its bound against the final leader.
    uint64_t total_iterations = 0;
    util::Json rows = util::Json::array();
    if (const util::Json* summaries = final_frame.find("summaries");
        summaries != nullptr && summaries->is_array()) {
      for (const util::Json& s : summaries->as_array()) {
        const bool evicted = frame_bool(s, "evicted", false);
        const bool left = frame_bool(s, "left", false);
        util::Json row = util::Json::object();
        row["member"] = frame_int(s, "rank");  // epoch frames carry the member id as rank
        row["evicted"] = evicted;
        row["left"] = left;
        row["last_epoch"] = static_cast<int64_t>(frame_u64(s, "epoch"));
        row["walkers"] = frame_int(s, "walkers");
        row["executed"] = static_cast<int64_t>(frame_u64(s, "executed"));
        row["owned_iters"] = static_cast<int64_t>(frame_u64(s, "owned_iters"));
        row["wall_seconds"] = static_cast<double>(frame_u64(s, "wall_micros")) * 1e-6;
        if (const util::Json* sv = s.find("solved"); sv != nullptr && sv->is_array())
          row["solved"] = static_cast<int64_t>(sv->as_array().size());
        if (!evicted && !left) total_iterations += counted_iters(s, final_leader);
        rows.push_back(std::move(row));
      }
    }
    report.total_iterations = total_iterations;
    report.walkers_run = resolved.walkers;
    d["members"] = std::move(rows);
  }
  report.extras["dist"] = std::move(d);
}

/// solve_elastic, and follow's step with a null `req`. nullopt (a null `req`
/// only): the host closed the world.
std::optional<runtime::SolveReport> next_hunt(World& world, const runtime::SolveRequest* req,
                                              const runtime::StrategyContext& ctx,
                                              const ElasticOptions& opts) {
  runtime::SolveReport report;
  if (req != nullptr) report.request = *req;
  // This call runs the World's next hunt; a late joiner's first may come
  // later still.
  const uint64_t want = world.hunt() + 1;
  // A member whose communicator fails mid-hunt recovers and keeps hunting.
  // Which recovery depends on what actually died:
  //   - The coordinator still answers its port: only OUR connection broke.
  //     Re-join as a late joiner — the old identity is evicted at the wave
  //     boundary and the walkers come back with the next rebalance (or,
  //     the hunt over, the join is answered with its outcome).
  //   - The coordinator is gone and WE are the elected standby: promote —
  //     adopt the replicated wave machine and host the reconnect window.
  //   - The coordinator is gone and someone else is standby: dial the
  //     standby's pre-bound listener with our stable member id (a refusal
  //     is the double-failure case and aborts immediately).
  // The winner rule is membership- and timing-invariant and the rewound
  // wave replays idempotently, so no recovery can change the verified
  // outcome.
  ElasticOptions eopts = opts;
  int rejoins = 0;
  int failovers = 0;
  net::Backoff backoff({}, 0xE1A5u + static_cast<uint64_t>(world.comm().member() + 1));
  for (;;) {
    report.error.clear();
    try {
      // The host opens the hunt; a member promoted before it saw the hunt
      // open opens one for its own request, if it has one.
      if (world.is_host() && world.hunt() < want) {
        if (req == nullptr)
          throw std::runtime_error(
              "promoted to host between hunts, with no request to open: requests the dead "
              "host had not opened did not run");
        open_for(world, *req, opts, want, report);
      }
      // A retry stays in the hunt the first attempt saw open.
      run_hunt(world, ctx, eopts, std::max(want, world.hunt()), report);
    } catch (const WorldClosed&) {
      if (req == nullptr) return std::nullopt;
      report.error = "elastic: the host closed the world";
    } catch (const CommError& e) {
      if (world.is_host() || !net::retry_enabled() || backoff.exhausted()) {
        report.error = util::strf("elastic (member %d): %s", world.comm().member(), e.what());
        break;
      }
      eopts.drop_conn_at_epoch = 0;  // the injected partition fires once
      eopts.die_at_epoch = 0;
      backoff.sleep();
      try {
        bool rejoined = false;
        if (world.coordinator_alive()) {
          try {
            world.rejoin();
            rejoined = true;
            ++rejoins;
          } catch (const CommError&) {
            if (world.coordinator_alive()) throw;  // refused by a live world
          }  // else the coordinator died since the probe: fail over
        }
        if (!rejoined) {
          if (world.failover_member() < 0)
            throw CommError(
                "the coordinator died and no standby was ever elected "
                "(launch with --standby to make the host's death survivable)");
          if (world.failover_member() == world.comm().member())
            world.promote();
          else
            world.reconnect();
          ++failovers;
        }
      } catch (const std::exception& je) {
        report.error = util::strf("elastic (member %d): recovery failed: %s (after: %s)",
                                  world.comm().member(), je.what(), e.what());
        break;
      }
      continue;
    } catch (const std::exception& e) {
      report.error = util::strf("elastic (member %d): %s", world.comm().member(), e.what());
    }
    break;
  }
  if (rejoins > 0 || failovers > 0 || world.promoted_from() >= 0) {
    if (!report.extras.is_object()) report.extras = util::Json::object();
    if (!report.extras["dist"].is_object()) report.extras["dist"] = util::Json::object();
    if (rejoins > 0) report.extras["dist"]["rejoins"] = static_cast<int64_t>(rejoins);
    if (failovers > 0) report.extras["dist"]["failovers"] = static_cast<int64_t>(failovers);
    if (world.promoted_from() >= 0)
      report.extras["dist"]["promoted_from"] = world.promoted_from();
  }
  return report;
}

}  // namespace

runtime::SolveReport solve_elastic(World& world, const runtime::SolveRequest& req,
                                   const runtime::StrategyContext& ctx,
                                   const ElasticOptions& opts) {
  return *next_hunt(world, &req, ctx, opts);
}

std::vector<runtime::SolveReport> follow(World& world, const runtime::StrategyContext& ctx,
                                         const ElasticOptions& opts) {
  std::vector<runtime::SolveReport> reports;
  while (std::optional<runtime::SolveReport> report = next_hunt(world, nullptr, ctx, opts)) {
    reports.push_back(std::move(*report));
    // A drained member was retired (or its hunt ended first): it is done.
    if (!reports.back().error.empty() || world.is_host() || draining(opts)) break;
  }
  return reports;
}

}  // namespace cas::dist
