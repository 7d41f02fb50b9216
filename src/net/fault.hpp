// Seeded, deterministic fault injection for the serving and distributed
// stacks: the wire, and the checkpoint writes on disk.
//
// A FaultPlan describes per-connection schedules of wire pathologies —
// short reads/writes, injected latency, mid-frame connection resets, byte
// corruption, accept-time refusals, EINTR/EAGAIN storms — as probability
// windows over each connection's per-direction operation index. Arming a
// plan publishes a process-global FaultInjector; every socket recv/send in
// `src/net/` (frame_io, BlockingClient — which RankComm receives through)
// and every accept in net::Server / dist::Coordinator routes through the
// fault_* hooks below.
//
// The same plan schedules disk faults for dist::write_ckpt_file, one write
// operation per call, process-wide:
//   torn_write  — the tmp file is written TRUNCATED (half the blob) and the
//                 rename still succeeds: the post-crash torn file. The
//                 writer reports success; only the reader's header/CRC
//                 validation (and the manifest's predecessor fallback) can
//                 catch it.
//   fail_rename — the tmp -> final rename fails; the writer throws
//                 CkptError and the previous file survives untouched.
//   fail_fsync  — the data fsync fails (full disk, dying device); the
//                 writer throws CkptError.
//
// Determinism: each connection gets its own SplitMix64 stream seeded from
// (plan.seed, CAS_FAULT_SALT, connection ordinal), and the accept and disk
// schedules one stream each, so a given plan replays the same decisions for
// the same op interleaving — and per-class process-wide caps (`max`) bound
// the blast radius regardless of interleaving, which is what makes chaos
// schedules provably survivable (a capped reset storm always leaves a
// clean retry attempt).
//
// Disarmed cost: one relaxed atomic load and a predictable branch per I/O
// call or checkpoint write — no locks, no allocation, byte-identical
// behavior to the raw syscalls. The serving bench guard (check_bench.py on
// BENCH_serve.json) pins that the compiled-in-but-disarmed layer does not
// move sustained RPS.
//
// Environment contract (read by FaultInjector::arm_from_env, called from
// tool mains):
//   CAS_FAULT_PLAN  — inline JSON plan, or @/path/to/plan.json
//   CAS_FAULT_SALT  — u64 mixed into every stream seed; cas_run sets it to
//                     the rank id in forked children so each process of a
//                     world draws distinct, reproducible schedules
//   CAS_FAULT_NO_RETRY — disables the retry/backoff paths (see retry.hpp);
//                     the chaos driver's proof that the injector exercises
//                     them
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "util/json.hpp"

namespace cas::net {

/// One fault class instance: fire with `prob` on ops inside
/// [min_op, max_op] (per connection and direction, or per process for the
/// accept and disk classes), at most `max` times process-wide, only in
/// processes whose CAS_FAULT_SALT >= min_salt.
struct FaultClass {
  double prob = 0.0;
  uint64_t max = std::numeric_limits<uint64_t>::max();
  uint64_t min_op = 0;
  uint64_t max_op = std::numeric_limits<uint64_t>::max();
  uint64_t min_salt = 0;
  double ms = 0.0;  // latency only: injected delay per firing
  int burst = 1;    // eintr/eagain only: consecutive failures per firing
};

/// A full schedule: any class may carry several windows (JSON value is an
/// object or an array of objects).
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultClass> short_read;
  std::vector<FaultClass> short_write;
  std::vector<FaultClass> latency;
  std::vector<FaultClass> reset;
  std::vector<FaultClass> corrupt;
  std::vector<FaultClass> refuse_accept;
  std::vector<FaultClass> eintr;
  std::vector<FaultClass> eagain;
  std::vector<FaultClass> torn_write;
  std::vector<FaultClass> fail_rename;
  std::vector<FaultClass> fail_fsync;

  /// Throws std::runtime_error on unknown keys or malformed fields.
  static FaultPlan parse(const util::Json& spec);
};

/// Live injection counters (readable lock-free from any thread).
struct FaultStats {
  std::atomic<uint64_t> short_reads{0};
  std::atomic<uint64_t> short_writes{0};
  std::atomic<uint64_t> latencies{0};
  std::atomic<uint64_t> resets{0};
  std::atomic<uint64_t> corruptions{0};
  std::atomic<uint64_t> refusals{0};
  std::atomic<uint64_t> eintrs{0};
  std::atomic<uint64_t> eagains{0};
  std::atomic<uint64_t> torn_writes{0};
  std::atomic<uint64_t> failed_renames{0};
  std::atomic<uint64_t> failed_fsyncs{0};

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] uint64_t total() const;
};

/// What one checkpoint write has been scheduled to suffer.
enum class DiskFault { kNone, kTornWrite, kFailRename, kFailFsync };

class FaultInjector {
 public:
  /// The armed injector, or nullptr (the common case). Relaxed load: this
  /// is the entire disarmed overhead.
  [[nodiscard]] static FaultInjector* active() {
    return g_active.load(std::memory_order_relaxed);
  }

  /// Publish `plan` process-wide (replaces any armed plan; resets stats
  /// and per-connection streams).
  static void arm(const FaultPlan& plan, uint64_t salt = 0);
  static void disarm();

  /// Arm from CAS_FAULT_PLAN/CAS_FAULT_SALT. Returns false when unset;
  /// throws std::runtime_error on a malformed plan.
  static bool arm_from_env();

  [[nodiscard]] static const FaultStats& stats();

  // Hook bodies (armed path only — call through the fault_* wrappers).
  ssize_t recv(int fd, void* buf, size_t len, int flags);
  ssize_t send(int fd, const void* buf, size_t len, int flags);
  bool refuse_accept();
  void forget(int fd);
  /// Consume one disk write-op index and draw its fate (first firing class
  /// in torn_write, fail_rename, fail_fsync order wins).
  DiskFault next_disk_write();

 private:
  struct ConnState {
    core::SplitMix64 rng{0};
    uint64_t recv_ops = 0;
    uint64_t send_ops = 0;
    int eintr_left = 0;
    int eagain_left = 0;
    bool dead = false;  // a reset fired: every later op fails ECONNRESET
  };

  FaultInjector() = default;
  ConnState& state_of(int fd);
  /// Draw the firing decision for one window list from `rng`; returns the
  /// window that fired (consuming one unit of its cap) or nullptr.
  FaultClass* draw(std::vector<FaultClass>& windows, core::SplitMix64& rng, uint64_t op);

  static std::atomic<FaultInjector*> g_active;

  FaultPlan plan_;
  uint64_t salt_ = 0;
  FaultStats stats_;
  std::mutex mu_;
  std::map<int, ConnState> conns_;
  uint64_t next_ordinal_ = 0;
  core::SplitMix64 accept_rng_{0};
  uint64_t accept_ops_ = 0;
  core::SplitMix64 disk_rng_{0};
  uint64_t disk_ops_ = 0;
  std::map<const FaultClass*, uint64_t> fired_;
};

// The transport hooks. Disarmed they compile to the raw syscall behind one
// relaxed load; armed they consult the plan.
ssize_t fault_recv(int fd, void* buf, size_t len, int flags);
ssize_t fault_send(int fd, const void* buf, size_t len, int flags);
/// True = refuse this just-accepted connection (caller closes the fd).
bool fault_refuse_accept();
/// Drop per-connection state when an fd closes (fd numbers are reused).
void fault_forget(int fd);
/// The fault scheduled for this checkpoint write (kNone when disarmed).
DiskFault fault_disk_write();
[[nodiscard]] inline bool fault_armed() { return FaultInjector::active() != nullptr; }

}  // namespace cas::net
