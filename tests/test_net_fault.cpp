// The fault-injection layer itself (net/fault.hpp): plan parsing with
// strict unknown-key rejection, the environment arming contract, the
// disarmed-is-inert guarantee, per-class semantics over a real socketpair
// (short reads/writes reassembling through the frame codec, EINTR/EAGAIN
// storms absorbed by the I/O helpers, resets killing both directions,
// corruption flipping exactly one bit, accept refusals honoring caps), the
// disk classes' one draw per checkpoint write, and schedule determinism
// across re-arms — the property the chaos driver's reproducibility stands
// on — including a wire schedule pinned from before the disk classes joined
// the plan.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/frame_io.hpp"
#include "util/json.hpp"

namespace cas::net {
namespace {

FaultPlan plan_of(const std::string& text) { return FaultPlan::parse(util::Json::parse(text)); }

/// Every test leaves the process disarmed and the env clean — the fault
/// layer is process-global state, and a leak here would silently poison
/// every later test in this binary.
class FaultLayer : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::disarm();
    unsetenv("CAS_FAULT_PLAN");
    unsetenv("CAS_FAULT_SALT");
  }
};

/// A connected AF_UNIX pair; index 0/1 are the two ends.
struct SocketPair {
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
    fault_forget(fds[0]);
    fault_forget(fds[1]);
  }
  int fds[2] = {-1, -1};
};

TEST_F(FaultLayer, PlanParseAcceptsFullSchemaAndWindowArrays) {
  const FaultPlan p = plan_of(R"({
    "seed": 42,
    "short_read": {"prob": 0.5, "max": 10, "min_op": 2, "max_op": 8, "min_salt": 1},
    "latency": [{"prob": 1.0, "ms": 3.5}, {"prob": 0.25, "ms": 10, "max_op": 4}],
    "eintr": {"prob": 0.1, "burst": 3},
    "torn_write": {"prob": 1.0, "max": 2, "min_op": 5},
    "fail_rename": [{"prob": 0.5}, {"prob": 1.0, "min_salt": 2}],
    "fail_fsync": {"prob": 0.25, "max_op": 3}
  })");
  EXPECT_EQ(p.seed, 42u);
  ASSERT_EQ(p.short_read.size(), 1u);
  EXPECT_DOUBLE_EQ(p.short_read[0].prob, 0.5);
  EXPECT_EQ(p.short_read[0].max, 10u);
  EXPECT_EQ(p.short_read[0].min_op, 2u);
  EXPECT_EQ(p.short_read[0].max_op, 8u);
  EXPECT_EQ(p.short_read[0].min_salt, 1u);
  ASSERT_EQ(p.latency.size(), 2u);
  EXPECT_DOUBLE_EQ(p.latency[0].ms, 3.5);
  EXPECT_EQ(p.latency[1].max_op, 4u);
  ASSERT_EQ(p.eintr.size(), 1u);
  EXPECT_EQ(p.eintr[0].burst, 3);
  EXPECT_TRUE(p.reset.empty());
  ASSERT_EQ(p.torn_write.size(), 1u);
  EXPECT_EQ(p.torn_write[0].max, 2u);
  EXPECT_EQ(p.torn_write[0].min_op, 5u);
  ASSERT_EQ(p.fail_rename.size(), 2u);
  EXPECT_DOUBLE_EQ(p.fail_rename[0].prob, 0.5);
  EXPECT_EQ(p.fail_rename[1].min_salt, 2u);
  ASSERT_EQ(p.fail_fsync.size(), 1u);
  EXPECT_EQ(p.fail_fsync[0].max_op, 3u);
}

TEST_F(FaultLayer, PlanParseRejectsUnknownKeysAndBadFields) {
  // Typos must fail loudly: a chaos plan whose "reset" is spelled "rset"
  // silently injecting nothing would be a vacuous soak.
  EXPECT_THROW(plan_of(R"({"rset": {"prob": 1.0}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"({"reset": {"probability": 1.0}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"({"reset": {"prob": 1.5}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"({"eintr": {"prob": 0.5, "burst": 0}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"({"torn": {"prob": 1.0}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"({"fail_fsync": {"prob": -0.1}})"), std::runtime_error);
  EXPECT_THROW(plan_of(R"([1, 2, 3])"), std::runtime_error);
}

TEST_F(FaultLayer, ArmFromEnvInlineFileAndSalt) {
  EXPECT_FALSE(FaultInjector::arm_from_env());  // unset → stay disarmed
  EXPECT_FALSE(fault_armed());

  setenv("CAS_FAULT_PLAN", R"({"seed": 7, "refuse_accept": {"prob": 1.0, "max": 1}})", 1);
  EXPECT_TRUE(FaultInjector::arm_from_env());
  EXPECT_TRUE(fault_armed());
  EXPECT_TRUE(fault_refuse_accept());
  EXPECT_FALSE(fault_refuse_accept());  // cap of 1 spent

  // @file indirection — the form cas_chaos hands to child processes.
  const std::string path = ::testing::TempDir() + "/fault_plan.json";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"seed": 9, "refuse_accept": {"prob": 1.0, "min_salt": 3}})", f);
  std::fclose(f);
  setenv("CAS_FAULT_PLAN", ("@" + path).c_str(), 1);
  setenv("CAS_FAULT_SALT", "2", 1);
  EXPECT_TRUE(FaultInjector::arm_from_env());
  EXPECT_FALSE(fault_refuse_accept());  // min_salt 3 gates out salt 2
  setenv("CAS_FAULT_SALT", "3", 1);
  EXPECT_TRUE(FaultInjector::arm_from_env());
  EXPECT_TRUE(fault_refuse_accept());

  setenv("CAS_FAULT_PLAN", "@/nonexistent/plan.json", 1);
  EXPECT_THROW(FaultInjector::arm_from_env(), std::runtime_error);
  setenv("CAS_FAULT_PLAN", "{not json", 1);
  EXPECT_THROW(FaultInjector::arm_from_env(), std::runtime_error);
}

TEST_F(FaultLayer, DisarmedHooksAreTheRawSyscalls) {
  FaultInjector::disarm();
  SocketPair sp;
  const std::string msg = "plain bytes, no plan";
  ASSERT_EQ(fault_send(sp.fds[0], msg.data(), msg.size(), 0),
            static_cast<ssize_t>(msg.size()));
  char buf[64];
  const ssize_t n = fault_recv(sp.fds[1], buf, sizeof(buf), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(msg.size()));
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)), msg);
  EXPECT_FALSE(fault_refuse_accept());
  EXPECT_EQ(fault_disk_write(), DiskFault::kNone);
  EXPECT_EQ(FaultInjector::stats().total(), 0u);
}

TEST_F(FaultLayer, ShortReadsAndWritesReassembleThroughTheFrameCodec) {
  // Every send clamped to 1–7 bytes and every recv likewise: the frame
  // codec and the blocking write loop must still move whole frames — the
  // core claim that injected partial I/O is survivable, not lossy.
  FaultInjector::arm(plan_of(R"({"seed": 5, "short_read": {"prob": 1.0}, "short_write": {"prob": 1.0}})"));
  SocketPair sp;
  const std::vector<std::string> payloads = {"x", std::string(200, 'q'), R"({"t":"solve"})"};
  std::string wire;
  for (const auto& p : payloads) append_frame(wire, p);
  std::string err;
  ASSERT_TRUE(write_all(sp.fds[0], wire, err)) << err;

  FrameDecoder dec;
  std::vector<std::string> got;
  std::string out;
  size_t bytes = 0;
  while (got.size() < payloads.size()) {
    ASSERT_EQ(read_chunk(sp.fds[1], dec, bytes), IoStatus::kOk);
    while (dec.next(out) == FrameDecoder::Result::kFrame) got.push_back(out);
  }
  EXPECT_EQ(got, payloads);
  EXPECT_GT(FaultInjector::stats().short_writes.load(), 1u);
  EXPECT_GT(FaultInjector::stats().short_reads.load(), 1u);
}

TEST_F(FaultLayer, EintrAndEagainStormsAreAbsorbedByTheIoHelpers) {
  // Two EINTR firings of burst 3 and two EAGAIN firings: write_all and
  // read_chunk retry through all of them without surfacing an error.
  FaultInjector::arm(plan_of(R"({
    "seed": 11,
    "eintr": {"prob": 1.0, "burst": 3, "max": 2},
    "eagain": {"prob": 1.0, "max": 2}
  })"));
  SocketPair sp;
  const std::string wire = encode_frame("storm survivor");
  std::string err;
  ASSERT_TRUE(write_all(sp.fds[0], wire, err)) << err;

  FrameDecoder dec;
  std::string out;
  size_t bytes = 0;
  for (;;) {
    const IoStatus st = read_chunk(sp.fds[1], dec, bytes);
    if (st == IoStatus::kWouldBlock) continue;  // injected EAGAIN — data is there
    ASSERT_EQ(st, IoStatus::kOk);
    if (dec.next(out) == FrameDecoder::Result::kFrame) break;
  }
  EXPECT_EQ(out, "storm survivor");
  EXPECT_EQ(FaultInjector::stats().eintrs.load(), 2u);
  EXPECT_EQ(FaultInjector::stats().eagains.load(), 2u);
}

TEST_F(FaultLayer, ResetKillsBothDirectionsAndStaysDead) {
  FaultInjector::arm(plan_of(R"({"seed": 3, "reset": {"prob": 1.0, "max": 1}})"));
  SocketPair sp;
  const std::string msg = "doomed";
  errno = 0;
  ASSERT_EQ(fault_send(sp.fds[0], msg.data(), msg.size(), 0), -1);
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(FaultInjector::stats().resets.load(), 1u);

  // The connection is marked dead: every later op on this fd fails even
  // though the cap is spent, and the PEER observes the shutdown as EOF —
  // a reset must never leave a live-but-silent half-connection behind.
  errno = 0;
  EXPECT_EQ(fault_send(sp.fds[0], msg.data(), msg.size(), 0), -1);
  EXPECT_EQ(errno, EPIPE);
  char buf[16];
  EXPECT_EQ(::recv(sp.fds[1], buf, sizeof(buf), 0), 0);
  EXPECT_EQ(FaultInjector::stats().resets.load(), 1u);  // cap held
}

TEST_F(FaultLayer, CorruptionFlipsExactlyOneBit) {
  FaultInjector::arm(plan_of(R"({"seed": 17, "corrupt": {"prob": 1.0, "max": 1}})"));
  SocketPair sp;
  const std::string msg(64, '\0');
  ASSERT_EQ(::send(sp.fds[0], msg.data(), msg.size(), 0), static_cast<ssize_t>(msg.size()));
  char buf[64];
  const ssize_t n = fault_recv(sp.fds[1], buf, sizeof(buf), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(msg.size()));
  int flipped_bits = 0;
  for (ssize_t i = 0; i < n; ++i)
    flipped_bits += __builtin_popcount(static_cast<unsigned char>(buf[i]));
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(FaultInjector::stats().corruptions.load(), 1u);
}

TEST_F(FaultLayer, OpWindowConfinesFaultsToEarlyOps) {
  // max_op 0 — the chaos plans' rendezvous-only window: only the very
  // first recv of a connection is eligible; op 1 and beyond run clean.
  FaultInjector::arm(plan_of(R"({"seed": 23, "eagain": {"prob": 1.0, "max_op": 0}})"));
  SocketPair sp;
  const std::string msg = "ab";
  ASSERT_EQ(::send(sp.fds[0], msg.data(), msg.size(), 0), 2);
  char buf[8];
  errno = 0;
  EXPECT_EQ(fault_recv(sp.fds[1], buf, sizeof(buf), 0), -1);  // op 0 fires
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_EQ(fault_recv(sp.fds[1], buf, sizeof(buf), 0), 2);  // op 1 clean
  EXPECT_EQ(fault_recv(sp.fds[1], buf, sizeof(buf), MSG_DONTWAIT), -1);  // genuinely empty
}

TEST_F(FaultLayer, LatencyWindowDelaysTheCall) {
  FaultInjector::arm(plan_of(R"({"seed": 29, "latency": {"prob": 1.0, "ms": 40, "max": 1}})"));
  SocketPair sp;
  const std::string msg = "slow";
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(fault_send(sp.fds[0], msg.data(), msg.size(), 0), 4);
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(ms, 30.0);  // 40ms injected, generous margin for scheduler noise
  EXPECT_EQ(FaultInjector::stats().latencies.load(), 1u);
}

TEST_F(FaultLayer, SchedulesReplayIdenticallyAcrossRearms) {
  // Same plan + salt → the same decisions for the same op sequence. This
  // is the determinism the chaos driver's seed list relies on: re-running
  // a seed reproduces the exact fault schedule.
  const std::string plan = R"({"seed": 1812, "short_read": {"prob": 0.4}})";
  auto run_once = [&]() -> std::pair<uint64_t, std::vector<size_t>> {
    FaultInjector::arm(plan_of(plan), /*salt=*/6);
    SocketPair sp;
    const std::string blob(512, 'd');
    EXPECT_EQ(::send(sp.fds[0], blob.data(), blob.size(), 0),
              static_cast<ssize_t>(blob.size()));
    std::vector<size_t> chunks;
    size_t total = 0;
    char buf[64];
    while (total < blob.size()) {
      const ssize_t n = fault_recv(sp.fds[1], buf, sizeof(buf), 0);
      EXPECT_GT(n, 0) << "unexpected recv failure";
      if (n <= 0) break;
      chunks.push_back(static_cast<size_t>(n));
      total += static_cast<size_t>(n);
    }
    return {FaultInjector::stats().short_reads.load(), chunks};
  };
  const auto [count_a, chunks_a] = run_once();
  const auto [count_b, chunks_b] = run_once();
  EXPECT_GT(count_a, 0u);  // prob 0.4 over ~8+ ops: a silent schedule means a broken draw
  EXPECT_EQ(count_a, count_b);
  EXPECT_EQ(chunks_a, chunks_b);

  // A different salt draws a different stream (distinct per-process
  // schedules inside one world) — overwhelmingly likely to differ.
  FaultInjector::arm(plan_of(plan), /*salt=*/7);
  SocketPair sp;
  const std::string blob(512, 'd');
  ASSERT_EQ(::send(sp.fds[0], blob.data(), blob.size(), 0), static_cast<ssize_t>(blob.size()));
  std::vector<size_t> chunks_c;
  size_t total = 0;
  char buf[64];
  while (total < blob.size()) {
    const ssize_t n = fault_recv(sp.fds[1], buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    chunks_c.push_back(static_cast<size_t>(n));
    total += static_cast<size_t>(n);
  }
  EXPECT_NE(chunks_a, chunks_c);
}

TEST_F(FaultLayer, StatsJsonCarriesEveryCounter) {
  FaultInjector::arm(plan_of(
      R"({"seed": 2, "refuse_accept": {"prob": 1.0, "max": 3}, "fail_fsync": {"prob": 1.0}})"));
  (void)fault_refuse_accept();
  (void)fault_refuse_accept();
  EXPECT_EQ(fault_disk_write(), DiskFault::kFailFsync);
  const util::Json j = FaultInjector::stats().to_json();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.at("refusals").as_int(), 2);
  EXPECT_EQ(j.at("failed_fsyncs").as_int(), 1);
  for (const char* key : {"short_reads", "short_writes", "latencies", "resets", "corruptions",
                          "eintrs", "eagains", "torn_writes", "failed_renames"})
    EXPECT_EQ(j.at(key).as_int(), 0) << key;
  EXPECT_EQ(j.as_object().size(), 11u);
  EXPECT_EQ(FaultInjector::stats().total(), 3u);
}

TEST_F(FaultLayer, DiskWritesDrawOneOpEachInClassOrderAndReplayAcrossRearms) {
  // One write-op index per call: a window on op 1 fires on the second call
  // only, and when two classes fire on one op the first in torn_write,
  // fail_rename, fail_fsync order wins.
  FaultInjector::arm(plan_of(R"({"seed": 4, "torn_write": {"prob": 1.0, "min_op": 1, "max_op": 1},
                                 "fail_rename": {"prob": 1.0, "min_op": 1, "max": 2}})"));
  EXPECT_EQ(fault_disk_write(), DiskFault::kNone);
  EXPECT_EQ(fault_disk_write(), DiskFault::kTornWrite);
  EXPECT_EQ(fault_disk_write(), DiskFault::kFailRename);
  EXPECT_EQ(fault_disk_write(), DiskFault::kFailRename);
  EXPECT_EQ(fault_disk_write(), DiskFault::kNone);  // cap of 2 spent
  EXPECT_EQ(FaultInjector::stats().torn_writes.load(), 1u);
  EXPECT_EQ(FaultInjector::stats().failed_renames.load(), 2u);

  // The same plan and salt replay the same fates; another salt draws
  // another schedule (distinct per-process schedules inside one world).
  const std::string plan =
      R"({"seed": 77, "torn_write": {"prob": 0.2}, "fail_rename": {"prob": 0.2},
          "fail_fsync": {"prob": 0.2}})";
  auto fates = [&](uint64_t salt) {
    FaultInjector::arm(plan_of(plan), salt);
    std::vector<DiskFault> out;
    for (int i = 0; i < 64; ++i) out.push_back(fault_disk_write());
    return out;
  };
  const std::vector<DiskFault> a = fates(6);
  EXPECT_EQ(FaultInjector::stats().total(),
            static_cast<uint64_t>(64 - std::count(a.begin(), a.end(), DiskFault::kNone)));
  EXPECT_GT(FaultInjector::stats().torn_writes.load(), 0u);
  EXPECT_GT(FaultInjector::stats().failed_renames.load(), 0u);
  EXPECT_GT(FaultInjector::stats().failed_fsyncs.load(), 0u);
  EXPECT_EQ(fates(6), a);
  EXPECT_NE(fates(7), a);
}

TEST_F(FaultLayer, WireOnlyPlanDrawsThePinnedScheduleAndDiskDrawsLeaveItAlone) {
  // The expected chunks and flipped offsets were recorded before the disk
  // classes joined the plan: a wire-only plan still draws that schedule,
  // and disk classes with writes interleaved move no wire decision.
  const std::string wire_plan =
      R"("seed": 1812, "short_read": {"prob": 0.4}, "short_write": {"prob": 0.3},
         "corrupt": {"prob": 0.2, "max": 2})";
  auto run = [&](const std::string& plan, bool with_disk_writes) {
    FaultInjector::arm(plan_of("{" + plan + "}"), /*salt=*/6);
    SocketPair sp;
    const std::string blob(1024, 'd');
    std::vector<size_t> sent, got, flipped;
    for (size_t off = 0; off < blob.size();) {
      if (with_disk_writes) (void)fault_disk_write();
      const ssize_t n =
          fault_send(sp.fds[0], blob.data() + off, std::min<size_t>(64, blob.size() - off), 0);
      EXPECT_GT(n, 0);
      if (n <= 0) break;
      sent.push_back(static_cast<size_t>(n));
      off += static_cast<size_t>(n);
    }
    std::string received;
    char buf[32];
    while (received.size() < blob.size()) {
      if (with_disk_writes) (void)fault_disk_write();
      const ssize_t n = fault_recv(sp.fds[1], buf, sizeof(buf), 0);
      EXPECT_GT(n, 0);
      if (n <= 0) break;
      got.push_back(static_cast<size_t>(n));
      received.append(buf, static_cast<size_t>(n));
    }
    for (size_t i = 0; i < received.size(); ++i)
      if (received[i] != 'd') flipped.push_back(i);
    return std::make_tuple(sent, got, flipped);
  };
  const std::vector<size_t> want_sent = {64, 64, 1,  64, 4, 64, 64, 1,  64, 6,
                                         64, 64, 4,  2,  2, 7,  2,  5,  3,  64,
                                         64, 64, 64, 4,  64, 2, 64, 5,  64, 16};
  const std::vector<size_t> want_got = {32, 32, 6,  32, 32, 32, 6, 3,  32, 32, 32, 32,
                                        2,  32, 32, 32, 3,  32, 1, 32, 32, 32, 32, 4,
                                        6,  3,  6,  32, 4,  32, 32, 32, 32, 5, 32, 32,
                                        5,  32, 5,  32, 32, 32, 6,  1,  32, 2, 28};
  const std::vector<size_t> want_flipped = {65, 139};
  const auto wire_only = run(wire_plan, false);
  EXPECT_EQ(std::get<0>(wire_only), want_sent);
  EXPECT_EQ(std::get<1>(wire_only), want_got);
  EXPECT_EQ(std::get<2>(wire_only), want_flipped);
  const auto with_disk = run(
      wire_plan + R"(, "torn_write": {"prob": 0.5}, "fail_rename": {"prob": 0.5},
                      "fail_fsync": {"prob": 0.5})",
      true);
  EXPECT_GT(FaultInjector::stats().torn_writes.load(), 0u);
  EXPECT_EQ(with_disk, wire_only);
}

}  // namespace
}  // namespace cas::net
