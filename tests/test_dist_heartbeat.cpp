// Heartbeat liveness policing under injected latency: a world whose wire
// is slow but alive (every I/O op delayed well below the heartbeat
// timeout) must not lose anyone — and a member that goes silent with its
// connection OPEN (the failure mode heartbeats exist for; a closed fd is
// caught by EOF long before any timer) must be evicted promptly after the
// timeout, while the rest of the world lives on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "dist/coordinator.hpp"
#include "dist/rank_comm.hpp"
#include "dist/wire.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::dist {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class HeartbeatTest : public ::testing::Test {
 protected:
  void TearDown() override { net::FaultInjector::disarm(); }
};

TEST_F(HeartbeatTest, LatencyBelowTimeoutEvictsNobody) {
  // 40ms on every socket op — an order of magnitude under the 1.5s
  // timeout. The world must ride it out: heartbeats keep landing (late),
  // nobody is declared dead, no abort fires.
  net::FaultInjector::arm(net::FaultPlan::parse(
      util::Json::parse(R"({"seed": 31, "latency": {"prob": 1.0, "ms": 40}})")));
  CoordinatorOptions co;
  co.ranks = 1;
  co.heartbeat_timeout_seconds = 1.5;
  Coordinator coord(co);

  RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 1;
  o.heartbeat_interval_seconds = 0.2;
  RankComm comm(o);

  std::this_thread::sleep_for(std::chrono::seconds(2));  // several timeout-check cycles
  EXPECT_FALSE(comm.failed()) << comm.failure();
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
  EXPECT_EQ(coord.stats().evictions.load(), 0u);
  EXPECT_GT(coord.stats().heartbeats.load(), 3u);
  EXPECT_GT(net::FaultInjector::stats().latencies.load(), 0u)
      << "the latency plan never engaged — this test proved nothing";
  comm.finalize();
  coord.stop();
}

TEST_F(HeartbeatTest, SilentOpenConnectionIsEvictedPromptly) {
  // Rank 1 completes the rendezvous and then freezes with its socket open
  // — what a SIGSTOP'd or livelocked process looks like. EOF-based
  // detection never fires; only the heartbeat deadline can convict it. It
  // never spoke after its hello, so the re-hello grace runs on top of the
  // timeout before the eviction.
  CoordinatorOptions co;
  co.ranks = 2;
  co.heartbeat_timeout_seconds = 0.8;
  co.rehello_grace_seconds = 0.2;
  Coordinator coord(co);

  std::string err;
  net::Fd silent = net::connect_tcp("127.0.0.1", coord.port(), err);
  ASSERT_TRUE(silent.valid()) << err;
  ASSERT_TRUE(net::write_all(silent.get(), net::encode_frame(make_hello(1, 2).dump(0)), err))
      << err;
  // No heartbeats, no reads: the welcome just sits in the socket buffer.

  const double t0 = now_seconds();
  RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 2;
  o.heartbeat_interval_seconds = 0.2;
  RankComm comm(o);

  while (coord.stats().evictions.load() == 0 && now_seconds() - t0 < 10.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = now_seconds() - t0;
  ASSERT_EQ(coord.stats().evictions.load(), 1u) << "silent rank was never evicted";
  // Promptness: convicted after the timeout, and well before the 10s
  // fallback — the deadline plus the grace is doing the work, not some
  // slower backstop.
  EXPECT_GE(elapsed, co.heartbeat_timeout_seconds * 0.9);
  EXPECT_LT(elapsed, co.heartbeat_timeout_seconds + co.rehello_grace_seconds + 2.0);
  // The world lives on: no abort, and the live member stays connected.
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
  EXPECT_FALSE(comm.failed()) << comm.failure();
  comm.finalize();
  coord.stop();
}

TEST_F(HeartbeatTest, LatencyStraddlingTheTimeoutIsFatalOnlyAboveIt) {
  // The boundary the fault layer makes expressible: one injected stall
  // just UNDER the deadline is survivable (this test), while silence past
  // the deadline is fatal (the test above). The single 500ms latency
  // firing lands on the world's first socket op — against a 900ms
  // deadline the stalled frame is merely late, never a death.
  net::FaultInjector::arm(net::FaultPlan::parse(util::Json::parse(
      R"({"seed": 37, "latency": {"prob": 1.0, "ms": 500, "max": 1, "min_salt": 0}})")));
  CoordinatorOptions co;
  co.ranks = 1;
  co.heartbeat_timeout_seconds = 0.9;
  Coordinator coord(co);

  RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 1;
  o.heartbeat_interval_seconds = 0.15;
  RankComm comm(o);

  // One 500ms stall against a 900ms deadline: late heartbeat, live world.
  std::this_thread::sleep_for(std::chrono::milliseconds(1600));
  EXPECT_FALSE(comm.failed()) << comm.failure();
  EXPECT_EQ(coord.stats().aborts.load(), 0u);
  EXPECT_EQ(net::FaultInjector::stats().latencies.load(), 1u);
  comm.finalize();
  coord.stop();
}

}  // namespace
}  // namespace cas::dist
