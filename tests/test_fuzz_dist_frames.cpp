// Dist-frame fuzzing: seeded mutations of every frame a world's members and
// its coordinator exchange (wire v6). Valid hello, join, reconnect, hb, bye,
// leave, epoch, ckpt and solved frames go from bare-socket members to a live
// Coordinator; valid welcome, rebalance, leader, state_sync and abort frames
// go to a RankComm from a bare socket playing the coordinator. Each frame is
// mutated byte-wise or has one field pushed to an extreme. The invariant:
// every input is accepted, or ends in a dropped peer, an aborted world or a
// failed communicator with a reason — never a crash, a hang (a probe frame
// must come back) or an allocation over 64 MB.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "dist/ckpt.hpp"
#include "dist/coordinator.hpp"
#include "dist/rank_comm.hpp"
#include "dist/wire.hpp"
#include "fake_rank.hpp"
#include "fuzz_support.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"

namespace cas::dist {
namespace {

constexpr int kWalkers = 4;

/// A byte mutation of `frame`, or the frame with one field (type excluded)
/// set to an extreme.
std::string mutated(const util::Json& frame, core::Rng& rng) {
  if (rng.below(2) == 0) return fuzz::mutate(frame.dump(0), rng);
  util::Json j = frame;
  std::vector<std::string> keys;
  for (const auto& [key, value] : j.as_object())
    if (key != "type") keys.push_back(key);
  const std::string& extreme = fuzz::kFieldExtremes[rng.below(fuzz::kFieldExtremes.size())];
  j[keys[rng.below(keys.size())]] = util::Json::parse(extreme);
  return j.dump(0);
}

util::Json solved_stats() {
  core::RunStats st;
  st.solved = true;
  st.iterations = 10;
  st.solution = {0, 1, 2};
  return run_stats_to_json(st);
}

/// A two-member world whose coordinator runs hunt 1: `host` is member 0
/// and `member` member 1, both bare sockets past their welcome and the
/// opening rebalance.
struct CoordinatorSession {
  std::unique_ptr<Coordinator> coord;
  std::optional<test::FakeRank> host;
  std::optional<test::FakeRank> member;

  CoordinatorSession() {
    CoordinatorOptions co;
    co.ranks = 2;
    co.heartbeat_timeout_seconds = 0;
    co.standby = true;
    coord = std::make_unique<Coordinator>(co);
    coord->open_hunt(1, "hunt", 7, kWalkers, 0);
    host.emplace(coord->port(), 0, 2);
    util::Json hello = make_hello(1, 2);
    hello["failover"] = "127.0.0.1:1";
    member.emplace(coord->port(), hello);
    for (test::FakeRank* r : {&*host, &*member}) {
      EXPECT_FALSE(r->await("welcome").is_null());
      r->send(make_hb(r == &*host ? 0 : 1));  // the welcome landed
      EXPECT_FALSE(r->await("rebalance").is_null());
    }
  }
  ~CoordinatorSession() {
    host.reset();
    member.reset();
    coord->stop();
  }
};

/// Ask the coordinator something on `r`'s connection: a join in a version
/// it refuses. Returns the first abort reason that comes back — the probe's
/// own refusal while the world lives — or "" once the connection is gone.
std::string probe(test::FakeRank& r) {
  util::Json bad = make_join("probe", 0);
  bad["v"] = 0;
  if (!r.send_raw(bad.dump(0))) return "";
  const util::Json abort = r.await("abort");
  if (abort.is_null()) return "";
  const util::Json* reason = abort.find("reason");
  return reason != nullptr && reason->is_string() ? reason->as_string() : "?";
}

TEST(FuzzDistFrames, MutatedMemberFramesAreAcceptedDroppedOrAbortTheWorld) {
  core::Rng rng(0xD157F00D);
  const util::Json stats = solved_stats();
  util::Json epoch = make_epoch_base(1, 1, 0);
  epoch["done"] = false;
  epoch["settled"] = false;
  epoch["halt"] = false;
  epoch["walkers"] = 2;
  epoch["executed"] = wire_u64(300);
  epoch["owned_iters"] = wire_u64(600);
  epoch["wall_micros"] = wire_u64(1000);
  epoch["solved"] = util::Json::array();
  util::Json hello = make_hello(1, 2);
  hello["failover"] = "127.0.0.1:1";
  const std::vector<util::Json> on_member = {
      make_hb(1), make_bye(1), make_leave(1), epoch, make_ckpt(1, 0, 4096, 250),
      make_solved(1, 1, 2, 10, stats)};
  const std::vector<util::Json> handshakes = {hello, make_join("hunt", 0), make_join("hunt", 1),
                                              make_reconnect(1, 1, 0)};
  int accepted = 0, dropped = 0, aborted = 0;
  std::unique_ptr<CoordinatorSession> session;
  for (int i = 0; i < 2000; ++i) {
    if (!session) session = std::make_unique<CoordinatorSession>();
    const bool handshake = rng.below(3) == 0;
    const util::Json& frame = handshake ? handshakes[rng.below(handshakes.size())]
                                        : on_member[rng.below(on_member.size())];
    const std::string input = mutated(frame, rng);
    std::optional<test::FakeRank> stranger;
    test::FakeRank* from = &*session->member;
    if (handshake) {
      stranger.emplace(session->coord->port());
      from = &*stranger;
    }
    from->send_raw(input);
    const std::string reason = probe(*from);
    if (reason.find("version mismatch") != std::string::npos) {
      ++accepted;
    } else if (reason.empty()) {
      ++dropped;  // the coordinator dropped the connection
      if (!handshake) session.reset();
    } else {
      ++aborted;  // a world abort names its reason
      session.reset();
    }
    // The coordinator thread still serves: a fresh connection's probe
    // comes back.
    if (session) {
      test::FakeRank fresh(session->coord->port());
      EXPECT_NE(probe(fresh).find("version mismatch"), std::string::npos) << input;
    }
  }
  EXPECT_EQ(fuzz::g_oversized.load(), 0);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(aborted, 0);
}

/// The coordinator end of one connection a RankComm opens: it answers the
/// hello with `welcome`, then sends `after`, then a probe rebalance.
struct FakeCoordinator {
  net::Fd listener;
  uint16_t port = 0;

  FakeCoordinator() {
    std::string err;
    listener = net::listen_tcp("127.0.0.1", 0, 16, err);
    EXPECT_TRUE(listener.valid()) << err;
    port = net::local_port(listener.get());
  }

  std::jthread serve(std::string welcome, std::vector<std::string> after) {
    return std::jthread([this, welcome = std::move(welcome), after = std::move(after)] {
      test::FakeRank member(net::Fd(::accept(listener.get(), nullptr, nullptr)));
      if (member.await("hello").is_null()) return;
      member.send_raw(welcome);
      for (const std::string& frame : after) member.send_raw(frame);
      util::Json probe = make_rebalance_base(1, 99);
      probe["probe"] = true;
      member.send_raw(probe.dump(0));
      (void)member.await("bye");  // until the member hangs up
    });
  }
};

TEST(FuzzDistFrames, MutatedCoordinatorFramesAreAcceptedOrFailTheCommunicator) {
  core::Rng rng(0xC00D1D57);
  util::Json view = make_rebalance_base(1, 0);
  view["ranks"] = 1;
  view["your_rank"] = 0;
  view["final"] = false;
  view["ckpt_epoch"] = -1;
  view["seed"] = wire_u64(7);
  view["walkers"] = kWalkers;
  view["members"] = util::Json::parse("[0]");
  util::Json state = util::Json::object();
  state["hunt"] = wire_u64(1);
  state["wave"] = wire_u64(0);
  const std::vector<util::Json> after_welcome = {view, make_leader(1, 2, 10),
                                                 make_state_sync(0, state),
                                                 make_abort("coordinator: fuzz")};
  FakeCoordinator fake;
  int accepted = 0, failed = 0;
  for (int i = 0; i < 1500; ++i) {
    const bool rendezvous = rng.below(4) == 0;
    std::string welcome = make_welcome(0, 1).dump(0);
    std::vector<std::string> after;
    if (rendezvous)
      welcome = mutated(make_welcome(0, 1), rng);
    else
      after.push_back(mutated(after_welcome[rng.below(after_welcome.size())], rng));
    const std::string input = rendezvous ? welcome : after[0];
    std::jthread coordinator = fake.serve(welcome, after);
    RankCommOptions o;
    o.port = fake.port;
    o.heartbeat_interval_seconds = 0;
    o.connect_timeout_seconds = 5.0;
    o.rendezvous_backoff.max_attempts = 0;  // a refused welcome fails at once
    std::optional<RankComm> comm;
    try {
      comm.emplace(o);
    } catch (const CommError& e) {
      EXPECT_GT(std::string(e.what()).size(), 0u) << input;
      ++failed;
      continue;  // the fake coordinator sees the hang-up and returns
    }
    std::vector<std::pair<uint64_t, int>> leaders;
    comm->on_leader(1, [&](uint64_t iters, int id) { leaders.emplace_back(iters, id); });
    bool probed = false;
    try {
      while (!probed) {
        const std::optional<util::Json> rb = comm->take_control(10.0);
        ASSERT_TRUE(rb.has_value()) << "no probe within 10 s: " << input;
        probed = rb->find("probe") != nullptr;
      }
      ++accepted;
    } catch (const CommError& e) {
      EXPECT_FALSE(comm->failure().empty()) << input;
      ++failed;
    }
    comm->on_leader(1, nullptr);
    comm->finalize();
  }
  EXPECT_EQ(fuzz::g_oversized.load(), 0);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(failed, 0);
}

}  // namespace
}  // namespace cas::dist
