// The socket communicator's two collectives and its first-win stop:
// broadcast and gather over TCP stay aligned through long mixed
// sequences, a 1-rank world returns its input, int64 payloads round-trip
// exactly (the decimal-string codec), and a SOLUTION_FOUND is matched to
// the request it was stamped with — a peer's stop for the next request is
// armed when that request starts, a stale one is ignored. Failure paths
// are pinned too: a rank that dies mid-world turns into a CommError on
// every survivor (coordinator abort), and a rank that never shows up
// inside a collective trips the collective deadline. A deadline past the
// clock's range means none, for the collectives and the elastic control
// wait alike.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/rank_comm.hpp"
#include "dist/wire.hpp"
#include "net/frame.hpp"
#include "net/frame_io.hpp"
#include "net/socket.hpp"
#include "fake_rank.hpp"

namespace cas::dist {
namespace {

/// Host a loopback coordinator and run `body` on `ranks` RankComm
/// endpoints, one thread each — the whole world inside one test process.
/// The first exception any rank threw is rethrown to the test body.
void run_socket_world(int ranks, const std::function<void(RankComm&)>& body,
                      double collective_timeout_seconds = 30.0) {
  CoordinatorOptions co;
  co.ranks = ranks;
  Coordinator coord(co);
  std::mutex mu;
  std::exception_ptr first;
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        try {
          RankCommOptions o;
          o.port = coord.port();
          o.rank = r;
          o.ranks = ranks;
          o.collective_timeout_seconds = collective_timeout_seconds;
          RankComm comm(o);
          body(comm);
          comm.finalize();
        } catch (...) {
          std::scoped_lock lock(mu);
          if (first == nullptr) first = std::current_exception();
        }
      });
    }
  }  // join
  coord.stop();
  if (first != nullptr) std::rethrow_exception(first);
}

TEST(SocketCollectives, LongMixedBroadcastGatherSequenceStaysAligned) {
  // Back-to-back collectives of both kinds, 40 rounds: selective receive
  // on (tag, seq) must keep round k's frames out of round k+1 even when a
  // fast rank runs ahead.
  const int n = 4;
  run_socket_world(n, [&](RankComm& comm) {
    const int64_t me = comm.rank();
    for (int64_t round = 0; round < 40; ++round) {
      const auto got = comm.broadcast({me == 0 ? round * 7 : -1, round});
      EXPECT_EQ(got, (std::vector<int64_t>{round * 7, round}));
      const auto rows = comm.gather({me, round, me * round});
      if (me == 0) {
        ASSERT_EQ(rows.size(), static_cast<size_t>(n));
        for (int64_t r = 0; r < n; ++r)
          EXPECT_EQ(rows[static_cast<size_t>(r)], (std::vector<int64_t>{r, round, r * round}));
      } else {
        EXPECT_TRUE(rows.empty());
      }
    }
  });
}

TEST(SocketCollectives, OneRankWorldReturnsItsInput) {
  run_socket_world(1, [&](RankComm& comm) {
    EXPECT_EQ(comm.broadcast({3, -4}), (std::vector<int64_t>{3, -4}));
    const auto rows = comm.gather({5, 6});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<int64_t>{5, 6}));
    EXPECT_EQ(comm.broadcast({}), std::vector<int64_t>{});
  });
}

TEST(SocketCollectives, Int64ExtremesRoundTripExactly) {
  // The whole reason payload elements travel as decimal strings: util::Json
  // numbers are doubles, and these values are not representable in one.
  const std::vector<int64_t> extremes{
      std::numeric_limits<int64_t>::max(), std::numeric_limits<int64_t>::min(),
      (int64_t{1} << 53) + 1, -((int64_t{1} << 53) + 3), 0, -1};
  run_socket_world(3, [&](RankComm& comm) {
    EXPECT_EQ(comm.broadcast(extremes), extremes);
    const auto rows = comm.gather(extremes);
    if (comm.rank() == 0) {
      ASSERT_EQ(rows.size(), 3u);
      for (const auto& row : rows) EXPECT_EQ(row, extremes);
    }
  });
}

TEST(SocketCollectives, HugeDeadlineWaitsInsteadOfExpiring) {
  // A scenario may set collective_timeout to any number; one past the
  // clock's range must mean "wait", not "already expired".
  run_socket_world(
      2,
      [&](RankComm& comm) {
        EXPECT_EQ(comm.broadcast({comm.rank() == 0 ? 11 : 0}), std::vector<int64_t>{11});
        const auto rows = comm.gather({comm.rank()});
        if (comm.rank() == 0) EXPECT_EQ(rows.size(), 2u);
      },
      /*collective_timeout_seconds=*/1e12);
}

TEST(SocketCollectives, HugeControlTimeoutWaitsForALateRebalance) {
  // An elastic member waits for each rebalance with the same scenario
  // timeout; 1e12 s must wait for a frame that comes late, not return or
  // throw at once.
  CoordinatorOptions co;
  co.elastic = true;
  Coordinator coord(co);
  RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 1;
  RankComm comm(o);
  std::jthread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    comm.send_control(make_epoch_base(comm.member(), 0));  // the wave completes: a rebalance
  });
  const auto t0 = std::chrono::steady_clock::now();
  const std::optional<util::Json> rb = comm.take_control(1e12);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  late.join();
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(frame_type(*rb), "rebalance");
  EXPECT_GE(waited, 0.15);
  comm.finalize();
  coord.stop();
}

// --- the first-win stop across requests -----------------------------------
// Frames are FIFO per connection through the coordinator, so a gather row
// sent after an announcement reaches rank 0 after it: when rank 0's gather
// returns, the announcement has been delivered.

TEST(SocketStop, PeerStopIsMatchedToTheRequestItWasStampedWith) {
  run_socket_world(2, [&](RankComm& comm) {
    comm.begin_request();  // request 1 on both ranks
    if (comm.rank() == 1) {
      // Rank 1 has moved on to request 2 and solved it before rank 0 gets
      // there (the fast peer of a slow rank's epoch boundary).
      comm.begin_request();
      comm.announce_solution();
      (void)comm.gather({});
      (void)comm.broadcast({});
      // Still in request 2 while rank 0 is in 3: a stale announcement.
      comm.announce_solution();
      (void)comm.gather({});
      (void)comm.broadcast({});  // wait until rank 0 has looked
      comm.begin_request();      // request 3: a current one
      comm.announce_solution();
      (void)comm.gather({});
      return;
    }
    (void)comm.gather({});
    EXPECT_FALSE(comm.remote_stop().load()) << "a stop for request 2 stopped request 1";
    comm.begin_request();
    EXPECT_TRUE(comm.remote_stop().load()) << "rank 1's stop for request 2 was lost";
    (void)comm.broadcast({});

    comm.begin_request();
    EXPECT_FALSE(comm.remote_stop().load());
    (void)comm.gather({});
    EXPECT_FALSE(comm.remote_stop().load()) << "a stale stop for request 2 stopped request 3";
    (void)comm.broadcast({});
    (void)comm.gather({});
    EXPECT_TRUE(comm.remote_stop().load()) << "rank 1's stop for request 3 was lost";
  });
}

// --- failure paths ---------------------------------------------------------

TEST(SocketFailure, DeadRankAbortsEveryBlockedCollective) {
  // Ranks 0 and 1 are real; rank 2 is a bare socket that completes the
  // rendezvous and then drops dead (EOF without bye). The coordinator must
  // broadcast abort, turning the survivors' blocked collectives — rank 0's
  // gather, rank 1's wait for the decision broadcast — into CommError well
  // before any timeout. A failed communicator then stays stopped.
  CoordinatorOptions co;
  co.ranks = 3;
  Coordinator coord(co);

  std::atomic<int> comm_errors{0};
  std::vector<std::jthread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      RankCommOptions o;
      o.port = coord.port();
      o.rank = r;
      o.ranks = 3;
      o.collective_timeout_seconds = 60.0;  // the abort must beat this
      std::optional<RankComm> comm;
      try {
        comm.emplace(o);
        (void)comm->gather({r});  // rank 2 never sends its row
        (void)comm->broadcast({});
        ADD_FAILURE() << "rank " << r << " finished a gather missing a rank";
      } catch (const CommError&) {
        comm_errors.fetch_add(1);
      }
      if (comm) {
        comm->begin_request();
        EXPECT_TRUE(comm->remote_stop().load()) << "a failed communicator re-armed its stop";
      }
    });
  }

  std::string err;
  net::Fd fake = net::connect_tcp("127.0.0.1", coord.port(), err);
  ASSERT_TRUE(fake.valid()) << err;
  ASSERT_TRUE(net::write_all(fake.get(), net::encode_frame(make_hello(2, 3).dump(0)), err))
      << err;
  // Give the rendezvous time to complete so the survivors are inside their
  // collectives, then die without a bye.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  fake.reset();

  threads.clear();  // join
  coord.stop();
  EXPECT_EQ(comm_errors.load(), 2);
}

TEST(SocketFailure, MalformedMsgFramesFailTheCommunicator) {
  // A peer's frames are input from outside the process: a gather row from
  // a rank outside the world or from rank 0's own slot, a SOLUTION_FOUND
  // without a request index, and a collective frame without a sequence
  // number each fail rank 0's communicator with the reason, instead of
  // indexing out of bounds or waiting out the deadline.
  const std::vector<std::pair<Message, std::string>> cases = {
      {Message{kTagGather, 5, {0, 1}}, "unexpected rank 5"},
      {Message{kTagGather, 0, {0, 1}}, "unexpected rank 0"},
      {Message{kTagSolutionFound, 1, {}}, "without a request index"},
      {Message{kTagGather, 1, {}}, "without a sequence number"},
  };
  for (const auto& [bad, reason] : cases) {
    CoordinatorOptions co;
    co.ranks = 2;
    Coordinator coord(co);
    test::FakeRank fake(coord.port(), 1, 2);
    std::string failure;
    std::jthread rank0([&] {
      RankCommOptions o;
      o.port = coord.port();
      o.rank = 0;
      o.ranks = 2;
      o.collective_timeout_seconds = 30.0;  // the failure must beat this
      try {
        RankComm comm(o);
        (void)comm.gather({7});
        ADD_FAILURE() << "gather accepted " << reason;
      } catch (const CommError& e) {
        failure = e.what();
      }
    });
    ASSERT_FALSE(fake.await("welcome").is_null());
    fake.send(make_msg(/*to=*/0, bad));
    rank0.join();
    coord.stop();
    EXPECT_NE(failure.find(reason), std::string::npos) << failure;
  }
}

TEST(SocketFailure, CollectiveDeadlineFiresWhenAPeerNeverEnters) {
  // Both ranks are alive (heartbeats flowing), but rank 1 skips the
  // collective entirely: rank 0's gather must trip the collective
  // deadline rather than hang.
  std::atomic<bool> rank0_failed{false};
  try {
    run_socket_world(
        2,
        [&](RankComm& comm) {
          if (comm.rank() == 0) {
            (void)comm.gather({1});
            ADD_FAILURE() << "gather completed without rank 1";
          }
        },
        /*collective_timeout_seconds=*/1.0);
  } catch (const CommError& e) {
    rank0_failed = true;
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(rank0_failed.load());
}

}  // namespace
}  // namespace cas::dist
