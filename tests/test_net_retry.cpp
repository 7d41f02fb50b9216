// The retry half of the fault story (net/retry.hpp): the Backoff delay
// schedule (deterministic seeded jitter inside the documented envelope,
// exhaustion after max_attempts), the CAS_FAULT_NO_RETRY kill switch, a
// client connect that outlives a late-binding listener, and the RankComm
// rendezvous rules: a retry against a coordinator whose first accept is
// refused by an injected fault — counted in the comm's own stats — a quiet
// attempt window that retries without spending backoff, and an abort that
// is final.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/rank_comm.hpp"
#include "fake_rank.hpp"
#include "net/fault.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::net {
namespace {

class RetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::disarm();
    unsetenv("CAS_FAULT_PLAN");
    unsetenv("CAS_FAULT_NO_RETRY");
  }
};

TEST_F(RetryTest, BackoffDelaysStayInsideTheJitteredEnvelope) {
  BackoffOptions opts;
  opts.max_attempts = 8;
  opts.initial_delay_ms = 10.0;
  opts.max_delay_ms = 1000.0;
  opts.multiplier = 2.0;
  Backoff b(opts, /*salt=*/4);
  for (int k = 0; k < opts.max_attempts; ++k) {
    EXPECT_FALSE(b.exhausted());
    EXPECT_EQ(b.attempts(), k);
    const double base_ms =
        std::min(opts.initial_delay_ms * std::pow(opts.multiplier, k), opts.max_delay_ms);
    const double d = b.next_delay_seconds() * 1000.0;
    EXPECT_GE(d, 0.5 * base_ms) << "attempt " << k;
    EXPECT_LT(d, base_ms) << "attempt " << k;  // jitter in [0.5, 1.0)
  }
  EXPECT_TRUE(b.exhausted());
}

TEST_F(RetryTest, BackoffJitterIsDeterministicPerSaltAndDistinctAcrossSalts) {
  // Same seed + salt must replay the same delays (chaos reproducibility);
  // different salts must de-synchronize (no thundering-herd reconnects).
  auto draw = [](uint64_t salt) {
    Backoff b(BackoffOptions{}, salt);
    std::vector<double> out;
    for (int i = 0; i < 8; ++i) out.push_back(b.next_delay_seconds());
    return out;
  };
  EXPECT_EQ(draw(1), draw(1));
  EXPECT_NE(draw(1), draw(2));
}

TEST_F(RetryTest, NoRetryEnvKillsTheGate) {
  unsetenv("CAS_FAULT_NO_RETRY");
  EXPECT_TRUE(retry_enabled());
  setenv("CAS_FAULT_NO_RETRY", "1", 1);
  EXPECT_FALSE(retry_enabled());
  setenv("CAS_FAULT_NO_RETRY", "0", 1);
  EXPECT_TRUE(retry_enabled());
  setenv("CAS_FAULT_NO_RETRY", "", 1);
  EXPECT_TRUE(retry_enabled());
}

TEST_F(RetryTest, ConnectWithRetryOutlivesALateListener) {
  // Discover a free port, leave it closed, and bind it only after the
  // client's first attempts have been refused — the startup race every
  // rank runs against the coordinator's bind.
  std::string err;
  uint16_t port = 0;
  {
    Fd probe = listen_tcp("127.0.0.1", 0, 4, err);
    ASSERT_TRUE(probe.valid()) << err;
    port = local_port(probe.get());
  }  // closed: connects now fail ECONNREFUSED

  Fd listener;
  std::thread binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string lerr;
    listener = listen_tcp("127.0.0.1", port, 4, lerr);
  });

  BackoffOptions opts;
  opts.max_attempts = 12;
  opts.initial_delay_ms = 25.0;
  opts.max_delay_ms = 100.0;
  BlockingClient client;
  const bool ok = client.connect_with_retry("127.0.0.1", port, opts, /*salt=*/1);
  binder.join();
  ASSERT_TRUE(listener.valid()) << "listener bind raced away; cannot judge the retry";
  EXPECT_TRUE(ok) << client.error();
}

TEST_F(RetryTest, NoRetryMakesTheSameConnectFailImmediately) {
  std::string err;
  uint16_t port = 0;
  {
    Fd probe = listen_tcp("127.0.0.1", 0, 4, err);
    ASSERT_TRUE(probe.valid()) << err;
    port = local_port(probe.get());
  }
  setenv("CAS_FAULT_NO_RETRY", "1", 1);
  BackoffOptions opts;
  opts.initial_delay_ms = 200.0;  // would be a visible stall if retried
  BlockingClient client;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect_with_retry("127.0.0.1", port, opts, /*salt=*/1));
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(ms, 150.0) << "a single attempt should not have slept the backoff schedule";
}

TEST_F(RetryTest, RankCommRendezvousRetriesThroughARefusedAccept) {
  // The coordinator's first accept is refused by the injector (connection
  // closed before hello can land); the rank's rendezvous must retry and
  // the second attempt assembles the world. The retry is observable in
  // the comm's own counters.
  FaultInjector::arm(
      FaultPlan::parse(util::Json::parse(R"({"seed": 8, "refuse_accept": {"prob": 1.0, "max": 1}})")));
  dist::CoordinatorOptions co;
  co.ranks = 1;
  dist::Coordinator coord(co);

  dist::RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 1;
  o.connect_timeout_seconds = 20.0;
  o.rendezvous_backoff.initial_delay_ms = 5.0;
  dist::RankComm comm(o);
  EXPECT_EQ(comm.rank(), 0);
  const util::Json stats = comm.stats_json();
  EXPECT_GE(stats.at("rendezvous_retries").as_int(), 1);
  EXPECT_EQ(FaultInjector::stats().refusals.load(), 1u);
  comm.finalize();
  coord.stop();
}

TEST_F(RetryTest, NoRetryTurnsTheRefusedAcceptFatal) {
  // The negative control the chaos driver automates: the same fault that
  // the retry path absorbs must abort the rendezvous when retries are off.
  FaultInjector::arm(
      FaultPlan::parse(util::Json::parse(R"({"seed": 8, "refuse_accept": {"prob": 1.0, "max": 1}})")));
  setenv("CAS_FAULT_NO_RETRY", "1", 1);
  dist::CoordinatorOptions co;
  co.ranks = 1;
  dist::Coordinator coord(co);

  dist::RankCommOptions o;
  o.port = coord.port();
  o.rank = 0;
  o.ranks = 1;
  o.connect_timeout_seconds = 10.0;
  EXPECT_THROW(dist::RankComm comm(o), dist::CommError);
  coord.stop();
}

/// A listener for a test to play the coordinator on, accepting by hand.
struct FakeListener {
  Fd fd;
  uint16_t port = 0;
  FakeListener() {
    std::string err;
    fd = listen_tcp("127.0.0.1", 0, 4, err);
    EXPECT_TRUE(fd.valid()) << err;
    port = local_port(fd.get());
  }
  /// The next connection, or an invalid Fd when none arrives in `ms`.
  Fd accept_within(int ms) {
    pollfd pfd{fd.get(), POLLIN, 0};
    if (::poll(&pfd, 1, ms) <= 0) return Fd{};
    return Fd(::accept(fd.get(), nullptr, nullptr));
  }
};

TEST_F(RetryTest, QuietWelcomeWindowRetriesWithoutSpendingBackoff) {
  // A coordinator that reads the hello and answers nothing (still waiting
  // on other ranks, say) costs the member one attempt window, not a
  // backoff attempt: with no backoff budget at all the second attempt's
  // welcome still lands.
  FakeListener coordinator;
  std::jthread serve([&] {
    {
      dist::test::FakeRank first(coordinator.accept_within(10000));
      ASSERT_FALSE(first.await("hello").is_null());
      (void)first.await("never");  // silent until the member hangs up
    }
    dist::test::FakeRank second(coordinator.accept_within(10000));
    ASSERT_FALSE(second.await("hello").is_null());
    second.send(dist::make_welcome(0, 1));
    (void)second.await("bye");
  });
  dist::RankCommOptions o;
  o.port = coordinator.port;
  o.heartbeat_interval_seconds = 0;
  o.rendezvous_backoff.max_attempts = 0;  // a hard fault would fail at once
  const auto t0 = std::chrono::steady_clock::now();
  dist::RankComm comm(o);
  const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(s, dist::RankComm::kRendezvousAttemptSeconds * 0.9);
  EXPECT_EQ(comm.stats_json().at("rendezvous_retries").as_int(), 1);
  comm.finalize();
}

TEST_F(RetryTest, RendezvousAbortIsFinal) {
  // A deliberate refusal fails the rendezvous with its reason on the first
  // attempt, although the backoff budget would allow more.
  FakeListener coordinator;
  std::jthread serve([&] {
    dist::test::FakeRank member(coordinator.accept_within(10000));
    ASSERT_FALSE(member.await("hello").is_null());
    member.send(dist::make_abort("coordinator: wire version mismatch (test)"));
    (void)member.await("never");
  });
  dist::RankCommOptions o;
  o.port = coordinator.port;
  o.heartbeat_interval_seconds = 0;
  try {
    dist::RankComm comm(o);
    ADD_FAILURE() << "the rendezvous survived an abort";
  } catch (const dist::CommError& e) {
    EXPECT_NE(std::string(e.what()).find("wire version mismatch (test)"), std::string::npos)
        << e.what();
  }
  serve.join();
  EXPECT_FALSE(coordinator.accept_within(300).valid()) << "the member dialed again";
}

}  // namespace
}  // namespace cas::net
