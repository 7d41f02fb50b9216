// Loopback integration for the cas_serve engine: a real net::Server on an
// ephemeral port, driven by BlockingClients from other threads. Covers
// the full request/response protocol, concurrent clients coalescing onto
// one execution over the wire, overload rejection with max_inflight,
// write backpressure against a stalled reader, protocol-error handling,
// and graceful drain (in-flight finishes, listener refuses, run() exits).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace cas::net {
namespace {

util::Json solve_frame(const std::string& id, int size, uint64_t seed, double timeout = 0,
                       int walkers = 2) {
  util::Json req = util::Json::object();
  req["id"] = id;
  req["problem"] = "costas";
  req["size"] = size;
  req["strategy"] = "multiwalk";
  req["walkers"] = walkers;
  req["seed"] = seed;
  if (timeout > 0) req["timeout_seconds"] = timeout;
  util::Json msg = util::Json::object();
  msg["type"] = "solve";
  msg["request"] = req;
  return msg;
}

/// Read frames until the report for `id` arrives; returns its "report"
/// object. Progress/pong/stats frames along the way are skipped.
util::Json await_report(BlockingClient& client, const std::string& id,
                        double timeout_seconds = 60.0) {
  for (;;) {
    auto frame = client.recv_json(timeout_seconds);
    if (!frame) {
      ADD_FAILURE() << "no report for " << id << " (error: " << client.error()
                    << ", eof: " << client.eof() << ")";
      return {};
    }
    const util::Json* type = frame->find("type");
    if (type == nullptr || !type->is_string()) continue;
    if (type->as_string() == "error") {
      ADD_FAILURE() << "error frame while waiting for " << id << ": " << frame->dump(0);
      return {};
    }
    if (type->as_string() != "report") continue;
    const util::Json& rep = frame->at("report");
    if (rep.at("request").at("id").as_string() == id) return rep;
  }
}

/// A live server on an ephemeral port with its run() loop on a thread.
struct TestServer {
  Server server;
  std::thread thread;

  explicit TestServer(ServerOptions opts) : server(std::move(opts)) {
    server.listen();
    thread = std::thread([this] { server.run(); });
  }
  ~TestServer() {
    server.request_drain();
    if (thread.joinable()) thread.join();
  }
  [[nodiscard]] uint16_t port() const { return server.port(); }
};

ServerOptions fast_options() {
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  opts.service.pool_threads = 4;
  opts.service.cache_capacity = 32;
  return opts;
}

TEST(NetServer, SolveOverSocketProgressThenReport) {
  TestServer ts(fast_options());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();
  ASSERT_TRUE(client.send_json(solve_frame("wire-1", 12, 7)));

  // First frame must be the acceptance progress event.
  auto first = client.recv_json(30.0);
  ASSERT_TRUE(first.has_value()) << client.error();
  EXPECT_EQ(first->at("type").as_string(), "progress");
  EXPECT_EQ(first->at("id").as_string(), "wire-1");
  EXPECT_EQ(first->at("event").as_string(), "accepted");

  const util::Json rep = await_report(client, "wire-1");
  EXPECT_TRUE(rep.at("solved").as_bool());
  EXPECT_EQ(rep.at("served_by").as_string(), "executed");
  EXPECT_EQ(rep.at("request").at("seed").as_int(), 7);
}

TEST(NetServer, PingStatsAndUnknownType) {
  TestServer ts(fast_options());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();

  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  ASSERT_TRUE(client.send_json(ping));
  auto pong = client.recv_json(10.0);
  ASSERT_TRUE(pong.has_value()) << client.error();
  EXPECT_EQ(pong->at("type").as_string(), "pong");

  util::Json stats = util::Json::object();
  stats["type"] = "stats";
  ASSERT_TRUE(client.send_json(stats));
  auto sf = client.recv_json(10.0);
  ASSERT_TRUE(sf.has_value()) << client.error();
  EXPECT_EQ(sf->at("type").as_string(), "stats");
  EXPECT_TRUE(sf->at("service").is_object());
  EXPECT_TRUE(sf->at("server").is_object());
  // The per-outcome latency block (ServiceStats histograms) must ride the
  // wire, so cas_load can report server-side percentiles.
  EXPECT_TRUE(sf->at("service").contains("latency"));

  util::Json bogus = util::Json::object();
  bogus["type"] = "frobnicate";
  ASSERT_TRUE(client.send_json(bogus));
  auto err = client.recv_json(10.0);
  ASSERT_TRUE(err.has_value()) << client.error();
  EXPECT_EQ(err->at("type").as_string(), "error");
}

TEST(NetServer, ConcurrentClientsCoalesceOverTheWire) {
  TestServer ts(fast_options());
  // Eight clients race the SAME canonical work (ids differ; the dedup key
  // ignores them): the service must run it at most... exactly once, and
  // every client still gets its own report.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> solved{0};
  std::atomic<int> executed{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      BlockingClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();
      const std::string id = "race-" + std::to_string(i);
      ASSERT_TRUE(client.send_json(solve_frame(id, 13, 42, /*timeout=*/0, /*walkers=*/2)));
      const util::Json rep = await_report(client, id);
      if (rep.is_object() && rep.at("solved").as_bool()) ++solved;
      if (rep.is_object() && rep.at("served_by").as_string() == "executed") ++executed;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(solved.load(), kClients);
  EXPECT_EQ(executed.load(), 1);  // everyone else: dedup or cache

  const auto stats = ts.server.service().stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.dedup_hits + stats.cache_hits, static_cast<uint64_t>(kClients - 1));
}

TEST(NetServer, MaxInflightOverflowRejectsBeforeQueueing) {
  ServerOptions opts = fast_options();
  opts.max_inflight = 1;
  TestServer ts(std::move(opts));
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();

  // A deliberately long request (stochastic, wall-clock bounded) pins the
  // single in-flight slot; the two distinct requests behind it must be
  // shed with rejection reports, not queued.
  ASSERT_TRUE(client.send_json(solve_frame("long", 18, 0, /*timeout=*/0.5, /*walkers=*/1)));
  ASSERT_TRUE(client.send_json(solve_frame("shed-1", 12, 5)));
  ASSERT_TRUE(client.send_json(solve_frame("shed-2", 13, 6)));

  const util::Json r1 = await_report(client, "shed-1");
  const util::Json r2 = await_report(client, "shed-2");
  for (const util::Json* r : {&r1, &r2}) {
    ASSERT_TRUE(r->is_object());
    EXPECT_EQ(r->at("served_by").as_string(), "rejected");
    EXPECT_NE(r->at("error").as_string().find("overloaded"), std::string::npos);
  }
  const util::Json rl = await_report(client, "long");
  EXPECT_TRUE(rl.is_object());  // solved or clean timeout — but it completed
  EXPECT_EQ(ts.server.service().stats().executions, 1u);
}

TEST(NetServer, OversizedSolveIsRejectedNamingTheLimit) {
  // A size or walker count past resolve()'s caps would ask for gigabytes
  // per walker; it comes back as an error report instead of an allocation.
  TestServer ts(fast_options());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();
  ASSERT_TRUE(client.send_json(solve_frame("huge-n", 20000, 1)));
  const util::Json n = await_report(client, "huge-n");
  ASSERT_TRUE(client.send_json(solve_frame("huge-k", 12, 1, /*timeout=*/0, 100000000)));
  const util::Json k = await_report(client, "huge-k");
  ASSERT_TRUE(n.is_object() && k.is_object());
  EXPECT_NE(n.at("error").as_string().find("limit of 64"), std::string::npos);
  EXPECT_NE(k.at("error").as_string().find("walkers must be <="), std::string::npos);
  EXPECT_EQ(ts.server.service().stats().solved, 0u);
}

TEST(NetServer, UnresolvableSolveIsRejectedWithoutAnExecution) {
  // An unknown problem and a retired strategy come back over the socket as
  // rejections naming what resolve() refused; the service runs nothing.
  TestServer ts(fast_options());
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();
  util::Json unknown = solve_frame("unknown", 12, 1);
  unknown["request"]["problem"] = "nonesuch";
  util::Json retired = solve_frame("retired", 12, 1);
  retired["request"]["strategy"] = "cooperative";
  ASSERT_TRUE(client.send_json(unknown));
  const util::Json u = await_report(client, "unknown");
  ASSERT_TRUE(client.send_json(retired));
  const util::Json r = await_report(client, "retired");
  ASSERT_TRUE(u.is_object() && r.is_object());
  EXPECT_EQ(u.at("served_by").as_string(), "rejected");
  EXPECT_EQ(r.at("served_by").as_string(), "rejected");
  EXPECT_NE(u.at("error").as_string().find("nonesuch"), std::string::npos);
  EXPECT_NE(r.at("error").as_string().find("cooperative"), std::string::npos);
  const runtime::ServiceStats stats = ts.server.service().stats();
  EXPECT_EQ(stats.executions, 0u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(ts.server.service().inflight(), 0u);
}

TEST(NetServer, BackpressurePausesStalledReaderThenRecovers) {
  ServerOptions opts = fast_options();
  opts.write_buffer_limit = 4096;  // tiny high-water mark
  TestServer ts(std::move(opts));

  BlockingClient stalled;
  ASSERT_TRUE(stalled.connect("127.0.0.1", ts.port())) << stalled.error();

  // Pump stats requests WITHOUT reading replies: each response is ~2 KiB,
  // so kernel buffers fill, the server's outbuf crosses the limit, and it
  // must stop reading us instead of buffering without bound. The sender
  // thread then naturally stalls in send() — that is the backpressure
  // propagating — until the reader below starts draining.
  constexpr int kBursts = 4000;
  std::thread pump([&] {
    util::Json stats = util::Json::object();
    stats["type"] = "stats";
    for (int i = 0; i < kBursts; ++i)
      if (!stalled.send_text(stats.dump(0))) return;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // let it clog
  int got = 0;
  while (got < kBursts) {
    auto frame = stalled.recv_json(20.0);
    ASSERT_TRUE(frame.has_value()) << "after " << got << " frames: " << stalled.error();
    if (frame->at("type").as_string() == "stats") ++got;
  }
  pump.join();

  // A fresh connection's stats frame reports the pauses.
  BlockingClient probe;
  ASSERT_TRUE(probe.connect("127.0.0.1", ts.port())) << probe.error();
  util::Json q = util::Json::object();
  q["type"] = "stats";
  ASSERT_TRUE(probe.send_json(q));
  auto sf = probe.recv_json(10.0);
  ASSERT_TRUE(sf.has_value()) << probe.error();
  EXPECT_GE(sf->at("server").at("backpressure_pauses").as_int(), 1);
}

TEST(NetServer, ProtocolGarbageGetsErrorFrameThenClose) {
  ServerOptions opts = fast_options();
  opts.max_frame_bytes = 1 << 16;
  TestServer ts(std::move(opts));
  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();

  // A length prefix far above max_frame_bytes: unrecoverable framing —
  // the server answers with an error frame and hangs up.
  const char huge[8] = {'\x7f', '\x7f', '\x7f', '\x7f', 'x', 'x', 'x', 'x'};
  ASSERT_EQ(::send(client.fd(), huge, sizeof(huge), 0), static_cast<ssize_t>(sizeof(huge)));
  auto err = client.recv_json(10.0);
  ASSERT_TRUE(err.has_value()) << client.error();
  EXPECT_EQ(err->at("type").as_string(), "error");
  EXPECT_NE(err->at("error").as_string().find("exceeds limit"), std::string::npos);
  EXPECT_FALSE(client.recv_frame(10.0).has_value());
  EXPECT_TRUE(client.eof());

  // Valid JSON that is not a valid solve request: error frame, connection
  // survives.
  BlockingClient client2;
  ASSERT_TRUE(client2.connect("127.0.0.1", ts.port())) << client2.error();
  util::Json bad = util::Json::object();
  bad["type"] = "solve";  // missing "request"
  ASSERT_TRUE(client2.send_json(bad));
  auto e2 = client2.recv_json(10.0);
  ASSERT_TRUE(e2.has_value()) << client2.error();
  EXPECT_EQ(e2->at("type").as_string(), "error");
  util::Json ping = util::Json::object();
  ping["type"] = "ping";
  ASSERT_TRUE(client2.send_json(ping));
  auto pong = client2.recv_json(10.0);
  ASSERT_TRUE(pong.has_value()) << client2.error();
  EXPECT_EQ(pong->at("type").as_string(), "pong");
}

TEST(NetServer, GracefulDrainFinishesInflightRefusesNewAndExits) {
  ServerOptions opts = fast_options();
  opts.drain_timeout_seconds = 30.0;
  Server server(std::move(opts));
  server.listen();
  const uint16_t port = server.port();
  std::thread runner;
  // Joins the loop thread on EVERY exit path — a failed ASSERT returns
  // early, and a joinable std::thread destructor would abort the suite.
  struct JoinGuard {
    Server& server;
    std::thread& thread;
    ~JoinGuard() {
      server.request_drain();
      if (thread.joinable()) thread.join();
    }
  } guard{server, runner};
  runner = std::thread([&] { server.run(); });

  BlockingClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", port)) << client.error();
  // In-flight work (wall-clock bounded so the test terminates), then the
  // drain request on the same connection.
  ASSERT_TRUE(client.send_json(solve_frame("inflight", 17, 0, /*timeout=*/0.8, /*walkers=*/2)));
  util::Json drain = util::Json::object();
  drain["type"] = "drain";
  ASSERT_TRUE(client.send_json(drain));

  // Acknowledged...
  bool saw_draining = false;
  for (int i = 0; i < 4 && !saw_draining; ++i) {
    auto frame = client.recv_json(10.0);
    ASSERT_TRUE(frame.has_value()) << client.error();
    saw_draining = frame->at("type").as_string() == "draining";
  }
  EXPECT_TRUE(saw_draining);

  // ...a new solve on the EXISTING connection is shed as draining...
  ASSERT_TRUE(client.send_json(solve_frame("late", 12, 9)));
  const util::Json late = await_report(client, "late");
  ASSERT_TRUE(late.is_object());
  EXPECT_EQ(late.at("served_by").as_string(), "rejected");
  EXPECT_NE(late.at("error").as_string().find("draining"), std::string::npos);

  // ...the in-flight request still completes...
  const util::Json rep = await_report(client, "inflight");
  ASSERT_TRUE(rep.is_object());
  EXPECT_EQ(rep.find("error"), nullptr);  // completed cleanly (solved or timeout)

  // ...new connections are refused (listener closed)...
  BlockingClient refused;
  EXPECT_FALSE(refused.connect("127.0.0.1", port));

  // ...and run() returns once everything is flushed.
  runner.join();
  EXPECT_FALSE(client.recv_frame(5.0).has_value());  // server closed us
  EXPECT_EQ(server.stats().shed_draining, 1u);
}

TEST(NetServer, PollBackendServesSolvesToo) {
  setenv("CAS_NET_BACKEND", "poll", 1);
  {
    TestServer ts(fast_options());
    ASSERT_STREQ(ts.server.backend(), "poll");
    BlockingClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", ts.port())) << client.error();
    ASSERT_TRUE(client.send_json(solve_frame("poll-1", 12, 11)));
    const util::Json rep = await_report(client, "poll-1");
    ASSERT_TRUE(rep.is_object());
    EXPECT_TRUE(rep.at("solved").as_bool());
  }
  unsetenv("CAS_NET_BACKEND");
}

}  // namespace
}  // namespace cas::net
