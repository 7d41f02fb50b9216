// SolverService: many concurrent requests over ONE shared thread pool,
// with per-request first-win cancellation isolation (a winner in one
// request must never cancel another request's walkers) and correct
// aggregate statistics.
#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "costas/checker.hpp"

namespace cas::runtime {
namespace {

SolveRequest costas_request(const std::string& id, int size, uint64_t seed) {
  SolveRequest req;
  req.id = id;
  req.problem = "costas";
  req.size = size;
  req.strategy = "multiwalk";
  req.walkers = 2;
  req.seed = seed;
  return req;
}

TEST(SolverService, EightConcurrentRequestsShareOnePool) {
  SolverService service({/*pool_threads=*/4});
  EXPECT_EQ(service.pool().size(), 4u);

  // Eight solvable requests of mixed problems and sizes, all in flight at
  // once on the 4-thread pool.
  std::vector<SolveRequest> batch;
  batch.push_back(costas_request("c11", 11, 1));
  batch.push_back(costas_request("c12", 12, 2));
  batch.push_back(costas_request("c10", 10, 3));
  batch.push_back(costas_request("c9", 9, 4));
  SolveRequest queens;
  queens.id = "q32";
  queens.problem = "queens";
  queens.size = 32;
  queens.walkers = 2;
  batch.push_back(queens);
  SolveRequest interval;
  interval.id = "i12";
  interval.problem = "all-interval";
  interval.size = 12;
  interval.walkers = 2;
  batch.push_back(interval);
  SolveRequest langford;
  langford.id = "l11";
  langford.problem = "langford";
  langford.size = 11;
  langford.walkers = 2;
  batch.push_back(langford);
  batch.push_back(costas_request("c8", 8, 5));

  const auto reports = service.solve_batch(batch);
  ASSERT_EQ(reports.size(), 8u);
  for (size_t i = 0; i < reports.size(); ++i) {
    // Reports come back in request order with the request echoed.
    EXPECT_EQ(reports[i].request.id, batch[i].id);
    ASSERT_TRUE(reports[i].error.empty()) << batch[i].id << ": " << reports[i].error;
    EXPECT_TRUE(reports[i].solved) << batch[i].id;
    if (reports[i].checked) EXPECT_TRUE(reports[i].check_passed) << batch[i].id;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.solved, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.total_iterations, 0u);
}

TEST(SolverService, StopTokenIsolationBetweenRequests) {
  // Mix fast solvable requests with budget-capped UNSOLVABLE ones. If stop
  // flags leaked across requests, either a winner elsewhere would
  // "cancel" a capped run into a bogus solved state, or — worse — a capped
  // run's exhaustion would cancel a solvable one. Assert each request's
  // outcome is exactly its own.
  SolverService service({/*pool_threads=*/4});
  std::vector<SolveRequest> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(costas_request("solve" + std::to_string(i), 10, 10 + static_cast<uint64_t>(i)));
  for (int i = 0; i < 4; ++i) {
    auto req = costas_request("capped" + std::to_string(i), 18, 20 + static_cast<uint64_t>(i));
    req.max_iterations = 40;  // hopeless for CAP 18
    req.probe_interval = 8;
    batch.push_back(req);
  }

  const auto reports = service.solve_batch(batch);
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& rep : reports) {
    ASSERT_TRUE(rep.error.empty()) << rep.request.id << ": " << rep.error;
    if (rep.request.id.rfind("solve", 0) == 0) {
      EXPECT_TRUE(rep.solved) << rep.request.id;
      EXPECT_TRUE(costas::is_costas(rep.winner_stats.solution)) << rep.request.id;
    } else {
      EXPECT_FALSE(rep.solved) << rep.request.id;
      EXPECT_EQ(rep.winner, -1) << rep.request.id;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.solved, 4u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(SolverService, SubmitIsAsynchronous) {
  SolverService service({/*pool_threads=*/2});
  auto f1 = service.submit(costas_request("a", 11, 7));
  auto f2 = service.submit(costas_request("b", 11, 8));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  EXPECT_TRUE(r1.solved);
  EXPECT_TRUE(r2.solved);
  EXPECT_EQ(r1.request.id, "a");
  EXPECT_EQ(r2.request.id, "b");
}

TEST(SolverService, FailedRequestsCountedNotThrown) {
  SolverService service({/*pool_threads=*/2});
  SolveRequest bad;
  bad.problem = "nonesuch";
  const auto rep = service.submit(bad).get();
  EXPECT_FALSE(rep.error.empty());
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(SolverService, UnresolvableRequestsAreRejectedAtSubmit) {
  // An unknown problem and a retired strategy are answered inside submit,
  // as an admission rejection is: no thread, no pool time, no execution.
  SolverService service({/*pool_threads=*/2});
  SolveRequest unknown = costas_request("unknown", 11, 1);
  unknown.problem = "nonesuch";
  SolveRequest retired = costas_request("retired", 11, 1);
  retired.strategy = "cooperative";
  for (const SolveRequest& req : {unknown, retired}) {
    std::future<SolveReport> fut = service.submit(req);
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready) << req.id;
    EXPECT_EQ(service.inflight(), 0u) << req.id;
    const SolveReport rep = fut.get();
    EXPECT_EQ(rep.served_by, "rejected") << req.id;
    EXPECT_EQ(rep.request.id, req.id);
    EXPECT_FALSE(rep.solved);
    EXPECT_NE(rep.error.find(req.id == "unknown" ? "nonesuch" : "cooperative"), std::string::npos)
        << rep.error;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executions, 0u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.latency_executed.count(), 0u);
  EXPECT_EQ(stats.latency_rejected.count(), 2u);
}

TEST(SolverService, DestructorDrainsInFlightWork) {
  std::future<SolveReport> pending;
  {
    SolverService service({/*pool_threads=*/2});
    pending = service.submit(costas_request("drain", 12, 99));
    // Service destroyed immediately: must block until the request is done,
    // not abandon pool workers mid-walk.
  }
  const auto rep = pending.get();
  EXPECT_TRUE(rep.solved);
}

}  // namespace
}  // namespace cas::runtime
