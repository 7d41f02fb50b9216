// MPI-style collectives on the in-process communicator: barrier semantics,
// broadcast/reduce/allreduce/gather correctness, interleaving with
// point-to-point traffic (the solution-found protocol), and sequence
// alignment under stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/rng.hpp"
#include "par/comm.hpp"

namespace cas::par {
namespace {

TEST(Barrier, SynchronizesAllRanks) {
  const int n = 8;
  Comm comm(n);
  std::atomic<int> arrived{0};
  comm.run([&](RankCtx& ctx) {
    arrived.fetch_add(1);
    ctx.barrier();
    // Nobody passes the barrier until everyone has arrived.
    EXPECT_EQ(arrived.load(), n);
  });
}

TEST(Barrier, RepeatedRoundsStayAligned) {
  const int n = 6, rounds = 50;
  Comm comm(n);
  std::vector<std::atomic<int>> counters(rounds);
  comm.run([&](RankCtx& ctx) {
    for (int r = 0; r < rounds; ++r) {
      counters[static_cast<size_t>(r)].fetch_add(1);
      ctx.barrier();
      EXPECT_EQ(counters[static_cast<size_t>(r)].load(), n) << "round " << r;
    }
  });
}

TEST(Barrier, SingleRankIsNoop) {
  Comm comm(1);
  comm.run([&](RankCtx& ctx) {
    ctx.barrier();
    ctx.barrier();
    SUCCEED();
  });
}

TEST(Broadcast, RootZeroDeliversToAll) {
  const int n = 7;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const std::vector<int64_t> payload{42, -7, 1'000'000'007};
    const auto got = ctx.broadcast(0, ctx.rank() == 0 ? payload : std::vector<int64_t>{});
    EXPECT_EQ(got, payload);
  });
}

TEST(Broadcast, NonZeroRoot) {
  const int n = 5;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const std::vector<int64_t> payload{static_cast<int64_t>(1) << 40};
    const auto got = ctx.broadcast(3, ctx.rank() == 3 ? payload : std::vector<int64_t>{});
    EXPECT_EQ(got, payload);
  });
}

TEST(Broadcast, BadRootThrows) {
  Comm comm(2);
  EXPECT_THROW(comm.run([&](RankCtx& ctx) { (void)ctx.broadcast(5, {}); }),
               std::out_of_range);
}

TEST(Broadcast, DoesNotConsumePointToPointMessages) {
  // Every rank first posts a SOLUTION_FOUND to rank 0, then all ranks run a
  // broadcast. The collective must leave the p2p messages intact.
  const int n = 4;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    if (ctx.rank() != 0) ctx.send(0, Message{kTagSolutionFound, ctx.rank(), {ctx.rank()}});
    ctx.barrier();  // all p2p messages posted
    const auto got = ctx.broadcast(0, {123});
    EXPECT_EQ(got, (std::vector<int64_t>{123}));
    if (ctx.rank() == 0) {
      int p2p_seen = 0;
      while (auto m = ctx.try_recv()) {
        EXPECT_EQ(m->tag, kTagSolutionFound);
        ++p2p_seen;
      }
      EXPECT_EQ(p2p_seen, n - 1);
    }
  });
}

TEST(RecvTagged, SelectsByTagLeavingOthersQueued) {
  Comm comm(2);
  comm.run([&](RankCtx& ctx) {
    if (ctx.rank() == 1) {
      ctx.send(0, Message{kTagSolutionFound, 1, {11}});
      ctx.send(0, Message{kTagTerminate, 1, {22}});
      return;
    }
    const Message t = ctx.recv_tagged(kTagTerminate);
    EXPECT_EQ(t.payload, (std::vector<int64_t>{22}));
    const Message s = ctx.recv_tagged(kTagSolutionFound);
    EXPECT_EQ(s.payload, (std::vector<int64_t>{11}));
  });
}

TEST(Reduce, SumMinMax) {
  const int n = 9;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const auto r = static_cast<int64_t>(ctx.rank());
    const auto sum = ctx.reduce(0, {r, r * r}, ReduceOp::kSum);
    const auto mn = ctx.reduce(0, {r}, ReduceOp::kMin);
    const auto mx = ctx.reduce(0, {r}, ReduceOp::kMax);
    if (ctx.rank() == 0) {
      // sum 0..8 = 36; sum of squares = 204.
      EXPECT_EQ(sum, (std::vector<int64_t>{36, 204}));
      EXPECT_EQ(mn, (std::vector<int64_t>{0}));
      EXPECT_EQ(mx, (std::vector<int64_t>{8}));
    } else {
      EXPECT_TRUE(sum.empty());
      EXPECT_TRUE(mn.empty());
      EXPECT_TRUE(mx.empty());
    }
  });
}

TEST(Reduce, NonZeroRoot) {
  const int n = 4;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const auto got = ctx.reduce(2, {1}, ReduceOp::kSum);
    if (ctx.rank() == 2) {
      EXPECT_EQ(got, (std::vector<int64_t>{n}));
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Reduce, LengthMismatchThrows) {
  Comm comm(2);
  EXPECT_THROW(comm.run([&](RankCtx& ctx) {
                 const std::vector<int64_t> v =
                     ctx.rank() == 0 ? std::vector<int64_t>{1, 2} : std::vector<int64_t>{1};
                 (void)ctx.reduce(0, v, ReduceOp::kSum);
               }),
               std::invalid_argument);
}

TEST(Allreduce, EveryRankSeesTheCombination) {
  const int n = 6;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const auto r = static_cast<int64_t>(ctx.rank());
    const auto got = ctx.allreduce({r + 1}, ReduceOp::kSum);
    EXPECT_EQ(got, (std::vector<int64_t>{21}));  // 1+2+...+6
    const auto mx = ctx.allreduce({(r % 2 == 0) ? r : -r}, ReduceOp::kMax);
    EXPECT_EQ(mx, (std::vector<int64_t>{4}));
  });
}

TEST(Gather, RootIndexedBySource) {
  const int n = 5;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    const auto r = static_cast<int64_t>(ctx.rank());
    // Deliberately rank-dependent lengths: gather permits ragged payloads.
    std::vector<int64_t> mine(static_cast<size_t>(r + 1), r);
    const auto got = ctx.gather(0, mine);
    if (ctx.rank() == 0) {
      ASSERT_EQ(got.size(), static_cast<size_t>(n));
      for (int src = 0; src < n; ++src) {
        ASSERT_EQ(got[static_cast<size_t>(src)].size(), static_cast<size_t>(src + 1));
        for (int64_t v : got[static_cast<size_t>(src)]) EXPECT_EQ(v, src);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(CollectiveStress, MixedSequenceStaysAligned) {
  // Many rounds of interleaved collectives with jittered timing: any
  // sequence-number misalignment deadlocks (test timeout) or corrupts data.
  const int n = 5, rounds = 30;
  Comm comm(n);
  comm.run([&](RankCtx& ctx) {
    core::Rng rng(static_cast<uint64_t>(ctx.rank()) + 1);
    for (int round = 0; round < rounds; ++round) {
      if (rng.chance(0.3))
        std::this_thread::sleep_for(std::chrono::microseconds(rng.below(200)));
      const auto r = static_cast<int64_t>(ctx.rank());
      const auto sum = ctx.allreduce({r, static_cast<int64_t>(round)}, ReduceOp::kSum);
      ASSERT_EQ(sum[0], n * (n - 1) / 2) << "round " << round;
      ASSERT_EQ(sum[1], static_cast<int64_t>(round) * n) << "round " << round;
      const auto bc = ctx.broadcast(round % n, {static_cast<int64_t>(round * 7)});
      ASSERT_EQ(bc, (std::vector<int64_t>{static_cast<int64_t>(round * 7)}));
      ctx.barrier();
    }
  });
}

TEST(CollectiveStress, SingleRankAllOps) {
  Comm comm(1);
  comm.run([&](RankCtx& ctx) {
    ctx.barrier();
    EXPECT_EQ(ctx.broadcast(0, {5}), (std::vector<int64_t>{5}));
    EXPECT_EQ(ctx.reduce(0, {9}, ReduceOp::kMax), (std::vector<int64_t>{9}));
    EXPECT_EQ(ctx.allreduce({3}, ReduceOp::kSum), (std::vector<int64_t>{3}));
    const auto g = ctx.gather(0, {1, 2});
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0], (std::vector<int64_t>{1, 2}));
  });
}

}  // namespace
}  // namespace cas::par
