// The collective algorithms (barrier, broadcast, reduce, allreduce,
// gather) implemented ONCE over a minimal endpoint surface, so the
// in-process communicator (par::Comm's RankCtx) and the socket-backed
// distributed communicator (dist::RankComm) execute byte-identical
// control flow. Trajectory compatibility between the two backends — the
// same cooperation-round decisions given the same exchanged payloads — is
// a consequence of this sharing, and a parity test pins it.
//
// On top of the raw vector<int64_t> collectives sit the typed wrappers the
// distributed runner's epilogue calls (named operations over typed values
// instead of raw buffers): allreduce_minloc for "which rank solved first"
// and gather of per-rank RankSummary rows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "par/mailbox.hpp"

namespace cas::par {

/// Element-wise combiner for reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

/// What the collective algorithms need from a communicator endpoint:
/// identity, a non-blocking post to any rank, and blocking selective
/// receive of collective frames. RankCtx (threads + shared mailboxes) and
/// dist::RankComm (TCP through the coordinator) both satisfy this.
template <typename EP>
concept CollectiveEndpoint = requires(EP ep, const EP cep, int dest, Message msg, int tag,
                                      int64_t seq) {
  { cep.rank() } -> std::convertible_to<int>;
  { cep.size() } -> std::convertible_to<int>;
  ep.send(dest, msg);
  { ep.recv_collective(tag, seq) } -> std::convertible_to<Message>;
  { ep.next_seq() } -> std::convertible_to<int64_t>;
};

namespace detail {

/// Collective payload layout: [seq, data...].
inline std::vector<int64_t> with_seq(int64_t seq, std::span<const int64_t> data) {
  std::vector<int64_t> payload;
  payload.reserve(data.size() + 1);
  payload.push_back(seq);
  payload.insert(payload.end(), data.begin(), data.end());
  return payload;
}

inline std::vector<int64_t> strip_seq(const Message& m) {
  return {m.payload.begin() + 1, m.payload.end()};
}

inline void combine(std::vector<int64_t>& acc, const std::vector<int64_t>& in, ReduceOp op) {
  if (acc.size() != in.size())
    throw std::invalid_argument("reduce: ranks contributed different lengths");
  for (size_t k = 0; k < acc.size(); ++k) {
    switch (op) {
      case ReduceOp::kSum: acc[k] += in[k]; break;
      case ReduceOp::kMin: acc[k] = std::min(acc[k], in[k]); break;
      case ReduceOp::kMax: acc[k] = std::max(acc[k], in[k]); break;
    }
  }
}

}  // namespace detail

// --- raw collectives -------------------------------------------------------
// Every rank of the communicator must call the same collectives in the same
// order (the MPI contract). The caller advances one sequence number per
// collective call; selective receive on (tag, seq) keeps back-to-back
// collectives of the same kind from cross-talking.

/// Block until every rank has entered the barrier.
template <CollectiveEndpoint EP>
void collective_barrier(EP& ep, int64_t seq) {
  const int n = ep.size();
  if (n == 1) return;
  if (ep.rank() == 0) {
    for (int arrived = 1; arrived < n; ++arrived) (void)ep.recv_collective(kTagBarrier, seq);
    for (int r = 1; r < n; ++r) ep.send(r, Message{kTagBarrier, ep.rank(), {seq}});
  } else {
    ep.send(0, Message{kTagBarrier, ep.rank(), {seq}});
    (void)ep.recv_collective(kTagBarrier, seq);
  }
}

/// Root's `values` is distributed to every rank; others' input is ignored.
/// Returns the broadcast payload on all ranks.
template <CollectiveEndpoint EP>
std::vector<int64_t> collective_broadcast(EP& ep, int64_t seq, int root,
                                          std::vector<int64_t> values) {
  if (root < 0 || root >= ep.size()) throw std::out_of_range("broadcast: bad root");
  if (ep.size() == 1) return values;
  if (ep.rank() == root) {
    const auto payload = detail::with_seq(seq, values);
    for (int r = 0; r < ep.size(); ++r) {
      if (r != ep.rank()) ep.send(r, Message{kTagBroadcast, ep.rank(), payload});
    }
    return values;
  }
  return detail::strip_seq(ep.recv_collective(kTagBroadcast, seq));
}

/// Element-wise reduction of every rank's `values` (all must have equal
/// length). The combined vector is returned at the root; other ranks get an
/// empty vector.
template <CollectiveEndpoint EP>
std::vector<int64_t> collective_reduce(EP& ep, int64_t seq, int root,
                                       const std::vector<int64_t>& values, ReduceOp op) {
  if (root < 0 || root >= ep.size()) throw std::out_of_range("reduce: bad root");
  if (ep.size() == 1) return values;
  if (ep.rank() == root) {
    std::vector<int64_t> acc = values;
    for (int contributions = 1; contributions < ep.size(); ++contributions) {
      const Message m = ep.recv_collective(kTagReduce, seq);
      detail::combine(acc, detail::strip_seq(m), op);
    }
    return acc;
  }
  ep.send(root, Message{kTagReduce, ep.rank(), detail::with_seq(seq, values)});
  return {};
}

/// reduce at rank 0 followed by broadcast: every rank receives the
/// combination. Consumes TWO sequence numbers.
template <CollectiveEndpoint EP>
std::vector<int64_t> collective_allreduce(EP& ep, int64_t reduce_seq, int64_t bcast_seq,
                                          const std::vector<int64_t>& values, ReduceOp op) {
  auto combined = collective_reduce(ep, reduce_seq, 0, values, op);
  return collective_broadcast(ep, bcast_seq, 0, std::move(combined));
}

/// Root receives every rank's vector, indexed by source rank; other ranks
/// get an empty result.
template <CollectiveEndpoint EP>
std::vector<std::vector<int64_t>> collective_gather(EP& ep, int64_t seq, int root,
                                                    const std::vector<int64_t>& values) {
  if (root < 0 || root >= ep.size()) throw std::out_of_range("gather: bad root");
  if (ep.rank() != root) {
    ep.send(root, Message{kTagGather, ep.rank(), detail::with_seq(seq, values)});
    return {};
  }
  std::vector<std::vector<int64_t>> out(static_cast<size_t>(ep.size()));
  out[static_cast<size_t>(ep.rank())] = values;
  for (int contributions = 1; contributions < ep.size(); ++contributions) {
    const Message m = ep.recv_collective(kTagGather, seq);
    out[static_cast<size_t>(m.source)] = detail::strip_seq(m);
  }
  return out;
}

// --- typed wrappers --------------------------------------------------------
// The operations dist::solve_distributed closes every request with. Each
// one burns sequence numbers through the endpoint's next_seq() so the raw
// and typed forms can interleave freely.

/// "Which rank holds the minimum value?" — MPI_MINLOC. Ties break to the
/// LOWEST rank on every backend (value is compared first, then rank), so
/// the decision is deterministic given the exchanged payloads.
struct MinLoc {
  int64_t value = std::numeric_limits<int64_t>::max();
  int rank = -1;
};

template <CollectiveEndpoint EP>
MinLoc allreduce_minloc(EP& ep, int64_t value) {
  // Encode (value, rank) so kMin over the pair-as-lexicographic surrogate
  // cannot be done element-wise; gather-at-root + broadcast keeps the
  // decision in one deterministic place instead.
  const auto rows = collective_gather(ep, ep.next_seq(), 0, {value});
  std::vector<int64_t> decision(2);
  if (ep.rank() == 0) {
    MinLoc best;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].empty()) continue;
      if (best.rank < 0 || rows[r][0] < best.value) {
        best.value = rows[r][0];
        best.rank = static_cast<int>(r);
      }
    }
    decision = {best.value, best.rank};
  }
  decision = collective_broadcast(ep, ep.next_seq(), 0, std::move(decision));
  return MinLoc{decision[0], static_cast<int>(decision[1])};
}

/// Per-rank run summary combined inside the communicator at the end of a
/// distributed walk — what a production MPI build would MPI_Gather before
/// finalize. Wall/reset seconds travel as microseconds (the payloads are
/// integer vectors).
struct RankSummary {
  int64_t iterations = 0;
  int64_t solved = 0;
  int64_t walkers_run = 0;
  int64_t final_cost = -1;
  int64_t wall_micros = 0;
  int64_t winner_local = -1;  // this rank's winning walker index (-1: none)

  [[nodiscard]] std::vector<int64_t> to_payload() const {
    return {iterations, solved, walkers_run, final_cost, wall_micros, winner_local};
  }
  static RankSummary from_payload(const std::vector<int64_t>& p) {
    RankSummary s;
    if (p.size() != 6) throw std::invalid_argument("RankSummary: bad payload length");
    s.iterations = p[0];
    s.solved = p[1];
    s.walkers_run = p[2];
    s.final_cost = p[3];
    s.wall_micros = p[4];
    s.winner_local = p[5];
    return s;
  }
};

/// Gather every rank's summary at rank 0 (empty elsewhere).
template <CollectiveEndpoint EP>
std::vector<RankSummary> gather_summaries(EP& ep, const RankSummary& mine) {
  const auto rows = collective_gather(ep, ep.next_seq(), 0, mine.to_payload());
  std::vector<RankSummary> out;
  if (ep.rank() != 0) return out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(RankSummary::from_payload(row));
  return out;
}

}  // namespace cas::par
