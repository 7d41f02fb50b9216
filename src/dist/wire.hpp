// The distributed communicator's wire protocol: length-prefixed JSON
// frames (net::FrameDecoder — the same codec cas_serve speaks) carrying a
// tiny star-topology routing vocabulary between the ranks and the rank-0
// coordinator:
//
//   hello    rank -> coordinator on connect (rank, ranks, magic)
//   welcome  coordinator -> every rank once all ranks have arrived
//   msg      a routed Message (to = destination rank, -1 = broadcast
//            to every rank except the source)
//   hb       heartbeat, rank -> coordinator
//   abort    coordinator -> all ranks: a peer died / protocol violation;
//            every rank fails its communicator with the carried reason
//   bye      rank -> coordinator: clean detach (EOF after bye is not a
//            death)
//
// The elastic vocabulary (protocol v2) rides on the same codec:
//
//   join      late rank -> coordinator: admit me at the next epoch
//             boundary (no rank claim; the coordinator assigns a member
//             id in its welcome)
//   leave     rank -> coordinator: retire me at the end of this epoch
//             (graceful drain; unlike bye the walk state is rebalanced)
//   epoch     rank -> coordinator at each epoch boundary: progress,
//             solves, and drain/halt intentions for the wave
//   ckpt      rank -> coordinator just before its epoch frame: the wave
//             checkpoint file was durably written (bytes, micros)
//   rebalance coordinator -> every member once a wave completes: the new
//             membership view, per-member dense rank, walker split, and
//             (on the final wave) the winner + merged summaries
//
// The failover vocabulary (protocol v3) makes the coordinator a
// replicated role instead of a process:
//
//   state_sync coordinator -> standby member after every completed wave:
//              the full serialized wave-machine state (membership table,
//              hunt key, epoch counter, consistent-cut pointer) the
//              standby needs to promote itself if the coordinator dies
//   reconnect  survivor -> promoted coordinator: an epoch-stamped
//              re-rendezvous handshake (member id + hunt key + the last
//              completed epoch the survivor observed); the promoted
//              coordinator validates all three against its imported
//              state before re-admitting the member
//
// The leader vocabulary (protocol v5) ends a hunt at its first solve:
//
//   solved     member -> coordinator the moment one of its walkers solves
//              (walker id, solve iteration, stats)
//   leader     coordinator -> every member whenever the minimum (solve
//              iteration, walker id) over the solves it has seen improves;
//              members bound their walkers by it
//
// hello/join frames additionally carry an optional "failover" field: the
// host:port of the idle listener this member pre-bound so it can serve
// as the promotion target. The coordinator broadcasts the elected
// standby (member id + address) in every rebalance frame.
//
// Message payloads are int64 vectors; elements travel as decimal STRINGS,
// not JSON numbers, because util::Json stores numbers as doubles and a
// broadcast 64-bit seed would silently lose its low bits above 2^53. The
// elastic frames spell every 64-bit counter the same way.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace cas::dist {

/// The payload a msg frame routes between ranks.
struct Message {
  int tag = 0;
  int source = -1;
  std::vector<int64_t> payload;
};

/// msg tags of a fixed-rank request (docs/PROTOCOL.md §4.1.1).
/// SOLUTION_FOUND's payload is the sender's request index; the two
/// collectives' payloads start with their sequence number.
inline constexpr int kTagSolutionFound = 1;
inline constexpr int kTagBroadcast = 101;
inline constexpr int kTagGather = 103;

/// Unrecoverable communicator failure: a peer died, the coordinator went
/// away, or a collective timed out. The distributed runner lets this
/// propagate so the whole rank aborts cleanly instead of computing with a
/// partial world.
struct CommError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Protocol magic echoed in hello/join/reconnect frames, bumped on
/// incompatible changes. v2 added the elastic vocabulary (join/leave/
/// epoch/ckpt/rebalance); v3 added coordinator failover (state_sync/
/// reconnect + the standby fields on rebalance); v4 closes a fixed-rank
/// request with one gather and one broadcast and stamps SOLUTION_FOUND
/// with a request index; v5 ranks elastic winners by (solve iteration,
/// walker id) through the solved/leader frames. A coordinator rejects a
/// mismatched version with an abort frame naming both versions.
inline constexpr int kWireVersion = 5;

util::Json make_hello(int rank, int ranks);
util::Json make_welcome(int rank, int ranks);
util::Json make_msg(int to, const Message& m);
util::Json make_hb(int rank);
util::Json make_abort(const std::string& reason);
util::Json make_bye(int rank);

// --- elastic vocabulary (v2) ---

/// Late-joiner handshake. `hunt_key` is the canonical request key the
/// joiner expects to work on; the coordinator refuses a joiner whose key
/// does not match the hunt in progress.
util::Json make_join(const std::string& hunt_key);
/// Graceful drain: retire member `member` at the end of the current epoch.
util::Json make_leave(int member);
/// Checkpoint acknowledgement: member wrote its wave-`epoch` walker file
/// (`bytes` on disk, `micros` write latency).
util::Json make_ckpt(int member, uint64_t epoch, uint64_t bytes, uint64_t micros);
/// Skeleton epoch/rebalance frames; the elastic runner and coordinator
/// fill in the wave-specific fields documented in docs/PROTOCOL.md.
util::Json make_epoch_base(int member, uint64_t epoch);
util::Json make_rebalance_base(uint64_t epoch);

/// A walker of `member` solved at iteration `iters`; `stats` is its
/// run_stats_to_json.
util::Json make_solved(int member, uint64_t id, uint64_t iters, util::Json stats);
/// The hunt's current leader: walker `id`, solved at iteration `iters`.
util::Json make_leader(uint64_t id, uint64_t iters);

// --- failover vocabulary (v3) ---

/// Coordinator -> standby after each completed wave `epoch`: the full
/// serialized wave-machine state (`state` is Coordinator::export_state()).
util::Json make_state_sync(uint64_t epoch, util::Json state);
/// Survivor -> promoted coordinator: epoch-stamped re-rendezvous. `member`
/// is the stable member id the survivor held before the failover, `epoch`
/// the last completed wave it observed, `hunt_key` the canonical key of
/// the hunt in progress.
util::Json make_reconnect(int member, uint64_t epoch, const std::string& hunt_key);

/// The frame's "type" field ("" when absent/non-string).
std::string frame_type(const util::Json& j);

/// Decode a routed message frame. Throws CommError on malformed frames.
Message parse_msg(const util::Json& j);
/// Destination rank of a msg frame (-1 = broadcast). Throws on absence.
int msg_dest(const util::Json& j);

/// Typed field access for the elastic frames; all throw CommError on
/// missing or malformed fields.
int frame_int(const util::Json& j, const char* key);
bool frame_bool(const util::Json& j, const char* key, bool fallback);
/// 64-bit counter carried as a decimal string (or small plain number).
uint64_t frame_u64(const util::Json& j, const char* key);
/// The decimal-string spelling for 64-bit fields in elastic frames.
util::Json wire_u64(uint64_t v);

}  // namespace cas::dist
