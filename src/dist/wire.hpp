// The distributed world's wire protocol (v7, docs/PROTOCOL.md): length-
// prefixed JSON frames (net::FrameDecoder — the same codec cas_serve speaks)
// between the members and the coordinator that one of them hosts.
//
//   hello      member -> coordinator on connect (rank, ranks, v)
//   welcome    coordinator -> member: rendezvous done (rank = member id)
//   hb         heartbeat, member -> coordinator
//   abort      coordinator -> members: the world (or this one connection's
//              handshake) is refused or dead, with the reason
//   bye        member -> coordinator: clean detach (EOF after bye is not a
//              death)
//   close      coordinator -> members: the host finalized the world
//
// A world serves successive hunts, numbered from 1, that only the host
// defines: every member builds a hunt's walkers from its opening rebalance:
//
//   join       late member -> coordinator: admit me at the next wave
//              boundary or hunt opening (hunt: the hunt a rejoin comes back
//              to, 0 for a fresh joiner)
//   leave      member -> coordinator: retire me at the end of this wave
//   epoch      member -> coordinator at each wave boundary: progress,
//              solves, and drain/halt intentions for the wave
//   ckpt       member -> coordinator just before its epoch frame: the wave
//              checkpoint file was durably written (bytes, micros)
//   rebalance  coordinator -> every member when a hunt opens and whenever a
//              wave completes: the membership view, the member's dense rank,
//              the hunt's definition (the resolved request, the segment
//              length, the epoch bound and a resume's base), and (on the
//              final wave) the winner + merged summaries
//   solved     member -> coordinator the moment one of its walkers solves
//   leader     coordinator -> every member whenever the minimum (solve
//              iteration, walker id) over the solves it has seen improves
//
// join, epoch, rebalance, solved and leader frames carry the hunt index;
// a frame from another hunt is dropped.
//
// Coordinator failover makes the coordinator a replicated role:
//
//   state_sync coordinator -> standby member whenever the wave machine
//              moves: the serialized state (hunt definition included) the
//              standby promotes from
//   reconnect  survivor -> promoted coordinator: member id, plus the hunt
//              and epoch it last saw, checked against the imported state
//
// hello/join/reconnect frames may carry "failover": the host:port of the
// idle listener the member pre-bound to serve as the promotion target.
//
// 64-bit counters travel as decimal STRINGS, not JSON numbers, because
// util::Json stores numbers as doubles and would lose bits above 2^53.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "runtime/spec.hpp"
#include "util/json.hpp"

namespace cas::dist {

/// Unrecoverable communicator failure: the coordinator went away, refused
/// us, or aborted the world. solve_elastic recovers from it when it can
/// (rejoin, promotion, reconnect).
struct CommError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Protocol magic echoed in hello/join/reconnect frames, bumped on
/// incompatible changes: v2 elastic membership, v3 coordinator failover,
/// v4 the fixed-rank gather/broadcast, v5 the solved/leader frames, v6 one
/// runner — successive hunts per world stamped with a hunt index, and no
/// msg frames; v7 host-driven worlds — views carry the hunt's definition,
/// joins no key, and `close` ends the world. A coordinator refuses a
/// mismatched version with an abort frame naming both versions.
inline constexpr int kWireVersion = 7;

util::Json make_hello(int rank, int ranks);
util::Json make_welcome(int rank, int ranks);
util::Json make_hb(int rank);
util::Json make_abort(const std::string& reason);
util::Json make_bye(int rank);
util::Json make_close();

/// Late-member handshake: `hunt` is the hunt a rejoin comes back to (0 for
/// a fresh joiner).
util::Json make_join(uint64_t hunt);
/// Graceful drain: retire member `member` at the end of the current wave.
util::Json make_leave(int member);
/// Checkpoint acknowledgement: member wrote its wave-`epoch` walker file
/// (`bytes` on disk, `micros` write latency).
util::Json make_ckpt(int member, uint64_t epoch, uint64_t bytes, uint64_t micros);
/// Skeleton epoch/rebalance frames; the elastic runner and coordinator
/// fill in the wave-specific fields documented in docs/PROTOCOL.md.
util::Json make_epoch_base(int member, uint64_t hunt, uint64_t epoch);
util::Json make_rebalance_base(uint64_t hunt, uint64_t epoch);

/// A walker of `member` solved at iteration `iters`; `stats` is its
/// run_stats_to_json.
util::Json make_solved(int member, uint64_t hunt, uint64_t id, uint64_t iters, util::Json stats);
/// The hunt's current leader: walker `id`, solved at iteration `iters`.
util::Json make_leader(uint64_t hunt, uint64_t id, uint64_t iters);

/// What a hunt runs, as its host defines it: every view of the hunt and the
/// standby's state_sync carry these fields.
struct HuntDefinition {
  runtime::SolveRequest request;  // resolved; sent as canonical JSON with its id
  uint64_t ckpt_iters = 0;        // the segment length
  uint64_t max_epochs = 0;        // the absolute epoch bound, 0 = none
  int64_t resumed_epoch = -1;     // a resume's manifest wave (it opens at the next); -1: none
  uint64_t elapsed_micros = 0;    // a resume: the time budget spent before it
  bool resume_fell_back = false;  // a resume: the manifest was torn, its predecessor was read
};
/// Write `def` into a rebalance frame or a state (the resume fields only
/// for a resumed hunt).
void put_definition(util::Json& frame, const HuntDefinition& def);
/// Read a definition back and resolve its request. Throws CommError on a
/// missing or mistyped field, and what resolve() throws for a request that
/// does not resolve (not an object, an unknown problem, no walkers, ...).
HuntDefinition definition_from(const util::Json& frame);

/// Coordinator -> standby: the full serialized wave-machine state (`state`
/// is Coordinator::export_state()) as of wave `epoch`.
util::Json make_state_sync(uint64_t epoch, util::Json state);
/// Survivor -> promoted coordinator: re-rendezvous as stable member
/// `member`, last seen at wave `epoch` of hunt `hunt`.
util::Json make_reconnect(int member, uint64_t hunt, uint64_t epoch);

/// The frame's "type" field ("" when absent/non-string).
std::string frame_type(const util::Json& j);

/// Typed field access for the frames; all throw CommError on missing or
/// malformed fields.
int frame_int(const util::Json& j, const char* key);
bool frame_bool(const util::Json& j, const char* key, bool fallback);
/// 64-bit counter carried as a decimal string (or small plain number).
uint64_t frame_u64(const util::Json& j, const char* key);

/// The one codec for 64-bit counters in frames and checkpoint files
/// (util::Json numbers are doubles, exact only to 2^53): written as a
/// decimal string, read back from an unsigned decimal string or a plain
/// number in [0, 2^64). u64_of is nullopt for anything else; its callers
/// throw their own error type.
util::Json wire_u64(uint64_t v);
std::optional<uint64_t> u64_of(const util::Json& v);

}  // namespace cas::dist
