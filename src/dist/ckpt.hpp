// Durable checkpoints for elastic distributed hunts.
//
// A checkpoint file is a one-line JSON header followed by a JSON payload:
//
//   {"bytes":<payload bytes>,"crc":"<fnv1a-64 hex>","v":1}\n
//   <payload JSON, exactly `bytes` bytes>
//
// The header makes truncation (bytes mismatch) and corruption (checksum
// mismatch) detectable before any payload field is trusted, and carries the
// format version for forward compatibility. Writes are atomic: the blob is
// written to a sibling `.tmp` file, fsync'd, then rename(2)'d into place —
// a reader never observes a half-written checkpoint, no matter where the
// writer was killed (the kill-during-write test pins this).
//
// The directory layout under --ckpt-dir:
//   walkers_m<member>_e<epoch>.ckpt   one per member per epoch: the mid-walk
//                                     snapshots of every walker that member
//                                     owned at epoch <epoch>
//   manifest.ckpt                     written by the coordinator host once
//                                     ALL active members have acknowledged
//                                     epoch E — the consistent cut a
//                                     --resume uses
//   manifest.prev.ckpt                the predecessor manifest, rotated
//                                     aside before each manifest write: if
//                                     the writer died mid-manifest (torn
//                                     file), --resume falls back to the
//                                     previous consistent cut, whose wave
//                                     files the pruner deliberately keeps
//
// All 64-bit counters are serialized as decimal strings because util::Json
// stores numbers as doubles (2^53 integer precision): the frames' codec,
// dist::wire_u64 / dist::u64_of.
//
// The readers reject what they cannot use with CkptError — a header field
// of the wrong type, a counter that is no u64, a snapshot field missing or
// malformed — and never with another exception type.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/wire.hpp"
#include "runtime/problems.hpp"
#include "util/json.hpp"

namespace cas::dist {

/// Checkpoint codec/version errors (truncated, corrupted, checksum or
/// version mismatch, unwritable directory).
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr int kCkptVersion = 1;
inline constexpr const char* kManifestFile = "manifest.ckpt";
inline constexpr const char* kManifestPrevFile = "manifest.prev.ckpt";

/// FNV-1a 64-bit over the payload bytes — the header checksum.
[[nodiscard]] uint64_t fnv1a64(std::string_view bytes);

/// A checkpoint's 64-bit counter (spelled by wire_u64); CkptError naming
/// `what` when `v` is not one.
[[nodiscard]] uint64_t u64_from(const util::Json& v, const std::string& what);

/// Atomically write `payload` to `path` (tmp + fsync + rename). Returns the
/// total file size in bytes. Throws CkptError on I/O failure.
size_t write_ckpt_file(const std::string& path, const util::Json& payload);

/// Read and validate a checkpoint file. Throws CkptError when the file is
/// missing, truncated, corrupted, checksum-mismatched, or written by an
/// unsupported format version.
[[nodiscard]] util::Json read_ckpt_file(const std::string& path);

/// Write `dir`'s resume manifest, first rotating any existing manifest to
/// manifest.prev.ckpt so a torn write can never destroy the only good cut.
/// Throws CkptError on I/O failure (the rotated predecessor survives).
size_t write_manifest_file(const std::string& dir, const util::Json& payload);

/// Read `dir`'s resume manifest, falling back to the rotated predecessor
/// when manifest.ckpt is missing, truncated, or corrupt. Throws CkptError
/// when neither validates; a non-null `fell_back` reports which was used.
[[nodiscard]] util::Json read_manifest_file(const std::string& dir, bool* fell_back = nullptr);

/// Per-member wave file name: "walkers_m<member>_e<epoch>.ckpt".
[[nodiscard]] std::string walker_file_name(int member, uint64_t epoch);

/// A walker checkpoint file discovered in a checkpoint directory.
struct WalkerFileRef {
  std::string path;
  int member = -1;
  uint64_t epoch = 0;
};

/// Scan `dir` for walker checkpoint files (by name pattern; contents are
/// validated on read). Missing directory yields an empty list.
[[nodiscard]] std::vector<WalkerFileRef> list_walker_files(const std::string& dir);

/// Delete walker files of waves older than `keep_from_epoch` (retention:
/// the manifest wave and the wave before it are kept, older waves are
/// garbage). Best-effort; unlink errors are ignored.
void prune_walker_files(const std::string& dir, uint64_t keep_from_epoch);

/// Mid-walk snapshot codec (runtime::WalkSnapshot <-> JSON).
[[nodiscard]] util::Json walk_snapshot_to_json(const runtime::WalkSnapshot& s);
[[nodiscard]] runtime::WalkSnapshot walk_snapshot_from_json(const util::Json& j);

/// core::RunStats codec, reused by the snapshot codec and by the epoch
/// frames that carry solver stats coordinator-side.
[[nodiscard]] util::Json run_stats_to_json(const core::RunStats& st);
[[nodiscard]] core::RunStats run_stats_from_json(const util::Json& j);

}  // namespace cas::dist
