// Decoder fuzzing: seeded mutations into the byte-level decoders on the
// trust boundary that need no live peer — net::FrameDecoder, the
// checkpoint container readers (read_ckpt_file, and read_manifest_file with
// and without a predecessor manifest) and the walker snapshot codec with
// ResumableWalk::restore on a Costas instance. Streams get byte flips,
// truncations, length-prefix edits and split feeds; files get header, CRC,
// payload and field-extreme mutations; snapshots get field extremes, resized
// tables and byte mutations. The invariant: every input decodes or is
// rejected with a typed error (FrameDecoder::Result::kError, CkptError or
// std::invalid_argument) — never a crash, a hang or an allocation over
// 64 MB. A snapshot that restores is advanced a few iterations, so a table
// the engine would walk past shows under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/rng.hpp"
#include "dist/ckpt.hpp"
#include "dist/wire.hpp"
#include "fuzz_support.hpp"
#include "net/frame.hpp"
#include "runtime/problems.hpp"
#include "runtime/strategy.hpp"

namespace cas {
namespace {

util::Json extreme(core::Rng& rng) {
  return util::Json::parse(fuzz::kFieldExtremes[rng.below(fuzz::kFieldExtremes.size())]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "cas_fuzz_XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

// --- net::FrameDecoder -----------------------------------------------------

/// Feed `stream` in random chunks and drain after each; returns the frames
/// decoded, or nullopt once the decoder rejected the stream.
std::optional<std::vector<std::string>> decode(const std::string& stream, size_t max_frame,
                                               core::Rng& rng) {
  net::FrameDecoder dec(max_frame);
  std::vector<std::string> frames;
  std::string out;
  for (size_t off = 0; off < stream.size();) {
    const size_t n = std::min(stream.size() - off, size_t{1} + rng.below(64));
    dec.feed(stream.data() + off, n);
    off += n;
    for (;;) {
      const net::FrameDecoder::Result r = dec.next(out);
      if (r == net::FrameDecoder::Result::kNeedMore) break;
      if (r == net::FrameDecoder::Result::kError) {
        EXPECT_FALSE(dec.error().empty());
        EXPECT_EQ(dec.next(out), net::FrameDecoder::Result::kError);  // sticky
        return std::nullopt;
      }
      EXPECT_LE(out.size(), max_frame);
      frames.push_back(out);
    }
  }
  return frames;
}

TEST(FuzzDecoders, FrameDecoderDecodesOrRejectsEveryMutatedStream) {
  core::Rng rng(0xF4A3E5);
  int decoded = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const size_t max_frame = rng.below(2) == 0 ? net::kDefaultMaxFrame : 64 + rng.below(512);
    std::vector<std::string> payloads;
    std::string stream;
    for (int f = 0, frames = 1 + static_cast<int>(rng.below(6)); f < frames; ++f) {
      std::string p(rng.below(std::min<size_t>(max_frame, 700)), 'x');
      for (char& c : p) c = static_cast<char>(rng.below(256));
      net::append_frame(stream, p);
      payloads.push_back(std::move(p));
    }
    // The clean stream decodes to its payloads however it is split.
    const auto clean = decode(stream, max_frame, rng);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(*clean, payloads);

    std::string bad = stream;
    switch (rng.below(4)) {
      case 0:  // byte flips anywhere, length prefixes included
        for (int e = 0, edits = 1 + static_cast<int>(rng.below(4)); e < edits; ++e)
          bad[rng.below(bad.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // truncation
        bad.resize(rng.below(bad.size()));
        break;
      case 2: {  // a length prefix declaring 0, the ceiling, past it, or 4 GiB
        const uint32_t lens[] = {0u, static_cast<uint32_t>(max_frame),
                                 static_cast<uint32_t>(max_frame + 1), 0xFFFFFFFFu,
                                 static_cast<uint32_t>(rng())};
        const uint32_t len = lens[rng.below(5)];
        const size_t at = rng.below(bad.size() - 3);
        for (int b = 0; b < 4; ++b) bad[at + b] = static_cast<char>(len >> (24 - 8 * b));
        break;
      }
      default:
        bad = fuzz::mutate(bad, rng);
        break;
    }
    const auto got = decode(bad, max_frame, rng);
    if (got) {
      ++decoded;
      size_t bytes = 0;
      for (const std::string& f : *got) bytes += net::kFrameHeaderBytes + f.size();
      EXPECT_LE(bytes, bad.size());
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(fuzz::g_oversized.load(), 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// --- checkpoint container readers -------------------------------------------

/// Read `path` with read_ckpt_file: the payload, or nullopt after a
/// CkptError. Any other exception fails the test.
std::optional<util::Json> read_or_reject(const std::string& path, const std::string& input) {
  try {
    return dist::read_ckpt_file(path);
  } catch (const dist::CkptError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped " << e.what() << " for: " << input.substr(0, 160);
    return std::nullopt;
  }
}

/// One mutation of a checkpoint file's bytes: the header line, its fields,
/// the CRC, the payload (with a matching header, so the payload parser runs)
/// or the whole blob.
std::string mutated_file(const std::string& blob, core::Rng& rng) {
  const size_t nl = blob.find('\n');
  const std::string header = blob.substr(0, nl);
  const std::string body = blob.substr(nl + 1);
  switch (rng.below(5)) {
    case 0:
      return fuzz::mutate(header, rng) + "\n" + body;
    case 1: {
      util::Json h = util::Json::parse(header);
      const char* keys[] = {"v", "bytes", "crc"};
      h[keys[rng.below(3)]] = extreme(rng);
      return h.dump(0) + "\n" + body;
    }
    case 2: {
      util::Json h = util::Json::parse(header);
      h["crc"] = fuzz::mutate(h.at("crc").as_string(), rng);
      return h.dump(0) + "\n" + body;
    }
    case 3: {
      const std::string bad = fuzz::mutate(body, rng);
      char crc[32];
      std::snprintf(crc, sizeof(crc), "%016llx",
                    static_cast<unsigned long long>(dist::fnv1a64(bad)));
      util::Json h = util::Json::parse(header);
      h["bytes"] = static_cast<uint64_t>(bad.size());
      h["crc"] = std::string(crc);
      return h.dump(0) + "\n" + bad;
    }
    default:
      return fuzz::mutate(blob, rng);
  }
}

TEST(FuzzDecoders, CheckpointReadersDecodeOrThrowCkptError) {
  core::Rng rng(0xC4E7F11E);
  const std::string dir = make_temp_dir();
  util::Json payload = util::Json::object();
  payload["epoch"] = dist::wire_u64(7);
  payload["seed"] = dist::wire_u64(UINT64_MAX);
  payload["walkers"] = util::Json::parse(R"([{"id":"0","config":[1,0,2]},{"id":"1"}])");
  const std::string path = dir + "/walkers_m0_e7.ckpt";
  dist::write_ckpt_file(path, payload);
  const std::string blob = read_file(path);
  util::Json prev_payload = payload;
  prev_payload["epoch"] = dist::wire_u64(6);
  dist::write_ckpt_file(dir + "/prev.ckpt", prev_payload);
  const std::string prev_blob = read_file(dir + "/prev.ckpt");
  const std::string manifest = dir + "/" + dist::kManifestFile;
  const std::string manifest_prev = dir + "/" + dist::kManifestPrevFile;

  int decoded = 0, rejected = 0, fell_back = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string bad = mutated_file(blob, rng);
    write_file(path, bad);
    if (read_or_reject(path, bad)) ++decoded;
    else ++rejected;

    // The manifest reader: the mutated file as manifest.ckpt, with a good
    // predecessor, a mutated one, or none.
    write_file(manifest, bad);
    const uint64_t prev_kind = rng.below(3);
    if (prev_kind == 0) write_file(manifest_prev, prev_blob);
    else if (prev_kind == 1) write_file(manifest_prev, mutated_file(prev_blob, rng));
    else std::remove(manifest_prev.c_str());
    const bool primary_ok = read_or_reject(manifest, bad).has_value();
    bool used_prev = false;
    try {
      const util::Json got = dist::read_manifest_file(dir, &used_prev);
      EXPECT_EQ(used_prev, !primary_ok);
      if (prev_kind == 0 && used_prev) EXPECT_EQ(got.dump(0), prev_payload.dump(0));
      if (used_prev) ++fell_back;
    } catch (const dist::CkptError&) {
      EXPECT_FALSE(primary_ok);
      EXPECT_NE(prev_kind, 0u) << "a good predecessor was not used";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << e.what() << " for: " << bad.substr(0, 160);
    }
  }
  EXPECT_EQ(fuzz::g_oversized.load(), 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(fell_back, 0);
}

// --- walker snapshots ---------------------------------------------------------

/// `snap` with one field (stats included) set to an extreme, a table
/// resized, a key dropped, or two config entries swapped.
util::Json mutated_snapshot(const util::Json& snap, core::Rng& rng) {
  util::Json j = snap;
  const char* keys[] = {"config", "rng", "tabu", "next_probe", "next_restart", "stats"};
  const std::string key = keys[rng.below(6)];
  switch (rng.below(5)) {
    case 0:
      j[key] = extreme(rng);
      break;
    case 1: {
      util::Json stats = j.at("stats");
      std::vector<std::string> fields;
      for (const auto& [field, value] : stats.as_object()) fields.push_back(field);
      stats[fields[rng.below(fields.size())]] = extreme(rng);
      j["stats"] = std::move(stats);
      break;
    }
    case 2: {  // a table shortened, emptied or grown
      const char* tables[] = {"config", "rng", "tabu"};
      const char* table = tables[rng.below(3)];
      util::Json::Array a = j.at(table).as_array();
      const size_t n = a.size();
      const size_t sizes[] = {0, n / 2, n - 1, n + 1, 2 * n};
      a.resize(sizes[rng.below(5)], a.front());
      j[table] = util::Json(std::move(a));
      break;
    }
    case 3: {
      util::Json::Object o = j.as_object();
      o.erase(key);
      j = util::Json(std::move(o));
      break;
    }
    default: {  // another permutation: restores, and the walk goes on
      util::Json::Array config = j.at("config").as_array();
      std::swap(config[rng.below(config.size())], config[rng.below(config.size())]);
      j["config"] = util::Json(std::move(config));
      break;
    }
  }
  return j;
}

TEST(FuzzDecoders, WalkerSnapshotsRestoreOrAreRejectedWithATypedError) {
  core::Rng rng(0x5A4B5407);
  runtime::SolveRequest req;
  req.problem = "costas";
  req.size = 13;
  req.seed = 3;
  const auto factory =
      runtime::problem_registry().at("costas", "problem").make_resumable_walker(
          runtime::resolve(req));
  auto source = factory(11);
  source->begin();
  source->advance(200, core::StopToken());
  const util::Json snap = dist::walk_snapshot_to_json(source->snapshot());

  int restored = 0, rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    util::Json input;
    if (rng.below(4) == 0) {
      try {
        input = util::Json::parse(fuzz::mutate(snap.dump(0), rng));
      } catch (const std::exception&) {
        continue;  // not JSON: the container reader's payload check rejects it
      }
    } else {
      input = mutated_snapshot(snap, rng);
    }
    auto walk = factory(11);
    try {
      walk->restore(dist::walk_snapshot_from_json(input));
    } catch (const dist::CkptError&) {
      ++rejected;
      continue;
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << e.what() << " for: " << input.dump(0).substr(0, 200);
      continue;
    }
    ++restored;
    const uint64_t before = walk->stats().iterations;
    walk->advance(64, core::StopToken());
    EXPECT_LE(walk->stats().iterations - before, 64u) << input.dump(0).substr(0, 200);
  }
  EXPECT_EQ(fuzz::g_oversized.load(), 0);
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace cas
