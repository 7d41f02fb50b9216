// The durable-checkpoint layer: header/CRC codec hardening (truncated,
// corrupted, checksum- and version-mismatched files are rejected before any
// payload field is trusted), atomicity of the tmp+rename write protocol —
// including a real SIGKILL mid-write — directory scanning/pruning, and the
// property the whole elastic design rests on: a mid-walk snapshot restored
// into a fresh walker continues the EXACT trajectory of the original,
// regardless of how the iteration budget is segmented. The readers reject
// mistyped headers, non-u64 counters and malformed or mis-sized snapshots
// with CkptError (or std::invalid_argument from restore), never another
// exception or a walk past a table's end.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "dist/ckpt.hpp"
#include "dist/wire.hpp"
#include "net/fault.hpp"
#include "runtime/problems.hpp"
#include "runtime/strategy.hpp"

namespace cas::dist {
namespace {

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "cas_ckpt_XXXXXX";
  const char* dir = ::mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

util::Json sample_payload() {
  util::Json j = util::Json::object();
  j["epoch"] = wire_u64(7);
  j["note"] = "hello";
  util::Json arr = util::Json::array();
  for (int i = 0; i < 16; ++i) arr.push_back(i * i);
  j["data"] = std::move(arr);
  return j;
}

TEST(CkptCodec, U64RoundTripsBeyondDoublePrecision) {
  const uint64_t big = (uint64_t{1} << 62) + 12345;  // not representable as double
  EXPECT_EQ(u64_from(wire_u64(big), "x"), big);
  EXPECT_EQ(u64_from(wire_u64(0), "x"), 0u);
  EXPECT_EQ(u64_from(wire_u64(UINT64_MAX), "x"), UINT64_MAX);
  EXPECT_THROW((void)u64_from(util::Json("not a number"), "x"), CkptError);
}

TEST(CkptCodec, U64RejectsWhatFramesRejectWithItsOwnErrorType) {
  // One decimal-string rule for checkpoint files and frames: a sign, a
  // blank, an overflow or a number outside [0, 2^64) is no counter, and
  // each reader throws its own error type.
  for (const char* bad : {R"("-1")", R"(" 5")", R"("+5")", R"("18446744073709551616")",
                          R"("12x")", R"("")", "-1", "-0.5", "1e300", "1e999", "null", "[]"}) {
    const util::Json v = util::Json::parse(bad);
    EXPECT_THROW((void)u64_from(v, "x"), CkptError) << bad;
    util::Json frame = util::Json::object();
    frame["x"] = v;
    EXPECT_THROW((void)frame_u64(frame, "x"), CommError) << bad;
  }
  EXPECT_EQ(u64_from(util::Json(7.0), "x"), 7u);  // hand-written plain numbers still read
}

TEST(CkptCodec, HeaderFieldsOfTheWrongTypeAreCkptErrors) {
  // A header whose v is a string, whose crc is a number or whose bytes is
  // no counter is rejected like any other damaged header — so the manifest
  // reader still falls back to its predecessor.
  const std::string dir = make_temp_dir();
  const std::string body = sample_payload().dump(0);
  char crc[32];
  std::snprintf(crc, sizeof(crc), "%016llx", static_cast<unsigned long long>(fnv1a64(body)));
  const auto header = [&](const char* v, const std::string& bytes, const std::string& c) {
    return std::string(R"({"bytes":)") + bytes + R"(,"crc":)" + c + R"(,"v":)" + v + "}\n" + body;
  };
  const std::string good_crc = std::string("\"") + crc + "\"";
  const std::string size = std::to_string(body.size());
  for (const std::string& blob :
       {header(R"("1")", size, good_crc), header("1", size, "12345"),
        header("1", R"("abc")", good_crc), header("1", "-1", good_crc),
        header("null", size, good_crc), std::string("[1,2]\n") + body}) {
    write_file(dir + "/a.ckpt", blob);
    EXPECT_THROW((void)read_ckpt_file(dir + "/a.ckpt"), CkptError) << blob.substr(0, 60);
  }
  write_file(dir + "/a.ckpt", header("1", size, good_crc));
  EXPECT_EQ(read_ckpt_file(dir + "/a.ckpt").dump(0), body);

  write_manifest_file(dir, sample_payload());
  write_manifest_file(dir, sample_payload());  // the first becomes the predecessor
  write_file(dir + "/" + std::string(kManifestFile), header(R"("1")", size, good_crc));
  bool fell_back = false;
  EXPECT_EQ(read_manifest_file(dir, &fell_back).dump(0), body);
  EXPECT_TRUE(fell_back);
}

TEST(CkptCodec, FileRoundTrip) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  const util::Json payload = sample_payload();
  const size_t bytes = write_ckpt_file(path, payload);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(read_ckpt_file(path).dump(0), payload.dump(0));
}

TEST(CkptCodec, TruncatedFileRejected) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  write_ckpt_file(path, sample_payload());
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_THROW(
      {
        try {
          (void)read_ckpt_file(path);
        } catch (const CkptError& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
          throw;
        }
      },
      CkptError);
}

TEST(CkptCodec, CorruptedPayloadRejectedByChecksum) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  write_ckpt_file(path, sample_payload());
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] ^= 0x20;  // flip a payload byte, keep the length
  write_file(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)read_ckpt_file(path);
        } catch (const CkptError& e) {
          EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
          throw;
        }
      },
      CkptError);
}

TEST(CkptCodec, UnsupportedVersionRejected) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  const std::string body = sample_payload().dump(0);
  util::Json header = util::Json::object();
  header["v"] = kCkptVersion + 1;
  header["bytes"] = static_cast<int64_t>(body.size());
  char crc[32];
  std::snprintf(crc, sizeof(crc), "%016llx",
                static_cast<unsigned long long>(fnv1a64(body)));
  header["crc"] = std::string(crc);
  write_file(path, header.dump(0) + "\n" + body);
  EXPECT_THROW(
      {
        try {
          (void)read_ckpt_file(path);
        } catch (const CkptError& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
          throw;
        }
      },
      CkptError);
}

TEST(CkptCodec, GarbageAndMissingFilesRejected) {
  const std::string dir = make_temp_dir();
  EXPECT_THROW((void)read_ckpt_file(dir + "/absent.ckpt"), CkptError);
  write_file(dir + "/garbage.ckpt", "this is not a checkpoint\n{}");
  EXPECT_THROW((void)read_ckpt_file(dir + "/garbage.ckpt"), CkptError);
}

TEST(CkptCodec, WriterCrashNeverClobbersThePreviousCheckpoint) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  const util::Json good = sample_payload();
  write_ckpt_file(path, good);
  // A writer killed mid-write leaves at most a partial sibling .tmp; the
  // published file is untouched.
  write_file(path + ".tmp", "{\"v\":1,\"bytes\":99999,\"crc\":\"dead");
  EXPECT_EQ(read_ckpt_file(path).dump(0), good.dump(0));
  // The next writer simply replaces the leftover tmp.
  util::Json next = sample_payload();
  next["epoch"] = wire_u64(8);
  write_ckpt_file(path, next);
  EXPECT_EQ(read_ckpt_file(path).dump(0), next.dump(0));
}

TEST(CkptCodec, SigkillDuringWriteLeavesValidOrAbsentFile) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/victim.ckpt";
  // Child rewrites the same checkpoint as fast as it can with a payload big
  // enough that a kill lands mid-write with high probability.
  util::Json payload = util::Json::object();
  util::Json arr = util::Json::array();
  for (int i = 0; i < 20000; ++i) arr.push_back(i);
  payload["data"] = std::move(arr);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (;;) write_ckpt_file(path, payload);
  }
  // Let it get going, then SIGKILL at an arbitrary moment.
  usleep(60 * 1000);
  ::kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  // Whatever instant the kill hit, the published file is a complete, valid
  // checkpoint (rename is atomic) — never a torn write.
  if (std::filesystem::exists(path)) {
    const util::Json got = read_ckpt_file(path);
    EXPECT_EQ(got.dump(0), payload.dump(0));
  }
}

TEST(CkptFiles, ListAndPruneWalkerWaves) {
  const std::string dir = make_temp_dir();
  write_ckpt_file(dir + "/" + walker_file_name(0, 0), sample_payload());
  write_ckpt_file(dir + "/" + walker_file_name(1, 0), sample_payload());
  write_ckpt_file(dir + "/" + walker_file_name(0, 1), sample_payload());
  write_ckpt_file(dir + "/" + walker_file_name(3, 2), sample_payload());
  write_ckpt_file(dir + "/" + std::string(kManifestFile), sample_payload());
  write_file(dir + "/unrelated.txt", "not a checkpoint");

  auto files = list_walker_files(dir);
  EXPECT_EQ(files.size(), 4u);
  for (const auto& f : files) EXPECT_TRUE(f.member == 0 || f.member == 1 || f.member == 3);

  prune_walker_files(dir, /*keep_from_epoch=*/1);
  files = list_walker_files(dir);
  EXPECT_EQ(files.size(), 2u);
  for (const auto& f : files) EXPECT_GE(f.epoch, 1u);
  // Manifest and unrelated files are never pruned.
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + std::string(kManifestFile)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));
  EXPECT_TRUE(list_walker_files(dir + "/no_such_dir").empty());
}

TEST(CkptStats, RunStatsRoundTripsEveryField) {
  core::RunStats st;
  st.solved = true;
  st.final_cost = 3;
  st.iterations = (uint64_t{1} << 54) + 17;  // exercises the string spelling
  st.swaps = 11;
  st.local_minima = 12;
  st.plateau_moves = 13;
  st.plateau_refused = 14;
  st.resets = 15;
  st.custom_reset_escapes = 16;
  st.restarts = 17;
  st.move_evaluations = 18;
  st.reset_candidates = 19;
  st.reset_escape_chunks = 20;
  st.reset_seconds = 0.25;
  st.wall_seconds = 1.5;
  st.solution = {2, 4, 3, 1};
  const core::RunStats back = run_stats_from_json(run_stats_to_json(st));
  EXPECT_EQ(back.solved, st.solved);
  EXPECT_EQ(back.final_cost, st.final_cost);
  EXPECT_EQ(back.iterations, st.iterations);
  EXPECT_EQ(back.swaps, st.swaps);
  EXPECT_EQ(back.local_minima, st.local_minima);
  EXPECT_EQ(back.plateau_moves, st.plateau_moves);
  EXPECT_EQ(back.plateau_refused, st.plateau_refused);
  EXPECT_EQ(back.resets, st.resets);
  EXPECT_EQ(back.custom_reset_escapes, st.custom_reset_escapes);
  EXPECT_EQ(back.restarts, st.restarts);
  EXPECT_EQ(back.move_evaluations, st.move_evaluations);
  EXPECT_EQ(back.reset_candidates, st.reset_candidates);
  EXPECT_EQ(back.reset_escape_chunks, st.reset_escape_chunks);
  EXPECT_NEAR(back.reset_seconds, st.reset_seconds, 1e-9);
  EXPECT_NEAR(back.wall_seconds, st.wall_seconds, 1e-9);
  EXPECT_EQ(back.solution, st.solution);
}

// --- the restore-equals-continue property -----------------------------------

runtime::SolveRequest costas_request(int size, uint64_t seed) {
  runtime::SolveRequest req;
  req.problem = "costas";
  req.size = size;
  req.seed = seed;
  return runtime::resolve(req);
}

uint64_t advance_until_solved(runtime::ResumableWalk& walk, uint64_t chunk) {
  for (int guard = 0; guard < 100000; ++guard) {
    if (walk.advance(chunk, core::StopToken())) return walk.stats().iterations;
  }
  ADD_FAILURE() << "walker did not solve within the guard budget";
  return 0;
}

TEST(CkptSnapshot, RestoredWalkerContinuesTheExactTrajectory) {
  const auto req = costas_request(12, 5);
  const auto& entry = runtime::problem_registry().at("costas", "problem");
  ASSERT_NE(entry.make_resumable_walker, nullptr);
  const auto factory = entry.make_resumable_walker(req);
  const uint64_t seed = 987654321;

  // Reference: one uninterrupted walk (single advance call).
  auto ref = factory(seed);
  ref->begin();
  const uint64_t ref_iters = advance_until_solved(*ref, 1u << 20);
  const auto ref_solution = ref->stats().solution;
  ASSERT_TRUE(ref->stats().solved);

  // Snapshot mid-walk, round-trip through the JSON codec, restore into a
  // FRESH walker, finish in small uneven chunks.
  auto a = factory(seed);
  a->begin();
  a->advance(237, core::StopToken());
  const util::Json snap = walk_snapshot_to_json(a->snapshot());
  auto b = factory(seed);
  b->restore(walk_snapshot_from_json(snap));
  EXPECT_EQ(b->stats().iterations, a->stats().iterations);
  const uint64_t b_iters = advance_until_solved(*b, 313);
  EXPECT_EQ(b_iters, ref_iters);
  EXPECT_EQ(b->stats().solution, ref_solution);

  // And the snapshotted original, continued directly, agrees too.
  const uint64_t a_iters = advance_until_solved(*a, 101);
  EXPECT_EQ(a_iters, ref_iters);
  EXPECT_EQ(a->stats().solution, ref_solution);
}

// --- seeded disk faults and the manifest's predecessor fallback -------------

// Every test that arms the injector must disarm it even on assertion
// failure, or the leaked plan would sabotage later tests' writes.
struct ArmedPlan {
  explicit ArmedPlan(const std::string& spec, uint64_t salt = 0) {
    net::FaultInjector::arm(net::FaultPlan::parse(util::Json::parse(spec)), salt);
  }
  ~ArmedPlan() { net::FaultInjector::disarm(); }
};

util::Json manifest_payload(uint64_t epoch) {
  util::Json j = sample_payload();
  j["epoch"] = wire_u64(epoch);
  return j;
}

TEST(DiskFault, PlanRejectsUnknownClassesAndFields) {
  const auto parse = [](const char* text) {
    return net::FaultPlan::parse(util::Json::parse(text));
  };
  EXPECT_NO_THROW(parse(
      R"({"seed":7,"torn_write":{"prob":1,"max":1},"fail_rename":[{"prob":0.5,"min_op":2,"max_op":9}]})"));
  EXPECT_THROW(parse(R"({"torn":{"prob":1}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"torn_write":{"chance":1}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"fail_fsync":{"prob":1.5}})"), std::runtime_error);
}

TEST(DiskFault, ManifestRotationKeepsThePredecessorCut) {
  const std::string dir = make_temp_dir();
  write_manifest_file(dir, manifest_payload(3));
  write_manifest_file(dir, manifest_payload(4));
  bool fell_back = true;
  EXPECT_EQ(u64_from(read_manifest_file(dir, &fell_back).at("epoch"), "epoch"), 4u);
  EXPECT_FALSE(fell_back);
  EXPECT_EQ(u64_from(read_ckpt_file(dir + "/" + std::string(kManifestPrevFile)).at("epoch"),
                     "epoch"),
            3u);
}

TEST(DiskFault, ShortWriteTearsTheManifestAndResumeFallsBack) {
  const std::string dir = make_temp_dir();
  write_manifest_file(dir, manifest_payload(5));  // the good predecessor cut
  {
    ArmedPlan armed(R"({"seed":11,"torn_write":{"prob":1,"max":1}})");
    // The torn write REPORTS SUCCESS — exactly the silent corruption a
    // crash mid-write leaves behind.
    EXPECT_NO_THROW(write_manifest_file(dir, manifest_payload(6)));
    EXPECT_EQ(net::FaultInjector::stats().torn_writes.load(), 1u);
  }
  // The published manifest is torn; reading it directly must fail...
  EXPECT_THROW((void)read_ckpt_file(dir + "/" + std::string(kManifestFile)), CkptError);
  // ...and the manifest reader falls back to the rotated predecessor.
  bool fell_back = false;
  const util::Json got = read_manifest_file(dir, &fell_back);
  EXPECT_TRUE(fell_back);
  EXPECT_EQ(u64_from(got.at("epoch"), "epoch"), 5u);
}

TEST(DiskFault, FailRenameThrowsAndThePredecessorSurvives) {
  const std::string dir = make_temp_dir();
  write_manifest_file(dir, manifest_payload(8));
  {
    ArmedPlan armed(R"({"seed":11,"fail_rename":{"prob":1,"max":1}})");
    EXPECT_THROW(
        {
          try {
            write_manifest_file(dir, manifest_payload(9));
          } catch (const CkptError& e) {
            EXPECT_NE(std::string(e.what()).find("injected disk fault"), std::string::npos)
                << e.what();
            throw;
          }
        },
        CkptError);
    EXPECT_EQ(net::FaultInjector::stats().failed_renames.load(), 1u);
  }
  // No tmp litter, and the rotated predecessor still resumes the world.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + std::string(kManifestFile) + ".tmp"));
  bool fell_back = false;
  EXPECT_EQ(u64_from(read_manifest_file(dir, &fell_back).at("epoch"), "epoch"), 8u);
  EXPECT_TRUE(fell_back);
}

TEST(DiskFault, FailFsyncThrowsAndLeavesTheOldFileAlone) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/a.ckpt";
  const util::Json good = manifest_payload(1);
  write_ckpt_file(path, good);
  {
    ArmedPlan armed(R"({"seed":11,"fail_fsync":{"prob":1,"max":1}})");
    EXPECT_THROW(
        {
          try {
            write_ckpt_file(path, manifest_payload(2));
          } catch (const CkptError& e) {
            EXPECT_NE(std::string(e.what()).find("fsync failed"), std::string::npos)
                << e.what();
            throw;
          }
        },
        CkptError);
    EXPECT_EQ(net::FaultInjector::stats().failed_fsyncs.load(), 1u);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(read_ckpt_file(path).dump(0), good.dump(0));
}

TEST(DiskFault, OpWindowsAndMaxBoundTheSchedule) {
  const std::string dir = make_temp_dir();
  // Only write-op #1 (the second write) is eligible, at most once.
  ArmedPlan armed(R"({"seed":3,"torn_write":{"prob":1,"max":1,"min_op":1,"max_op":1}})");
  const std::string p0 = dir + "/w0.ckpt", p1 = dir + "/w1.ckpt", p2 = dir + "/w2.ckpt";
  write_ckpt_file(p0, manifest_payload(0));
  write_ckpt_file(p1, manifest_payload(1));
  write_ckpt_file(p2, manifest_payload(2));
  EXPECT_NO_THROW((void)read_ckpt_file(p0));
  EXPECT_THROW((void)read_ckpt_file(p1), CkptError);
  EXPECT_NO_THROW((void)read_ckpt_file(p2));
  EXPECT_EQ(net::FaultInjector::stats().torn_writes.load(), 1u);
}

TEST(DiskFault, BothManifestsTornRethrowsThePrimaryDiagnosis) {
  const std::string dir = make_temp_dir();
  {
    ArmedPlan armed(R"({"seed":5,"torn_write":{"prob":1}})");  // every write torn
    write_manifest_file(dir, manifest_payload(1));
    write_manifest_file(dir, manifest_payload(2));
  }
  bool fell_back = false;
  EXPECT_THROW((void)read_manifest_file(dir, &fell_back), CkptError);
  EXPECT_FALSE(fell_back);
}

TEST(CkptSnapshot, RestoreRejectsAShortTabuTableBeforeTouchingTheWalk) {
  // A tabu table shorter than the instance would be read and written past
  // its end by the engine's culprit selection (its length check is an
  // assert, which NDEBUG builds drop): restore rejects it, and the walker
  // it was meant for still starts and advances cleanly.
  const auto factory = runtime::problem_registry()
                           .at("costas", "problem")
                           .make_resumable_walker(costas_request(17, 9));
  auto a = factory(42);
  a->begin();
  a->advance(300, core::StopToken());
  util::Json snap = walk_snapshot_to_json(a->snapshot());
  snap["tabu"] = util::Json::parse(R"(["0","0","0"])");
  const runtime::WalkSnapshot short_tabu = walk_snapshot_from_json(snap);
  auto b = factory(42);
  EXPECT_THROW(b->restore(short_tabu), std::invalid_argument);
  b->begin();
  b->advance(300, core::StopToken());
  EXPECT_EQ(b->snapshot().config, a->snapshot().config);
  EXPECT_EQ(b->snapshot().engine.rng, a->snapshot().engine.rng);
}

TEST(CkptSnapshot, RestoreRejectsARestartPointBehindTheIterationCount) {
  // No real walk leaves its next restart behind its iteration count; the
  // engine would replay the gap one restart at a time (with the default
  // interval of 2^64 - 1 the point even steps back by one each time).
  const auto factory = runtime::problem_registry()
                           .at("costas", "problem")
                           .make_resumable_walker(costas_request(13, 9));
  auto a = factory(42);
  a->begin();
  a->advance(300, core::StopToken());
  util::Json snap = walk_snapshot_to_json(a->snapshot());
  snap["stats"]["iterations"] = wire_u64(uint64_t{1} << 41);
  snap["next_restart"] = wire_u64(uint64_t{1} << 40);
  EXPECT_THROW(factory(42)->restore(walk_snapshot_from_json(snap)), std::invalid_argument);
  snap["next_restart"] = wire_u64(uint64_t{1} << 41);  // due now: allowed
  EXPECT_NO_THROW(factory(42)->restore(walk_snapshot_from_json(snap)));
}

TEST(CkptSnapshot, MalformedFieldsAreCkptErrors) {
  const auto factory = runtime::problem_registry()
                           .at("costas", "problem")
                           .make_resumable_walker(costas_request(12, 5));
  auto a = factory(42);
  a->begin();
  a->advance(100, core::StopToken());
  const util::Json snap = walk_snapshot_to_json(a->snapshot());
  const auto with = [&](const std::string& key, const char* value) {
    util::Json j = snap;
    j[key] = util::Json::parse(value);
    return j;
  };
  for (const util::Json& bad :
       {with("config", R"("abc")"), with("config", "[1.5]"), with("config", "[1e300]"),
        with("rng", R"(["1","2","3","-4"])"), with("tabu", "{}"), with("next_probe", "true"),
        with("stats", "[]"), util::Json::parse("[]"), util::Json::parse(R"({"config":[]})")}) {
    EXPECT_THROW((void)walk_snapshot_from_json(bad), CkptError) << bad.dump(0);
  }
  util::Json stats = snap.at("stats");
  stats["solved"] = 1;
  EXPECT_THROW((void)run_stats_from_json(stats), CkptError);
}

TEST(CkptSnapshot, RestoreRejectsWrongProblemSize) {
  const auto& entry = runtime::problem_registry().at("costas", "problem");
  const auto factory12 = entry.make_resumable_walker(costas_request(12, 5));
  const auto factory13 = entry.make_resumable_walker(costas_request(13, 5));
  auto a = factory12(42);
  a->begin();
  a->advance(100, core::StopToken());
  const util::Json snap = walk_snapshot_to_json(a->snapshot());
  auto b = factory13(42);
  EXPECT_THROW(b->restore(walk_snapshot_from_json(snap)), std::exception);
}

}  // namespace
}  // namespace cas::dist
