#include "dist/ckpt.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/fault.hpp"

namespace cas::dist {

namespace {

namespace fs = std::filesystem;

std::string crc_hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return std::string(buf);
}

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw CkptError("checkpoint " + path + ": " + why);
}

/// write(2) the whole buffer, then fsync, through one fd. Throws CkptError.
void write_all_fsync(const std::string& path, const std::string& blob) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(path, std::string("open failed: ") + std::strerror(errno));
  size_t off = 0;
  while (off < blob.size()) {
    const ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      fail(path, std::string("write failed: ") + std::strerror(e));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    fail(path, std::string("fsync failed: ") + std::strerror(e));
  }
  ::close(fd);
}

/// fsync the directory entry so the rename itself is durable.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort (e.g. non-seekable fs)
  ::fsync(fd);
  ::close(fd);
}

/// Run a payload decoder, turning the exception util::Json raises for a
/// missing or mistyped field (std::out_of_range, std::logic_error,
/// std::bad_variant_access) into the CkptError every reader throws.
template <typename Decode>
auto decoded(const char* what, Decode decode) {
  try {
    return decode();
  } catch (const CkptError&) {
    throw;
  } catch (const std::exception& e) {
    throw CkptError(std::string(what) + ": " + e.what());
  }
}

std::vector<uint64_t> u64_vec_from(const util::Json& j, const std::string& what) {
  if (!j.is_array()) throw CkptError(what + ": expected an array");
  std::vector<uint64_t> out;
  out.reserve(j.as_array().size());
  for (const auto& v : j.as_array()) out.push_back(u64_from(v, what));
  return out;
}

util::Json u64_vec_json(const std::vector<uint64_t>& v) {
  util::Json::Array a;
  a.reserve(v.size());
  for (uint64_t x : v) a.push_back(wire_u64(x));
  return util::Json(std::move(a));
}

}  // namespace

uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t u64_from(const util::Json& v, const std::string& what) {
  const std::optional<uint64_t> u = u64_of(v);
  if (!u) throw CkptError(what + ": not a u64 counter");
  return *u;
}

size_t write_ckpt_file(const std::string& path, const util::Json& payload) {
  const std::string body = payload.dump(0);
  util::Json header = util::Json::object();
  header["v"] = kCkptVersion;
  header["bytes"] = static_cast<uint64_t>(body.size());
  header["crc"] = crc_hex(fnv1a64(body));
  std::string blob = header.dump(0) + "\n" + body;

  // Scheduled disk faults (chaos runs; kNone when disarmed). A torn write
  // SILENTLY truncates the blob and still renames it into place — the
  // post-crash torn file only the reader's validation can catch; rename
  // and fsync failures surface as the CkptError a dying disk would raise.
  const net::DiskFault fault = net::fault_disk_write();
  if (fault == net::DiskFault::kTornWrite) blob.resize(blob.size() / 2);

  const std::string tmp = path + ".tmp";
  write_all_fsync(tmp, blob);
  if (fault == net::DiskFault::kFailFsync) {
    std::remove(tmp.c_str());
    fail(path, "fsync failed: injected disk fault");
  }
  if (fault == net::DiskFault::kFailRename || std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    std::remove(tmp.c_str());
    fail(path, fault == net::DiskFault::kFailRename
                   ? "rename failed: injected disk fault"
                   : std::string("rename failed: ") + std::strerror(e));
  }
  fsync_dir(fs::path(path).parent_path().string());
  return blob.size();
}

size_t write_manifest_file(const std::string& dir, const util::Json& payload) {
  const std::string path = dir + "/" + kManifestFile;
  const std::string prev = dir + "/" + kManifestPrevFile;
  // Rotate the last good manifest aside BEFORE the new write: whatever the
  // writer does to manifest.ckpt afterwards — including dying mid-write or
  // renaming a torn blob into place — the predecessor cut survives.
  if (fs::exists(path)) {
    if (std::rename(path.c_str(), prev.c_str()) != 0)
      fail(path, std::string("manifest rotation failed: ") + std::strerror(errno));
    fsync_dir(dir);
  }
  return write_ckpt_file(path, payload);
}

util::Json read_manifest_file(const std::string& dir, bool* fell_back) {
  if (fell_back != nullptr) *fell_back = false;
  try {
    return read_ckpt_file(dir + "/" + kManifestFile);
  } catch (const CkptError& primary) {
    try {
      util::Json prev = read_ckpt_file(dir + "/" + kManifestPrevFile);
      if (fell_back != nullptr) *fell_back = true;
      return prev;
    } catch (const CkptError&) {
      throw primary;  // the current manifest's diagnosis is the useful one
    }
  }
}

util::Json read_ckpt_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();

  const size_t nl = blob.find('\n');
  if (nl == std::string::npos) fail(path, "truncated (no header line)");
  util::Json header;
  try {
    header = util::Json::parse(std::string_view(blob).substr(0, nl));
  } catch (const std::exception& e) {
    fail(path, std::string("malformed header: ") + e.what());
  }
  const util::Json* version = header.find("v");
  const util::Json* bytes = header.find("bytes");
  const util::Json* crc = header.find("crc");
  if (version == nullptr || bytes == nullptr || crc == nullptr)
    fail(path, "malformed header: missing v/bytes/crc");
  const std::optional<uint64_t> declared = u64_of(*bytes);
  if (!version->is_number() || !declared || !crc->is_string())
    fail(path, "malformed header: v, bytes and crc must be a number, a u64 and a string");
  if (version->as_number() != kCkptVersion)
    fail(path, "unsupported checkpoint version " + version->dump(0) + " (this build reads v" +
                   std::to_string(kCkptVersion) + ")");
  const std::string_view body = std::string_view(blob).substr(nl + 1);
  if (body.size() != *declared)
    fail(path, "truncated: header declares " + std::to_string(*declared) +
                   " payload bytes, file has " + std::to_string(body.size()));
  const std::string actual_crc = crc_hex(fnv1a64(body));
  if (actual_crc != crc->as_string())
    fail(path, "checksum mismatch (expected " + crc->as_string() + ", computed " + actual_crc +
                   ")");
  try {
    return util::Json::parse(body);
  } catch (const std::exception& e) {
    fail(path, std::string("malformed payload: ") + e.what());
  }
}

std::string walker_file_name(int member, uint64_t epoch) {
  return "walkers_m" + std::to_string(member) + "_e" + std::to_string(epoch) + ".ckpt";
}

std::vector<WalkerFileRef> list_walker_files(const std::string& dir) {
  std::vector<WalkerFileRef> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    int member = -1;
    unsigned long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "walkers_m%d_e%llu.ckpt%n", &member, &epoch, &consumed) == 2 &&
        consumed == static_cast<int>(name.size()) && member >= 0) {
      out.push_back({entry.path().string(), member, static_cast<uint64_t>(epoch)});
    }
  }
  return out;
}

void prune_walker_files(const std::string& dir, uint64_t keep_from_epoch) {
  for (const auto& ref : list_walker_files(dir)) {
    if (ref.epoch < keep_from_epoch) std::remove(ref.path.c_str());
  }
}

util::Json run_stats_to_json(const core::RunStats& st) {
  util::Json j = util::Json::object();
  j["solved"] = st.solved;
  j["final_cost"] = static_cast<int64_t>(st.final_cost);
  j["iterations"] = wire_u64(st.iterations);
  j["swaps"] = wire_u64(st.swaps);
  j["local_minima"] = wire_u64(st.local_minima);
  j["plateau_moves"] = wire_u64(st.plateau_moves);
  j["plateau_refused"] = wire_u64(st.plateau_refused);
  j["resets"] = wire_u64(st.resets);
  j["custom_reset_escapes"] = wire_u64(st.custom_reset_escapes);
  j["restarts"] = wire_u64(st.restarts);
  j["move_evaluations"] = wire_u64(st.move_evaluations);
  j["reset_candidates"] = wire_u64(st.reset_candidates);
  j["reset_escape_chunks"] = wire_u64(st.reset_escape_chunks);
  j["reset_seconds"] = st.reset_seconds;
  j["wall_seconds"] = st.wall_seconds;
  if (!st.solution.empty()) {
    j["solution"] = util::Json(util::Json::Array(st.solution.begin(), st.solution.end()));
  }
  return j;
}

core::RunStats run_stats_from_json(const util::Json& j) {
  return decoded("run stats", [&] {
    core::RunStats st;
    st.solved = j.at("solved").as_bool();
    st.final_cost = j.at("final_cost").as_int();
    st.iterations = u64_from(j.at("iterations"), "iterations");
    st.swaps = u64_from(j.at("swaps"), "swaps");
    st.local_minima = u64_from(j.at("local_minima"), "local_minima");
    st.plateau_moves = u64_from(j.at("plateau_moves"), "plateau_moves");
    st.plateau_refused = u64_from(j.at("plateau_refused"), "plateau_refused");
    st.resets = u64_from(j.at("resets"), "resets");
    st.custom_reset_escapes = u64_from(j.at("custom_reset_escapes"), "custom_reset_escapes");
    st.restarts = u64_from(j.at("restarts"), "restarts");
    st.move_evaluations = u64_from(j.at("move_evaluations"), "move_evaluations");
    st.reset_candidates = u64_from(j.at("reset_candidates"), "reset_candidates");
    st.reset_escape_chunks = u64_from(j.at("reset_escape_chunks"), "reset_escape_chunks");
    st.reset_seconds = j.at("reset_seconds").as_number();
    st.wall_seconds = j.at("wall_seconds").as_number();
    if (const util::Json* sol = j.find("solution")) {
      st.solution.reserve(sol->as_array().size());
      for (const auto& v : sol->as_array()) st.solution.push_back(static_cast<int>(v.as_int()));
    }
    return st;
  });
}

util::Json walk_snapshot_to_json(const runtime::WalkSnapshot& s) {
  util::Json j = util::Json::object();
  j["config"] = util::Json(util::Json::Array(s.config.begin(), s.config.end()));
  util::Json::Array rng;
  for (uint64_t w : s.engine.rng) rng.push_back(wire_u64(w));
  j["rng"] = util::Json(std::move(rng));
  j["tabu"] = u64_vec_json(s.engine.tabu_until);
  j["next_probe"] = wire_u64(s.engine.next_probe);
  j["next_restart"] = wire_u64(s.engine.next_restart);
  j["stats"] = run_stats_to_json(s.engine.stats);
  return j;
}

runtime::WalkSnapshot walk_snapshot_from_json(const util::Json& j) {
  return decoded("walk snapshot", [&] {
    runtime::WalkSnapshot s;
    const auto& config = j.at("config").as_array();
    s.config.reserve(config.size());
    for (const auto& v : config) s.config.push_back(static_cast<int>(v.as_int()));
    const auto& rng = j.at("rng").as_array();
    if (rng.size() != 4) throw CkptError("walk snapshot: rng state must have 4 words");
    for (size_t i = 0; i < 4; ++i) s.engine.rng[i] = u64_from(rng[i], "rng");
    s.engine.tabu_until = u64_vec_from(j.at("tabu"), "tabu");
    s.engine.next_probe = u64_from(j.at("next_probe"), "next_probe");
    s.engine.next_restart = u64_from(j.at("next_restart"), "next_restart");
    s.engine.stats = run_stats_from_json(j.at("stats"));
    return s;
  });
}

}  // namespace cas::dist
