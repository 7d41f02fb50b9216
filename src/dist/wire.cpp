#include "dist/wire.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "runtime/strategy.hpp"
#include "util/strings.hpp"

namespace cas::dist {

namespace {

const util::Json& require(const util::Json& j, const char* key) {
  const util::Json* f = j.is_object() ? j.find(key) : nullptr;
  if (f == nullptr) throw CommError(util::strf("wire: frame missing '%s'", key));
  return *f;
}

util::Json frame_of(const char* type) {
  util::Json j = util::Json::object();
  j["type"] = type;
  return j;
}

}  // namespace

util::Json make_hello(int rank, int ranks) {
  util::Json j = frame_of("hello");
  j["v"] = kWireVersion;
  j["rank"] = rank;
  j["ranks"] = ranks;
  return j;
}

util::Json make_welcome(int rank, int ranks) {
  util::Json j = frame_of("welcome");
  j["rank"] = rank;
  j["ranks"] = ranks;
  return j;
}

util::Json make_hb(int rank) {
  util::Json j = frame_of("hb");
  j["rank"] = rank;
  return j;
}

util::Json make_abort(const std::string& reason) {
  util::Json j = frame_of("abort");
  j["reason"] = reason;
  return j;
}

util::Json make_bye(int rank) {
  util::Json j = frame_of("bye");
  j["rank"] = rank;
  return j;
}

util::Json make_close() { return frame_of("close"); }

util::Json make_join(uint64_t hunt) {
  util::Json j = frame_of("join");
  j["v"] = kWireVersion;
  j["hunt"] = wire_u64(hunt);
  return j;
}

util::Json make_leave(int member) {
  util::Json j = frame_of("leave");
  j["rank"] = member;
  return j;
}

util::Json make_ckpt(int member, uint64_t epoch, uint64_t bytes, uint64_t micros) {
  util::Json j = frame_of("ckpt");
  j["rank"] = member;
  j["epoch"] = wire_u64(epoch);
  j["bytes"] = wire_u64(bytes);
  j["micros"] = wire_u64(micros);
  return j;
}

util::Json make_epoch_base(int member, uint64_t hunt, uint64_t epoch) {
  util::Json j = frame_of("epoch");
  j["rank"] = member;
  j["hunt"] = wire_u64(hunt);
  j["epoch"] = wire_u64(epoch);
  return j;
}

util::Json make_rebalance_base(uint64_t hunt, uint64_t epoch) {
  util::Json j = frame_of("rebalance");
  j["hunt"] = wire_u64(hunt);
  j["epoch"] = wire_u64(epoch);
  return j;
}

util::Json make_solved(int member, uint64_t hunt, uint64_t id, uint64_t iters, util::Json stats) {
  util::Json j = frame_of("solved");
  j["rank"] = member;
  j["hunt"] = wire_u64(hunt);
  j["id"] = wire_u64(id);
  j["iters"] = wire_u64(iters);
  j["stats"] = std::move(stats);
  return j;
}

util::Json make_leader(uint64_t hunt, uint64_t id, uint64_t iters) {
  util::Json j = frame_of("leader");
  j["hunt"] = wire_u64(hunt);
  j["id"] = wire_u64(id);
  j["iters"] = wire_u64(iters);
  return j;
}

util::Json make_state_sync(uint64_t epoch, util::Json state) {
  util::Json j = frame_of("state_sync");
  j["epoch"] = wire_u64(epoch);
  j["state"] = std::move(state);
  return j;
}

void put_definition(util::Json& frame, const HuntDefinition& def) {
  // The request travels with its id, so every member's report names it.
  frame["request"] = def.request.canonical_json();
  if (!def.request.id.empty()) frame["request"]["id"] = def.request.id;
  frame["ckpt_iters"] = wire_u64(def.ckpt_iters);
  frame["max_epochs"] = wire_u64(def.max_epochs);
  if (def.resumed_epoch < 0) return;
  frame["resumed_epoch"] = wire_u64(static_cast<uint64_t>(def.resumed_epoch));
  frame["elapsed_micros"] = wire_u64(def.elapsed_micros);
  frame["resume_fell_back"] = def.resume_fell_back;
}

HuntDefinition definition_from(const util::Json& frame) {
  HuntDefinition def;
  def.request = runtime::resolve(runtime::SolveRequest::from_json(require(frame, "request")));
  def.ckpt_iters = frame_u64(frame, "ckpt_iters");
  def.max_epochs = frame_u64(frame, "max_epochs");
  if (frame.find("resumed_epoch") != nullptr) {
    const uint64_t epoch = frame_u64(frame, "resumed_epoch");
    if (epoch >= static_cast<uint64_t>(std::numeric_limits<int64_t>::max()))
      throw CommError("wire: 'resumed_epoch' is out of range");
    def.resumed_epoch = static_cast<int64_t>(epoch);
    def.elapsed_micros = frame_u64(frame, "elapsed_micros");
    def.resume_fell_back = frame_bool(frame, "resume_fell_back", false);
  }
  return def;
}

util::Json make_reconnect(int member, uint64_t hunt, uint64_t epoch) {
  util::Json j = frame_of("reconnect");
  j["v"] = kWireVersion;
  j["rank"] = member;
  j["hunt"] = wire_u64(hunt);
  j["epoch"] = wire_u64(epoch);
  return j;
}

std::string frame_type(const util::Json& j) {
  const util::Json* t = j.is_object() ? j.find("type") : nullptr;
  return (t != nullptr && t->is_string()) ? t->as_string() : "";
}

int frame_int(const util::Json& j, const char* key) {
  const util::Json& f = require(j, key);
  try {
    return static_cast<int>(f.as_int());
  } catch (const std::exception&) {
    throw CommError(util::strf("wire: '%s' is not an integer", key));
  }
}

bool frame_bool(const util::Json& j, const char* key, bool fallback) {
  const util::Json* f = j.is_object() ? j.find(key) : nullptr;
  if (f == nullptr) return fallback;
  if (!f->is_bool()) throw CommError(util::strf("wire: '%s' is not a bool", key));
  return f->as_bool();
}

uint64_t frame_u64(const util::Json& j, const char* key) {
  const std::optional<uint64_t> v = u64_of(require(j, key));
  if (!v) throw CommError(util::strf("wire: '%s' is not a u64", key));
  return *v;
}

util::Json wire_u64(uint64_t v) { return util::Json(std::to_string(v)); }

std::optional<uint64_t> u64_of(const util::Json& v) {
  if (v.is_number()) {
    const double d = v.as_number();
    // Also refuses NaN; 2^64 and up would not convert.
    if (!(d >= 0 && d < 18446744073709551616.0)) return std::nullopt;
    return static_cast<uint64_t>(d);
  }
  if (!v.is_string()) return std::nullopt;
  // Digits only: strtoull alone would also take leading blanks and a sign,
  // and wrap " -1" to 2^64 - 1.
  const std::string& s = v.as_string();
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return std::nullopt;
  return static_cast<uint64_t>(parsed);
}

}  // namespace cas::dist
