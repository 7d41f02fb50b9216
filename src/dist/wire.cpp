#include "dist/wire.hpp"

#include <cerrno>
#include <cstdlib>

#include "util/strings.hpp"

namespace cas::dist {

namespace {

const util::Json& require(const util::Json& j, const char* key) {
  const util::Json* f = j.is_object() ? j.find(key) : nullptr;
  if (f == nullptr) throw CommError(util::strf("wire: frame missing '%s'", key));
  return *f;
}

int require_int(const util::Json& j, const char* key) {
  const util::Json& f = require(j, key);
  try {
    return static_cast<int>(f.as_int());
  } catch (const std::exception&) {
    throw CommError(util::strf("wire: '%s' is not an integer", key));
  }
}

}  // namespace

util::Json make_hello(int rank, int ranks) {
  util::Json j = util::Json::object();
  j["type"] = "hello";
  j["v"] = kWireVersion;
  j["rank"] = rank;
  j["ranks"] = ranks;
  return j;
}

util::Json make_welcome(int rank, int ranks) {
  util::Json j = util::Json::object();
  j["type"] = "welcome";
  j["rank"] = rank;
  j["ranks"] = ranks;
  return j;
}

util::Json make_msg(int to, const Message& m) {
  util::Json j = util::Json::object();
  j["type"] = "msg";
  j["to"] = to;
  j["tag"] = m.tag;
  j["src"] = m.source;
  util::Json payload = util::Json::array();
  for (const int64_t v : m.payload) payload.push_back(std::to_string(v));
  j["payload"] = std::move(payload);
  return j;
}

util::Json make_hb(int rank) {
  util::Json j = util::Json::object();
  j["type"] = "hb";
  j["rank"] = rank;
  return j;
}

util::Json make_abort(const std::string& reason) {
  util::Json j = util::Json::object();
  j["type"] = "abort";
  j["reason"] = reason;
  return j;
}

util::Json make_bye(int rank) {
  util::Json j = util::Json::object();
  j["type"] = "bye";
  j["rank"] = rank;
  return j;
}

util::Json make_join(const std::string& hunt_key) {
  util::Json j = util::Json::object();
  j["type"] = "join";
  j["v"] = kWireVersion;
  j["key"] = hunt_key;
  return j;
}

util::Json make_leave(int member) {
  util::Json j = util::Json::object();
  j["type"] = "leave";
  j["rank"] = member;
  return j;
}

util::Json make_ckpt(int member, uint64_t epoch, uint64_t bytes, uint64_t micros) {
  util::Json j = util::Json::object();
  j["type"] = "ckpt";
  j["rank"] = member;
  j["epoch"] = wire_u64(epoch);
  j["bytes"] = wire_u64(bytes);
  j["micros"] = wire_u64(micros);
  return j;
}

util::Json make_epoch_base(int member, uint64_t epoch) {
  util::Json j = util::Json::object();
  j["type"] = "epoch";
  j["rank"] = member;
  j["epoch"] = wire_u64(epoch);
  return j;
}

util::Json make_rebalance_base(uint64_t epoch) {
  util::Json j = util::Json::object();
  j["type"] = "rebalance";
  j["epoch"] = wire_u64(epoch);
  return j;
}

util::Json make_solved(int member, uint64_t id, uint64_t iters, util::Json stats) {
  util::Json j = util::Json::object();
  j["type"] = "solved";
  j["rank"] = member;
  j["id"] = wire_u64(id);
  j["iters"] = wire_u64(iters);
  j["stats"] = std::move(stats);
  return j;
}

util::Json make_leader(uint64_t id, uint64_t iters) {
  util::Json j = util::Json::object();
  j["type"] = "leader";
  j["id"] = wire_u64(id);
  j["iters"] = wire_u64(iters);
  return j;
}

util::Json make_state_sync(uint64_t epoch, util::Json state) {
  util::Json j = util::Json::object();
  j["type"] = "state_sync";
  j["epoch"] = wire_u64(epoch);
  j["state"] = std::move(state);
  return j;
}

util::Json make_reconnect(int member, uint64_t epoch, const std::string& hunt_key) {
  util::Json j = util::Json::object();
  j["type"] = "reconnect";
  j["v"] = kWireVersion;
  j["rank"] = member;
  j["epoch"] = wire_u64(epoch);
  j["key"] = hunt_key;
  return j;
}

std::string frame_type(const util::Json& j) {
  const util::Json* t = j.is_object() ? j.find("type") : nullptr;
  return (t != nullptr && t->is_string()) ? t->as_string() : "";
}

Message parse_msg(const util::Json& j) {
  Message m;
  m.tag = require_int(j, "tag");
  m.source = require_int(j, "src");
  const util::Json& payload = require(j, "payload");
  if (!payload.is_array()) throw CommError("wire: msg payload is not an array");
  m.payload.reserve(payload.as_array().size());
  for (const util::Json& e : payload.as_array()) {
    if (!e.is_string()) throw CommError("wire: msg payload element is not a string");
    const std::string& s = e.as_string();
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str() || *end != '\0')
      throw CommError("wire: msg payload element '" + s + "' is not an int64");
    m.payload.push_back(static_cast<int64_t>(v));
  }
  return m;
}

int msg_dest(const util::Json& j) { return require_int(j, "to"); }

int frame_int(const util::Json& j, const char* key) { return require_int(j, key); }

bool frame_bool(const util::Json& j, const char* key, bool fallback) {
  const util::Json* f = j.is_object() ? j.find(key) : nullptr;
  if (f == nullptr) return fallback;
  if (!f->is_bool()) throw CommError(util::strf("wire: '%s' is not a bool", key));
  return f->as_bool();
}

uint64_t frame_u64(const util::Json& j, const char* key) {
  const util::Json& f = require(j, key);
  if (f.is_number()) {
    const double d = f.as_number();
    if (d < 0) throw CommError(util::strf("wire: '%s' is negative", key));
    return static_cast<uint64_t>(d);
  }
  if (!f.is_string()) throw CommError(util::strf("wire: '%s' is not a u64 string", key));
  const std::string& s = f.as_string();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0')
    throw CommError(util::strf("wire: '%s' value '%s' is not a u64", key, s.c_str()));
  return static_cast<uint64_t>(v);
}

util::Json wire_u64(uint64_t v) { return util::Json(std::to_string(v)); }

}  // namespace cas::dist
