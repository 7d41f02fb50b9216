#include "net/fault.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/strings.hpp"

namespace cas::net {

namespace {

// Stream-separation constants so a connection's ordinal, the process salt,
// and the accept and disk streams never collide in seed space.
constexpr uint64_t kSaltMix = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kOrdinalMix = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kAcceptMix = 0x94d049bb133111ebull;
constexpr uint64_t kDiskMix = 0xd6e8feb86659fd93ull;

/// Every fault class by its plan key, and every counter by its stats key.
constexpr std::pair<const char*, std::vector<FaultClass> FaultPlan::*> kClasses[] = {
    {"short_read", &FaultPlan::short_read},   {"short_write", &FaultPlan::short_write},
    {"latency", &FaultPlan::latency},         {"reset", &FaultPlan::reset},
    {"corrupt", &FaultPlan::corrupt},         {"refuse_accept", &FaultPlan::refuse_accept},
    {"eintr", &FaultPlan::eintr},             {"eagain", &FaultPlan::eagain},
    {"torn_write", &FaultPlan::torn_write},   {"fail_rename", &FaultPlan::fail_rename},
    {"fail_fsync", &FaultPlan::fail_fsync}};
constexpr std::pair<const char*, std::atomic<uint64_t> FaultStats::*> kCounters[] = {
    {"short_reads", &FaultStats::short_reads},  {"short_writes", &FaultStats::short_writes},
    {"latencies", &FaultStats::latencies},      {"resets", &FaultStats::resets},
    {"corruptions", &FaultStats::corruptions},  {"refusals", &FaultStats::refusals},
    {"eintrs", &FaultStats::eintrs},            {"eagains", &FaultStats::eagains},
    {"torn_writes", &FaultStats::torn_writes},  {"failed_renames", &FaultStats::failed_renames},
    {"failed_fsyncs", &FaultStats::failed_fsyncs}};

double u01(core::SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

FaultClass parse_class(const std::string& name, const util::Json& j) {
  FaultClass c;
  if (!j.is_object())
    throw std::runtime_error("fault plan: class '" + name + "' must be an object");
  for (const auto& [key, value] : j.as_object()) {
    if (key == "prob") c.prob = value.as_number();
    else if (key == "max") c.max = static_cast<uint64_t>(value.as_int());
    else if (key == "min_op") c.min_op = static_cast<uint64_t>(value.as_int());
    else if (key == "max_op") c.max_op = static_cast<uint64_t>(value.as_int());
    else if (key == "min_salt") c.min_salt = static_cast<uint64_t>(value.as_int());
    else if (key == "ms") c.ms = value.as_number();
    else if (key == "burst") c.burst = static_cast<int>(value.as_int());
    else
      throw std::runtime_error("fault plan: unknown field '" + key + "' in class '" + name + "'");
  }
  if (c.prob < 0.0 || c.prob > 1.0)
    throw std::runtime_error("fault plan: class '" + name + "' prob must be in [0, 1]");
  if (c.burst < 1)
    throw std::runtime_error("fault plan: class '" + name + "' burst must be >= 1");
  return c;
}

std::vector<FaultClass> parse_windows(const std::string& name, const util::Json& j) {
  std::vector<FaultClass> out;
  if (j.is_array()) {
    for (const auto& item : j.as_array()) out.push_back(parse_class(name, item));
  } else {
    out.push_back(parse_class(name, j));
  }
  return out;
}

}  // namespace

FaultPlan FaultPlan::parse(const util::Json& spec) {
  if (!spec.is_object()) throw std::runtime_error("fault plan: document must be a JSON object");
  FaultPlan plan;
  for (const auto& [key, value] : spec.as_object()) {
    if (key == "seed") {
      plan.seed = static_cast<uint64_t>(value.as_int());
      continue;
    }
    const auto* cls = std::find_if(std::begin(kClasses), std::end(kClasses),
                                   [&](const auto& c) { return key == c.first; });
    if (cls == std::end(kClasses))
      throw std::runtime_error("fault plan: unknown fault class '" + key + "'");
    plan.*(cls->second) = parse_windows(key, value);
  }
  return plan;
}

util::Json FaultStats::to_json() const {
  util::Json j = util::Json::object();
  for (const auto& [name, counter] : kCounters) j[name] = (this->*counter).load();
  return j;
}

uint64_t FaultStats::total() const {
  uint64_t sum = 0;
  for (const auto& [name, counter] : kCounters) sum += (this->*counter).load();
  return sum;
}

std::atomic<FaultInjector*> FaultInjector::g_active{nullptr};

void FaultInjector::arm(const FaultPlan& plan, uint64_t salt) {
  // Leaky singleton: the armed plan must outlive every thread that might
  // still be inside a hook at process exit, so it is never destroyed.
  static FaultInjector* inst = new FaultInjector();
  g_active.store(nullptr, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(inst->mu_);
    inst->plan_ = plan;
    inst->salt_ = salt;
    inst->conns_.clear();
    inst->fired_.clear();
    inst->next_ordinal_ = 0;
    inst->accept_ops_ = 0;
    inst->accept_rng_ = core::SplitMix64(plan.seed ^ (salt * kSaltMix) ^ kAcceptMix);
    inst->disk_ops_ = 0;
    inst->disk_rng_ = core::SplitMix64(plan.seed ^ (salt * kSaltMix) ^ kDiskMix);
    for (const auto& [name, counter] : kCounters) (inst->stats_.*counter).store(0);
  }
  g_active.store(inst, std::memory_order_release);
}

void FaultInjector::disarm() { g_active.store(nullptr, std::memory_order_release); }

bool FaultInjector::arm_from_env() {
  const char* spec = std::getenv("CAS_FAULT_PLAN");
  if (spec == nullptr || spec[0] == '\0') return false;
  std::string text = spec;
  if (text[0] == '@') {
    std::ifstream in(text.substr(1), std::ios::binary);
    if (!in) throw std::runtime_error("CAS_FAULT_PLAN: cannot read " + text.substr(1));
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  FaultPlan plan = FaultPlan::parse(util::Json::parse(text));
  uint64_t salt = 0;
  if (const char* s = std::getenv("CAS_FAULT_SALT"); s != nullptr && s[0] != '\0')
    salt = std::strtoull(s, nullptr, 10);
  arm(plan, salt);
  return true;
}

const FaultStats& FaultInjector::stats() {
  static FaultStats empty;
  FaultInjector* f = active();
  return f != nullptr ? f->stats_ : empty;
}

FaultInjector::ConnState& FaultInjector::state_of(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    ConnState s;
    s.rng = core::SplitMix64(plan_.seed ^ (salt_ * kSaltMix) ^ (next_ordinal_++ * kOrdinalMix));
    it = conns_.emplace(fd, s).first;
  }
  return it->second;
}

FaultClass* FaultInjector::draw(std::vector<FaultClass>& windows, core::SplitMix64& rng,
                                uint64_t op) {
  for (FaultClass& w : windows) {
    if (w.prob <= 0.0 || op < w.min_op || op > w.max_op || salt_ < w.min_salt) continue;
    uint64_t& fired = fired_[&w];
    if (fired >= w.max) continue;
    if (u01(rng) >= w.prob) continue;
    ++fired;
    return &w;
  }
  return nullptr;
}

ssize_t FaultInjector::recv(int fd, void* buf, size_t len, int flags) {
  double sleep_ms = 0.0;
  size_t clamped = len;
  bool do_reset = false;
  FaultClass* corrupt_window = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ConnState& s = state_of(fd);
    const uint64_t op = s.recv_ops++;
    if (s.dead) {
      errno = ECONNRESET;
      return -1;
    }
    if (s.eintr_left > 0) {
      --s.eintr_left;
      errno = EINTR;
      return -1;
    }
    if (s.eagain_left > 0) {
      --s.eagain_left;
      errno = EAGAIN;
      return -1;
    }
    if (FaultClass* w = draw(plan_.eintr, s.rng, op)) {
      s.eintr_left = w->burst - 1;
      stats_.eintrs.fetch_add(1, std::memory_order_relaxed);
      errno = EINTR;
      return -1;
    }
    if (FaultClass* w = draw(plan_.eagain, s.rng, op)) {
      s.eagain_left = w->burst - 1;
      stats_.eagains.fetch_add(1, std::memory_order_relaxed);
      errno = EAGAIN;
      return -1;
    }
    if (FaultClass* w = draw(plan_.latency, s.rng, op)) {
      sleep_ms = w->ms;
      stats_.latencies.fetch_add(1, std::memory_order_relaxed);
    }
    if (draw(plan_.reset, s.rng, op) != nullptr) {
      s.dead = true;
      do_reset = true;
      stats_.resets.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (draw(plan_.short_read, s.rng, op) != nullptr && len > 1) {
        clamped = 1 + static_cast<size_t>(s.rng.next() % 7);
        if (clamped > len) clamped = len;
        stats_.short_reads.fetch_add(1, std::memory_order_relaxed);
      }
      corrupt_window = draw(plan_.corrupt, s.rng, op);
    }
  }
  if (sleep_ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
  if (do_reset) {
    // Kill both directions so the peer observes the failure too (what a
    // real RST does): it sees EOF/ECONNRESET mid-frame.
    ::shutdown(fd, SHUT_RDWR);
    errno = ECONNRESET;
    return -1;
  }
  const ssize_t n = ::recv(fd, buf, clamped, flags);
  if (corrupt_window != nullptr && n > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ConnState& s = state_of(fd);
    const size_t at = static_cast<size_t>(s.rng.next() % static_cast<uint64_t>(n));
    static_cast<unsigned char*>(buf)[at] ^=
        static_cast<unsigned char>(1u << (s.rng.next() % 8));
    stats_.corruptions.fetch_add(1, std::memory_order_relaxed);
  } else if (corrupt_window != nullptr) {
    // The recv produced no bytes to corrupt: refund the cap so the window
    // still fires on a later op.
    std::lock_guard<std::mutex> lock(mu_);
    --fired_[corrupt_window];
  }
  return n;
}

ssize_t FaultInjector::send(int fd, const void* buf, size_t len, int flags) {
  double sleep_ms = 0.0;
  size_t clamped = len;
  bool do_reset = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ConnState& s = state_of(fd);
    const uint64_t op = s.send_ops++;
    if (s.dead) {
      errno = EPIPE;
      return -1;
    }
    if (s.eintr_left > 0) {
      --s.eintr_left;
      errno = EINTR;
      return -1;
    }
    if (s.eagain_left > 0) {
      --s.eagain_left;
      errno = EAGAIN;
      return -1;
    }
    if (FaultClass* w = draw(plan_.eintr, s.rng, op)) {
      s.eintr_left = w->burst - 1;
      stats_.eintrs.fetch_add(1, std::memory_order_relaxed);
      errno = EINTR;
      return -1;
    }
    if (FaultClass* w = draw(plan_.eagain, s.rng, op)) {
      s.eagain_left = w->burst - 1;
      stats_.eagains.fetch_add(1, std::memory_order_relaxed);
      errno = EAGAIN;
      return -1;
    }
    if (FaultClass* w = draw(plan_.latency, s.rng, op)) {
      sleep_ms = w->ms;
      stats_.latencies.fetch_add(1, std::memory_order_relaxed);
    }
    if (draw(plan_.reset, s.rng, op) != nullptr) {
      s.dead = true;
      do_reset = true;
      stats_.resets.fetch_add(1, std::memory_order_relaxed);
    } else if (draw(plan_.short_write, s.rng, op) != nullptr && len > 1) {
      clamped = 1 + static_cast<size_t>(s.rng.next() % 7);
      if (clamped > len) clamped = len;
      stats_.short_writes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (sleep_ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
  if (do_reset) {
    ::shutdown(fd, SHUT_RDWR);
    errno = EPIPE;
    return -1;
  }
  return ::send(fd, buf, clamped, flags);
}

bool FaultInjector::refuse_accept() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draw(plan_.refuse_accept, accept_rng_, accept_ops_++) == nullptr) return false;
  stats_.refusals.fetch_add(1, std::memory_order_relaxed);
  return true;
}

DiskFault FaultInjector::next_disk_write() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t op = disk_ops_++;
  if (draw(plan_.torn_write, disk_rng_, op) != nullptr) {
    stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
    return DiskFault::kTornWrite;
  }
  if (draw(plan_.fail_rename, disk_rng_, op) != nullptr) {
    stats_.failed_renames.fetch_add(1, std::memory_order_relaxed);
    return DiskFault::kFailRename;
  }
  if (draw(plan_.fail_fsync, disk_rng_, op) != nullptr) {
    stats_.failed_fsyncs.fetch_add(1, std::memory_order_relaxed);
    return DiskFault::kFailFsync;
  }
  return DiskFault::kNone;
}

void FaultInjector::forget(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(fd);
}

ssize_t fault_recv(int fd, void* buf, size_t len, int flags) {
  FaultInjector* f = FaultInjector::active();
  if (f == nullptr) return ::recv(fd, buf, len, flags);
  return f->recv(fd, buf, len, flags);
}

ssize_t fault_send(int fd, const void* buf, size_t len, int flags) {
  FaultInjector* f = FaultInjector::active();
  if (f == nullptr) return ::send(fd, buf, len, flags);
  return f->send(fd, buf, len, flags);
}

bool fault_refuse_accept() {
  FaultInjector* f = FaultInjector::active();
  return f != nullptr && f->refuse_accept();
}

void fault_forget(int fd) {
  FaultInjector* f = FaultInjector::active();
  if (f != nullptr) f->forget(fd);
}

DiskFault fault_disk_write() {
  FaultInjector* f = FaultInjector::active();
  return f != nullptr ? f->next_disk_write() : DiskFault::kNone;
}

}  // namespace cas::net
