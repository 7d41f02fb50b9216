#include "util/provenance.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "simd/simd.hpp"

// Regenerated by cmake/git_sha.cmake on every build, so the stamped SHA
// tracks HEAD without reconfiguring. Absent under other build setups.
#if defined(__has_include)
#if __has_include("cas_git_sha.h")
#include "cas_git_sha.h"
#endif
#endif

namespace cas::util {

namespace {

#ifndef CAS_GIT_SHA
#define CAS_GIT_SHA "unknown"
#endif
#ifndef CAS_BUILD_TYPE
#define CAS_BUILD_TYPE "unknown"
#endif
#ifndef CAS_CXX_FLAGS
#define CAS_CXX_FLAGS "unknown"
#endif

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string utc_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t t = std::chrono::system_clock::to_time_t(now);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  char buf[64];  // room for any int fields, so the format cannot truncate
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec);
  return buf;
}

}  // namespace

Json build_provenance() {
  Json j = Json::object();
  j["git_sha"] = CAS_GIT_SHA;
  j["build_type"] = CAS_BUILD_TYPE;
  j["cxx_flags"] = CAS_CXX_FLAGS;
  j["compiler"] = compiler_id();
  j["hardware_threads"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
  j["simd_isa"] = simd::isa_name(simd::active_isa());
  j["timestamp_utc"] = utc_timestamp();
  return j;
}

}  // namespace cas::util
