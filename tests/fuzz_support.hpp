// What the seeded mutational fuzz suites share: a global operator new that
// fails (and counts) any single allocation over 64 MB, the byte mutator,
// and field extremes. Include it in exactly one translation unit of a test
// binary: it replaces the program's operator new.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace cas::fuzz {

/// Largest single allocation any input may cause; a request past it fails
/// with std::bad_alloc before touching memory and is counted.
inline constexpr std::size_t kAllocationCeiling = std::size_t{64} << 20;
inline std::atomic<int> g_oversized{0};

/// Bytes that move a JSON parser between states.
inline constexpr char kAlphabet[] = "{}[]:,\"\\-+.0123456789eE tfnul";

/// Extremes for one field of a frame or a checkpoint, as JSON text.
inline const std::vector<std::string> kFieldExtremes{
    "0",   "-1",     "1",        "2147483647", "-2147483648", "9007199254740993", "1e308",
    "-1e308", "0.5", "1e999",    "\"18446744073709551615\"",  "\"18446744073709551616\"",
    "\"-5\"", "\"\"", "\"abc\"", "null",       "true",        "[]",  "{}", "[[[[[[]]]]]]"};

/// One to four byte edits of `s`.
inline std::string mutate(std::string s, core::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng.below(s.size());
    switch (rng.below(5)) {
      case 0:  // overwrite with any byte
        if (!s.empty()) s[at] = static_cast<char>(rng.below(256));
        break;
      case 1:  // insert a structural byte
        s.insert(at, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // delete a span
        if (!s.empty()) s.erase(at, 1 + rng.below(8));
        break;
      case 3:  // duplicate a span
        if (!s.empty()) s.insert(at, s.substr(at, 1 + rng.below(16)));
        break;
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

}  // namespace cas::fuzz

void* operator new(std::size_t bytes) {
  if (bytes > cas::fuzz::kAllocationCeiling) {
    cas::fuzz::g_oversized.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
