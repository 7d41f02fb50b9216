// Shared reader for JSON spec objects with the runtime's fail-loudly
// contract: every key must be consumed, unknown keys throw naming the
// offender (the util::Flags behaviour, extended to JSON). One
// implementation for request specs, engine knobs, strategy knobs, and
// problem options.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace cas::runtime {

class KnobReader {
 public:
  /// `what` prefixes every error, e.g. "engine 'as'" or "request".
  /// Null is accepted (no knobs given); any other non-object throws.
  KnobReader(const util::Json& obj, std::string what) : obj_(obj), what_(std::move(what)) {
    if (!obj.is_null() && !obj.is_object())
      throw std::invalid_argument(what_ + ": expected a JSON object");
  }

  /// Mark `key` consumed; returns its value or nullptr when absent.
  const util::Json* take(const std::string& key) {
    consumed_.push_back(key);
    return obj_.find(key);
  }

  // Typed convenience: overwrite `out` iff the key is present. Integers
  // outside the target type throw instead of wrapping.
  void read(const std::string& key, int& out) {
    if (const auto* v = take(key)) out = narrow<int>(key, v->as_int());
  }
  void read(const std::string& key, unsigned& out) {
    if (const auto* v = take(key)) out = narrow<unsigned>(key, v->as_int());
  }
  void read(const std::string& key, uint64_t& out) {
    if (const auto* v = take(key)) out = static_cast<uint64_t>(v->as_int());
  }
  void read(const std::string& key, double& out) {
    if (const auto* v = take(key)) out = v->as_number();
  }
  void read(const std::string& key, bool& out) {
    if (const auto* v = take(key)) out = v->as_bool();
  }
  void read(const std::string& key, std::string& out) {
    if (const auto* v = take(key)) out = v->as_string();
  }

  /// Reject any key never taken.
  void finish() const {
    if (!obj_.is_object()) return;
    for (const auto& [k, _] : obj_.as_object()) {
      if (std::find(consumed_.begin(), consumed_.end(), k) == consumed_.end())
        throw std::invalid_argument(what_ + ": unknown key '" + k + "'");
    }
  }

 private:
  template <typename T>
  T narrow(const std::string& key, int64_t v) const {
    if (v < std::numeric_limits<T>::min() || v > std::numeric_limits<T>::max())
      throw std::invalid_argument(what_ + ": '" + key + "' is out of range");
    return static_cast<T>(v);
  }

  const util::Json& obj_;
  std::string what_;
  std::vector<std::string> consumed_;
};

}  // namespace cas::runtime
