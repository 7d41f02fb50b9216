// Wall-clock timing for benchmarks and the multi-walk engine.
#pragma once

#include <chrono>

namespace cas::util {

/// Monotonic stopwatch. Starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cas::util
