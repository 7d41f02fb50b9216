// Shared pieces of the perfbench program: the clock, seed streams, order
// statistics, the benchmark's own Costas verifier, the in-memory span
// recorder, and the metric sink every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

inline double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// SplitMix64: one deterministic stream per (bench seed, purpose) pair, so
/// every seed list the benchmark hands the program derives from --seed.
class SeedStream {
 public:
  SeedStream(uint64_t bench_seed, uint64_t purpose)
      : state_(bench_seed * 0x9E3779B97F4A7C15ull ^ (purpose + 0x632BE59BD9B4E019ull)) {}
  uint64_t next_raw() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// A request seed: nonzero (0 marks a stochastic request) and below 2^31,
  /// so it survives the JSON number round trip exactly.
  uint64_t next_seed() { return 1 + next_raw() % 0x7FFFFFFEull; }

 private:
  uint64_t state_;
};

/// Purposes of the seed streams (stable: changing one changes the inputs).
enum : uint64_t { kSolveSeeds = 1, kHotSeeds = 2, kFreshSeeds = 3, kMicroSeeds = 4 };

std::vector<uint64_t> seed_list(uint64_t bench_seed, uint64_t purpose, size_t count);

/// The host's CPU steal counter (/proc/stat, summed over CPUs) in seconds:
/// time the hypervisor ran something else on this machine's busy CPUs.
double host_steal_s();

/// Wall-clock interval that subtracts the host's CPU steal. Steal accrues
/// only on CPUs that have work, so while `busy_cpus` CPUs each run a walker,
/// steal ÷ busy_cpus is the time each walker lost to the hypervisor and
/// `seconds()` is the call's interval without it. Other slowdowns from
/// neighbours stay in. Construct it just before the call.
class UnstolenClock {
 public:
  explicit UnstolenClock(unsigned busy_cpus)
      : busy_cpus_(busy_cpus), t0_(now_s()), steal0_(host_steal_s()) {}
  /// Wall seconds since construction, less the steal over them ÷ busy_cpus.
  [[nodiscard]] double seconds() const {
    return now_s() - t0_ - (host_steal_s() - steal0_) / busy_cpus_;
  }

 private:
  double busy_cpus_;
  double t0_;
  double steal0_;
};

/// Order statistics over a copy of the samples.
struct Sample {
  std::vector<double> xs;

  void add(double x) { xs.push_back(x); }
  [[nodiscard]] size_t size() const { return xs.size(); }
  [[nodiscard]] double mean() const;
  /// Linear-interpolated quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// The tail percentile: p99 when at least ten samples lie beyond it,
  /// otherwise the highest percentile that still has ten samples beyond it
  /// (the median when there are fewer than twenty samples).
  [[nodiscard]] double tail_q() const;
  [[nodiscard]] double tail() const { return quantile(tail_q()); }
};

/// The benchmark's own Costas verifier: a permutation whose displacement
/// vectors (j - i, p[j] - p[i]), i < j, are pairwise distinct.
bool verify_costas(const std::vector<int>& perm, int n);

/// In-memory span recorder: one record per call into a layer, made by the
/// benchmark around that call. Disabled (untraced runs) it records nothing.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    std::string name;     // "<layer>.<operation>"
    std::string request;  // spans of one request share this
    double t0 = 0;
    double t1 = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_s()) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  uint64_t record(std::string name, std::string request, double t0, double t1,
                  uint64_t parent = 0);
  /// Reserve an id for a span whose children are recorded before it ends.
  uint64_t reserve();
  void finish(uint64_t id, std::string name, std::string request, double t0, double t1,
              uint64_t parent = 0);

  [[nodiscard]] size_t count() const;
  /// Per-layer totals: span count, summed duration, and self time (duration
  /// minus the part covered by child spans).
  [[nodiscard]] cas::util::Json layer_summary() const;
  /// Write every span as one JSON line, then the summary. False on I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string request = {}, uint64_t parent = 0)
      : t_(t), name_(std::move(name)), request_(std::move(request)), parent_(parent),
        id_(t.enabled() ? t.reserve() : 0), t0_(t.enabled() ? now_s() : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) t_.finish(id_, std::move(name_), std::move(request_), t0_, now_s(), parent_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::string name_;
  std::string request_;
  uint64_t parent_;
  uint64_t id_;
  double t0_;
};

/// What one run reports: metrics by name, the attempt/failure tally, and
/// the first few failure descriptions for the log.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;  // name -> (value, unit)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;  // cas_serve executable
  std::string work_dir;   // scratch space inside the checkout
  unsigned nproc = 1;
};

}  // namespace perfbench
