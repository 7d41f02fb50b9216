#include "common.hpp"

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <set>

namespace perfbench {

std::vector<uint64_t> seed_list(uint64_t bench_seed, uint64_t purpose, size_t count) {
  SeedStream s(bench_seed, purpose);
  std::vector<uint64_t> out;
  out.reserve(count);
  while (out.size() < count) out.push_back(s.next_seed());
  return out;
}

double host_steal_s() {
  static const double ticks_per_s = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] / ticks_per_s;  // user nice system idle iowait irq softirq steal
}

double Sample::mean() const {
  if (xs.empty()) return 0;
  double sum = 0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Sample::quantile(double q) const {
  if (xs.empty()) return 0;
  std::vector<double> s = xs;
  std::sort(s.begin(), s.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Sample::tail_q() const {
  const auto n = static_cast<double>(xs.size());
  if (n < 20) return 0.5;
  // Ten samples beyond position q*(n-1) means q <= (n - 11) / (n - 1).
  return std::min(0.99, (n - 11.0) / (n - 1.0));
}

bool verify_costas(const std::vector<int>& perm, int n) {
  if (static_cast<int>(perm.size()) != n || n < 1) return false;
  const auto [lo, hi] = std::minmax_element(perm.begin(), perm.end());
  if (*hi - *lo != n - 1) return false;
  std::set<int> values(perm.begin(), perm.end());
  if (static_cast<int>(values.size()) != n) return false;
  std::set<std::pair<int, int>> vectors;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (!vectors.emplace(j - i, perm[static_cast<size_t>(j)] - perm[static_cast<size_t>(i)])
               .second)
        return false;
  return true;
}

uint64_t Tracer::reserve() {
  std::lock_guard<std::mutex> g(mu_);
  return next_id_++;
}

void Tracer::finish(uint64_t id, std::string name, std::string request, double t0, double t1,
                    uint64_t parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back({id, parent, std::move(name), std::move(request), t0, t1});
}

uint64_t Tracer::record(std::string name, std::string request, double t0, double t1,
                        uint64_t parent) {
  if (!enabled_) return 0;
  const uint64_t id = reserve();
  finish(id, std::move(name), std::move(request), t0, t1, parent);
  return id;
}

size_t Tracer::count() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

cas::util::Json Tracer::layer_summary() const {
  std::lock_guard<std::mutex> g(mu_);
  // Child coverage per parent: children of one parent may overlap in time
  // (concurrent requests), so merge their intervals before subtracting.
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].emplace_back(s.t0, s.t1);
  struct Totals {
    uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Totals> layers;
  for (const Span& s : spans_) {
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    Totals& t = layers[layer];
    ++t.count;
    t.total += s.t1 - s.t0;
    t.self += (s.t1 - s.t0) - covered;
  }
  cas::util::Json out = cas::util::Json::object();
  for (const auto& [layer, t] : layers) {
    cas::util::Json j = cas::util::Json::object();
    j["spans"] = t.count;
    j["total_ms"] = t.total * 1e3;
    j["self_ms"] = t.self * 1e3;
    out[layer] = std::move(j);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const Span& s : spans_) {
      cas::util::Json j = cas::util::Json::object();
      j["id"] = s.id;
      j["parent"] = s.parent;
      j["name"] = s.name;
      if (!s.request.empty()) j["request"] = s.request;
      j["start_us"] = (s.t0 - origin_) * 1e6;
      j["end_us"] = (s.t1 - origin_) * 1e6;
      out << j.dump(0) << "\n";
    }
  }
  cas::util::Json summary = cas::util::Json::object();
  summary["layers"] = layer_summary();
  out << summary.dump(0) << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
