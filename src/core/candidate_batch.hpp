// CandidateBatch — the SoA buffer behind batched candidate evaluation
// (the restart half of the engine hot path, mirroring the batch-of-
// configurations formulation of the Cell-BE parallel local search kernels).
//
// A batch holds up to `capacity` candidate configurations of `size`
// variables COLUMN-MAJOR: for every variable index i the values of all
// candidates sit contiguously (values[i * lane_stride + c]), so a kernel
// walking the difference triangle loads one position of 4/8 candidates
// with a single vector load — no gathers, no per-candidate pointer chase.
// The lane stride is padded to a full vector block (8 int32 lanes), which
// lets kernels always read whole blocks; lanes beyond count() hold stale
// but initialized values and their results are discarded by the caller.
//
// The buffer is built for reuse: reset() keeps the allocation whenever the
// (size, capacity) footprint fits, so a hot reset loop that appends ~2n+7
// candidates per diversification is allocation-free after warmup (the
// reset micro bench asserts exactly that).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace cas::core {

class CandidateBatch {
 public:
  /// Lanes per padded block: kernels may read (but never interpret) up to
  /// this many candidates at once, so lane_stride() is a multiple of it.
  static constexpr int kLaneBlock = 8;

  CandidateBatch() = default;

  /// Start a fresh batch of `size`-variable candidates with room for
  /// `capacity` of them. Reuses the existing allocation when it is large
  /// enough; existing candidates are discarded either way.
  void reset(int size, int capacity) {
    if (size < 0 || capacity < 0)
      throw std::invalid_argument("CandidateBatch::reset: negative size/capacity");
    n_ = size;
    stride_ = static_cast<size_t>((capacity + kLaneBlock - 1) / kLaneBlock) *
              static_cast<size_t>(kLaneBlock);
    if (stride_ == 0) stride_ = static_cast<size_t>(kLaneBlock);
    const size_t need = static_cast<size_t>(n_) * stride_;
    if (values_.size() < need) values_.resize(need, 0);
    count_ = 0;
  }

  /// Append a candidate initialized to `base` (base.size() == size());
  /// returns its lane index. Tweak individual entries with set() afterwards
  /// — cheaper than staging the transformed configuration in a scratch
  /// vector first.
  int append(std::span<const int> base) {
    append_copies(base, 1);
    return count_ - 1;
  }

  /// Append `k` candidates initialized to `base` (base.size() == size()),
  /// written one column of all k lanes at a time; returns their column
  /// base, the first new lane's slot in column 0, so new candidate c's value
  /// at position i sits at column_base[i * lane_stride() + c]. Callers
  /// rewrite what differs from `base` through it.
  int32_t* append_copies(std::span<const int> base, int k) {
    if (static_cast<int>(base.size()) != n_)
      throw std::invalid_argument("CandidateBatch::append_copies: size mismatch");
    if (k < 0 || static_cast<size_t>(count_) + static_cast<size_t>(k) > stride_)
      throw std::length_error("CandidateBatch::append_copies: capacity exhausted");
    int32_t* const column_base = values_.data() + count_;
    for (int i = 0; i < n_; ++i)
      std::fill_n(column_base + static_cast<size_t>(i) * stride_, k,
                  static_cast<int32_t>(base[static_cast<size_t>(i)]));
    count_ += k;
    return column_base;
  }

  void set(int lane, int i, int32_t v) {
    values_[static_cast<size_t>(i) * stride_ + static_cast<size_t>(lane)] = v;
  }
  [[nodiscard]] int32_t get(int lane, int i) const {
    return values_[static_cast<size_t>(i) * stride_ + static_cast<size_t>(lane)];
  }

  /// Copy candidate `lane` into `out` (size() entries).
  void extract(int lane, std::span<int> out) const {
    for (int i = 0; i < n_; ++i)
      out[static_cast<size_t>(i)] = static_cast<int>(get(lane, i));
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] int count() const { return count_; }
  /// Distance (in lanes) between consecutive variable columns — a multiple
  /// of kLaneBlock.
  [[nodiscard]] size_t lane_stride() const { return stride_; }
  /// Column-major storage: data()[i * lane_stride() + c].
  [[nodiscard]] const int32_t* data() const { return values_.data(); }

 private:
  int n_ = 0;
  int count_ = 0;
  size_t stride_ = 0;
  std::vector<int32_t> values_;
};

}  // namespace cas::core
