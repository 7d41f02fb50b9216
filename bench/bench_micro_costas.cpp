// M1 — google-benchmark microbenchmarks for the Costas model kernels: the
// costs that dominate the engine's iteration budget (pure delta move
// evaluation vs the do/undo probe it replaced, swap application, the
// incrementally maintained error table vs the from-scratch projection,
// reset candidate evaluation). These back the cost model used by the
// platform profiles. Emits BENCH_micro_costas.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "json_out.hpp"

#include "core/delta_adapter.hpp"
#include "core/problem.hpp"
#include "core/rng.hpp"
#include "costas/checker.hpp"
#include "costas/construction.hpp"
#include "costas/enumerate.hpp"
#include "costas/model.hpp"
#include "simd/select.hpp"
#include "simd/simd.hpp"

// --- allocation counter -------------------------------------------------
// Replaces global new/delete with counting wrappers so the reset bench can
// ASSERT the hot reset path is allocation-free after warmup (the batched
// candidate pipeline reuses its SoA buffer and kernel scratches).
namespace {
std::atomic<uint64_t> g_alloc_count{0};
uint64_t bench_alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace cas;

namespace {

void BM_DeltaCost(benchmark::State& state) {
  // The hot kernel: pure incremental move evaluation, no state writes.
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(1);
  p.randomize(rng);
  int i = 0;
  for (auto _ : state) {
    const int a = i % n;
    const int b = (i * 7 + 1) % n;
    if (a != b) benchmark::DoNotOptimize(p.delta_cost(a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaCost)->Arg(14)->Arg(18)->Arg(22)->Arg(26);

void BM_CostIfSwapDoUndo(benchmark::State& state) {
  // The strategy delta_cost replaced: apply the swap, read, undo.
  const int n = static_cast<int>(state.range(0));
  core::DoUndoAdapter<costas::CostasProblem> p(costas::CostasProblem{n});
  core::Rng rng(1);
  p.randomize(rng);
  int i = 0;
  for (auto _ : state) {
    const int a = i % n;
    const int b = (i * 7 + 1) % n;
    if (a != b) benchmark::DoNotOptimize(p.cost() + p.delta_cost(a, b));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CostIfSwapDoUndo)->Arg(14)->Arg(18)->Arg(22)->Arg(26);

// --- batched row-delta scan: SIMD vs scalar batch vs per-j loop ---------
// One item == one full culprit row (n - 1 move deltas): what an Adaptive
// Search iteration pays for its min-conflict scan. The three variants are
// the dispatch-selected kernel (AVX-512 or AVX2, whichever the host
// runs; CAS_SIMD=avx2 pins the latter), the same batched walk pinned to
// the scalar backend, and the historical per-j delta_cost loop the engines
// used before the batched API. n = 17 is the benchmark's size, where the
// fill's compacted lanes make exactly two 8-lane AVX2 blocks or one
// 16-lane AVX-512 block; n = 18 adds a block with one live lane to each.

void BM_DeltaRow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(1);
  p.randomize(rng);
  std::vector<core::Cost> row(static_cast<size_t>(n));
  int i = 0;
  for (auto _ : state) {
    p.delta_costs_row(i % n, {row.data(), row.size()});
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_DeltaRow)->Arg(14)->Arg(17)->Arg(18)->Arg(22)->Arg(26);

void BM_DeltaRowScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  simd::ScopedIsa guard(simd::Isa::kScalar);
  costas::CostasProblem p(n);
  core::Rng rng(1);
  p.randomize(rng);
  std::vector<core::Cost> row(static_cast<size_t>(n));
  int i = 0;
  for (auto _ : state) {
    p.delta_costs_row(i % n, {row.data(), row.size()});
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaRowScalar)->Arg(14)->Arg(17)->Arg(18)->Arg(22)->Arg(26);

void BM_DeltaRowPerJ(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(1);
  p.randomize(rng);
  std::vector<core::Cost> row(static_cast<size_t>(n));
  int i = 0;
  for (auto _ : state) {
    const int a = i % n;
    for (int j = 0; j < n; ++j)
      row[static_cast<size_t>(j)] = (j == a) ? core::kExcludedDelta : p.delta_cost(a, j);
    benchmark::DoNotOptimize(row.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeltaRowPerJ)->Arg(14)->Arg(17)->Arg(18)->Arg(22)->Arg(26);

// --- culprit scan: masked argmax over the error table -------------------
// One item == one full culprit selection (value pass + reservoir). Sized
// at the Costas orders plus larger tables where the vector width shows.

void culprit_scan_bench(benchmark::State& state, bool scalar) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<simd::ScopedIsa> guard;
  if (scalar) guard = std::make_unique<simd::ScopedIsa>(simd::Isa::kScalar);
  core::Rng rng(9);
  std::vector<core::Cost> errors(static_cast<size_t>(n));
  std::vector<uint64_t> tabu(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    errors[static_cast<size_t>(k)] = static_cast<core::Cost>(rng.below(64));
    tabu[static_cast<size_t>(k)] = rng.below(8);  // vs iter 5: ~3/4 admissible
  }
  for (auto _ : state) {
    const auto pick = simd::pick_max_where_le({errors.data(), errors.size()},
                                              {tabu.data(), tabu.size()}, 5, rng);
    benchmark::DoNotOptimize(pick.index);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CulpritScan(benchmark::State& state) { culprit_scan_bench(state, /*scalar=*/false); }
BENCHMARK(BM_CulpritScan)->Arg(18)->Arg(128)->Arg(1024);

void BM_CulpritScanScalar(benchmark::State& state) { culprit_scan_bench(state, /*scalar=*/true); }
BENCHMARK(BM_CulpritScanScalar)->Arg(18)->Arg(128)->Arg(1024);

void BM_ApplySwap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(2);
  p.randomize(rng);
  int i = 0;
  for (auto _ : state) {
    const int a = i % n;
    const int b = (i * 5 + 1) % n;
    if (a != b) p.apply_swap(a, b);
    benchmark::DoNotOptimize(p.cost());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApplySwap)->Arg(14)->Arg(18)->Arg(22);

void BM_ComputeErrors(benchmark::State& state) {
  // From-scratch projection — what every engine iteration paid before the
  // incrementally maintained errors() table.
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(3);
  p.randomize(rng);
  std::vector<core::Cost> errs(static_cast<size_t>(n));
  for (auto _ : state) {
    p.compute_errors(errs);
    benchmark::DoNotOptimize(errs.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeErrors)->Arg(14)->Arg(18)->Arg(22);

void BM_ErrorsMaintainedAcrossSwaps(benchmark::State& state) {
  // Incremental path: one swap application (which keeps errs_ fresh) plus
  // the errors() read. Compare against BM_ApplySwap + BM_ComputeErrors.
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(3);
  p.randomize(rng);
  int i = 0;
  for (auto _ : state) {
    const int a = i % n;
    const int b = (i * 5 + 1) % n;
    if (a != b) p.apply_swap(a, b);
    benchmark::DoNotOptimize(p.errors().data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ErrorsMaintainedAcrossSwaps)->Arg(14)->Arg(18)->Arg(22);

void BM_StatelessEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(4);
  const auto perm = rng.permutation(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.evaluate(perm));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatelessEvaluate)->Arg(14)->Arg(18)->Arg(22);

void BM_CustomReset(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(5);
  p.randomize(rng);
  // The batched reset pipeline must be allocation-free once its scratch
  // buffers are warm — resets run thousands of times per hard instance.
  for (int t = 0; t < 8; ++t) p.custom_reset(rng);
  const uint64_t allocs_before = bench_alloc_count();
  for (int t = 0; t < 64; ++t) p.custom_reset(rng);
  if (bench_alloc_count() != allocs_before) {
    std::fprintf(stderr,
                 "BM_CustomReset: custom_reset allocated after warmup "
                 "(%llu allocations in 64 resets) — the reset path must be "
                 "allocation-free\n",
                 static_cast<unsigned long long>(bench_alloc_count() - allocs_before));
    std::abort();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.custom_reset(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CustomReset)->Arg(14)->Arg(18)->Arg(22);

// --- batched reset candidate evaluation: SIMD vs scalar batch vs the ---
// --- per-candidate evaluate_bounded loop it replaced -------------------
// One item == one full reset candidate-set evaluation (the ~2n+7 family
// 1/2/3 permutations custom_reset scores per diversification), winner
// selection included. The per-candidate baseline replicates the historical
// serial consider-loop exactly: evaluate_bounded against a running best.

/// Reset-shaped candidate set: the model's OWN family-1/2 generator (so
/// the measured candidate shape can never drift from custom_reset's) plus
/// 3 deterministic stand-ins for the RNG-picked family-3 prefix rotations.
void fill_reset_candidates(const costas::CostasProblem& p, int m, core::CandidateBatch& batch) {
  const int n = p.size();
  const std::vector<int>& perm = p.permutation();
  batch.reset(n, p.reset_candidate_count());
  p.append_reset_families_1_2(m, batch);
  for (int e : {n / 3, n / 2, n - 2}) {
    if (e <= 0) continue;
    const int lane = batch.append(perm);
    for (int i = 0; i < e; ++i) batch.set(lane, i, perm[static_cast<size_t>(i + 1)]);
    batch.set(lane, e, perm[0]);
  }
}

void reset_batch_bench(benchmark::State& state, bool scalar) {
  const int n = static_cast<int>(state.range(0));
  std::unique_ptr<simd::ScopedIsa> guard;
  if (scalar) guard = std::make_unique<simd::ScopedIsa>(simd::Isa::kScalar);
  costas::CostasProblem p(n);
  core::Rng rng(6);
  p.randomize(rng);
  core::CandidateBatch batch;
  fill_reset_candidates(p, n / 2, batch);
  std::vector<core::Cost> out(static_cast<size_t>(batch.count()));
  for (auto _ : state) {
    p.evaluate_batch(batch, std::numeric_limits<core::Cost>::max(), {out.data(), out.size()});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  if (!scalar) state.SetLabel(simd::isa_name(simd::active_isa()));
}

void BM_ResetBatch(benchmark::State& state) { reset_batch_bench(state, /*scalar=*/false); }
BENCHMARK(BM_ResetBatch)->Arg(14)->Arg(18)->Arg(22)->Arg(26);

void BM_ResetBatchScalar(benchmark::State& state) { reset_batch_bench(state, /*scalar=*/true); }
BENCHMARK(BM_ResetBatchScalar)->Arg(14)->Arg(18)->Arg(22)->Arg(26);

void BM_ResetBatchPerCandidate(benchmark::State& state) {
  // The strategy the batch replaced: one evaluate_bounded call per
  // candidate with a running best-so-far bound (the serial consider-loop).
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(6);
  p.randomize(rng);
  core::CandidateBatch batch;
  fill_reset_candidates(p, n / 2, batch);
  std::vector<int> cand(static_cast<size_t>(n));
  for (auto _ : state) {
    core::Cost best = std::numeric_limits<core::Cost>::max();
    int best_lane = -1;
    for (int c = 0; c < batch.count(); ++c) {
      batch.extract(c, cand);
      const core::Cost cost = p.evaluate_bounded(cand, best);
      if (cost < best) {
        best = cost;
        best_lane = c;
      }
    }
    benchmark::DoNotOptimize(best_lane);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResetBatchPerCandidate)->Arg(14)->Arg(18)->Arg(22)->Arg(26);

void BM_FullRebuildViaSetPermutation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  costas::CostasProblem p(n);
  core::Rng rng(6);
  const auto perm = rng.permutation(n);
  for (auto _ : state) {
    p.set_permutation(perm);
    benchmark::DoNotOptimize(p.cost());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullRebuildViaSetPermutation)->Arg(18);

void BM_CheckerIsCostas(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto perm = costas::construct_any(n).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(costas::is_costas(perm));
  }
}
BENCHMARK(BM_CheckerIsCostas)->Arg(16)->Arg(22);

void BM_EnumerateCount(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(costas::count_costas(n));
  }
}
BENCHMARK(BM_EnumerateCount)->Arg(7)->Arg(8)->Arg(9);

}  // namespace

int main(int argc, char** argv) {
  return cas::bench::run_micro_bench(argc, argv, "bench_micro_costas",
                                     "BENCH_micro_costas.json");
}
