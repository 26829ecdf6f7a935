// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
//
//  * StackDistanceSimulator — LRU-Fit's inner loop; the paper requires the
//    whole multi-buffer-size simulation to be feasible "while statistics
//    are being gathered for other purposes".
//  * LruSimulator — the direct single-size simulation (for comparison).
//  * EstIo::Estimate — the optimizer-time path; the paper's pitch is
//    that estimation "only involves computing a simple formula", so this
//    must be nanoseconds-to-microseconds.
//  * B-tree insert/seek and buffer pool hits — substrate costs.
//  * The executed index scan split into its per-record costs: index
//    iteration, LRU pool bookkeeping, the simulated disk read and record
//    verification (BM_IndexScan*, BM_DiskReadPage; see DESIGN.md).
//  * Piecewise-linear fitting — the once-per-index statistics cost.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "buffer/lru_simulator.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "index/btree.h"
#include "index/btree_iterator.h"
#include "storage/disk_manager.h"
#include "util/piecewise.h"
#include "util/random.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

std::vector<PageId> RandomTrace(size_t len, uint32_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageId> trace;
  trace.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(pages)));
  }
  return trace;
}

void BM_StackDistanceAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, static_cast<uint32_t>(state.range(0)),
                           11);
  for (auto _ : state) {
    StackDistanceSimulator sim(trace.size());
    sim.AccessAll(trace);
    benchmark::DoNotOptimize(sim.Fetches(64));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistanceAccess)->Arg(256)->Arg(4096)->Arg(65536);

// The cache-conscious kernel on the identical workload — compare
// items_per_second against BM_StackDistanceAccess for the old-vs-new
// single-thread throughput ratio (bench_kernel runs the full-scale
// 10M-reference comparison and emits BENCH_kernel.json).
void BM_StackDistanceKernelAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, static_cast<uint32_t>(state.range(0)),
                           11);
  for (auto _ : state) {
    StackDistanceKernel kernel(trace.size());
    kernel.AccessAll(trace);
    benchmark::DoNotOptimize(kernel.Fetches(64));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_StackDistanceKernelAccess)->Arg(256)->Arg(4096)->Arg(65536);

void BM_LruSimulatorAccess(benchmark::State& state) {
  auto trace = RandomTrace(1 << 16, 4096, 13);
  for (auto _ : state) {
    LruSimulator sim(static_cast<size_t>(state.range(0)));
    sim.AccessAll(trace);
    benchmark::DoNotOptimize(sim.fetches());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_LruSimulatorAccess)->Arg(16)->Arg(256)->Arg(4096);

void BM_LruFitFullRun(benchmark::State& state) {
  auto trace =
      RandomTrace(static_cast<size_t>(state.range(0)), 2048, 17);
  for (auto _ : state) {
    auto stats = RunLruFit(trace, 2048, 100, "bm");
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LruFitFullRun)->Arg(1 << 14)->Arg(1 << 17);

void BM_EstIo(benchmark::State& state) {
  auto trace = RandomTrace(1 << 15, 1024, 19);
  IndexStats stats = RunLruFit(trace, 1024, 100, "bm").value();
  uint64_t i = 0;
  for (auto _ : state) {
    ScanSpec scan;
    scan.sigma = 0.001 * static_cast<double>(i % 1000 + 1);
    scan.buffer_pages = 12 + (i % 1000);
    benchmark::DoNotOptimize(EstIo::Estimate(stats, scan).value());
    ++i;
  }
}
BENCHMARK(BM_EstIo);

void BM_PiecewiseFit(benchmark::State& state) {
  Rng rng(23);
  std::vector<Knot> points;
  double y = 100000;
  for (int i = 0; i < state.range(0); ++i) {
    y *= 0.92;
    points.push_back(Knot{static_cast<double>(i * 50 + 12),
                          y + rng.NextDouble() * 100});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitPiecewiseLinear(points, 6));
  }
}
BENCHMARK(BM_PiecewiseFit)->Arg(20)->Arg(80)->Arg(200);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(29);
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk;
    BufferPool pool(&disk, 512);
    BTree tree(&pool, "bm");
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      IndexEntry entry{static_cast<int64_t>(rng.NextBounded(1 << 20)),
                       Rid{static_cast<PageId>(i), 0}};
      benchmark::DoNotOptimize(tree.Insert(entry));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(10000);

void BM_BTreeSeek(benchmark::State& state) {
  DiskManager disk;
  BufferPool pool(&disk, 4096);
  BTree tree(&pool, "bm");
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 200000; ++i) {
    entries.push_back(
        IndexEntry{i, Rid{static_cast<PageId>(i / 100),
                          static_cast<uint16_t>(i % 100)}});
  }
  (void)tree.BulkLoad(std::move(entries));
  Rng rng(31);
  for (auto _ : state) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(200000));
    auto it = tree.SeekGE(BTree::MinEntryForKey(key));
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK(BM_BTreeSeek);

void BM_BufferPoolHit(benchmark::State& state) {
  DiskManager disk;
  for (int i = 0; i < 64; ++i) disk.AllocatePage();
  BufferPool pool(&disk, 64);
  Rng rng(37);
  for (auto _ : state) {
    auto guard = pool.FetchPage(static_cast<PageId>(rng.NextBounded(64)));
    benchmark::DoNotOptimize(guard);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

// The scan workload's shape (perfbench `scan`): a §5.2 dataset with
// N = 200k, I = 2000, R = 40 (T = 5000), Zipf 0.86, window K = 0.1, and a
// full index scan through a fresh LRU pool of 5% of T. Every benchmark
// below reports items_per_second in records, so 1e9 / items_per_second is
// ns per record and the layers can be told apart by difference.
const Dataset& ScanDataset() {
  static const std::unique_ptr<Dataset> dataset = [] {
    SyntheticSpec spec;
    spec.num_records = 200'000;
    spec.num_distinct = 2'000;
    spec.records_per_page = 40;
    spec.theta = 0.86;
    spec.window_fraction = 0.1;
    spec.seed = 20'100;
    return GenerateSynthetic(spec).value();
  }();
  return *dataset;
}


// Index iteration alone: seek to the first entry and walk every leaf.
void BM_IndexScanIterate(benchmark::State& state) {
  const Dataset& dataset = ScanDataset();
  for (auto _ : state) {
    auto it = dataset.index()->Begin().value();
    uint64_t pages = 0;
    for (; it.Valid(); (void)it.Next()) pages += it.entry().rid.page_id;
    benchmark::DoNotOptimize(pages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.num_records()));
}
BENCHMARK(BM_IndexScanIterate)->Unit(benchmark::kMillisecond);

// RunIndexScan through a fresh pool of `range(1)` percent of T: iteration
// + LRU bookkeeping + one simulated read per miss (+ verification when
// range(0) is 1). Counter fetch_frac = fetches / records.
void BM_IndexScan(benchmark::State& state) {
  const Dataset& dataset = ScanDataset();
  IndexScanOptions options;
  options.verify_records = state.range(0) != 0;
  const size_t pool_pages = static_cast<size_t>(
      std::max<int64_t>(1, dataset.num_pages() * state.range(1) / 100));
  uint64_t fetches = 0;
  for (auto _ : state) {
    auto pool = dataset.MakeDataPool(pool_pages);
    auto result = RunIndexScan(*dataset.index(), *dataset.table(), pool.get(),
                               KeyRange::All(), nullptr, options);
    fetches = result.value().data_page_fetches;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.num_records()));
  state.counters["fetch_frac"] = static_cast<double>(fetches) /
                                 static_cast<double>(dataset.num_records());
}
BENCHMARK(BM_IndexScan)
    ->ArgNames({"verify", "pool_pct"})
    ->Args({0, 5})
    ->Args({1, 5})
    ->Args({0, 100})
    ->Unit(benchmark::kMillisecond);

// The simulated read alone: DiskManager::ReadPage of the scan's miss
// pages, in scan order, into a ring of pool-sized frames. Items are reads.
void BM_DiskReadPage(benchmark::State& state) {
  const Dataset& dataset = ScanDataset();
  auto trace = dataset.FullIndexPageTrace().value();
  const size_t frames = dataset.num_pages() / 20;
  LruSimulator lru(frames);
  std::vector<PageId> misses;
  for (PageId page : trace) {
    if (lru.Access(page)) misses.push_back(page);
  }
  std::vector<char> ring(frames * kPageSize);
  size_t next = 0;
  for (auto _ : state) {
    for (PageId page : misses) {
      (void)dataset.data_disk()->ReadPage(page, ring.data() + next * kPageSize);
      next = next + 1 == frames ? 0 : next + 1;
    }
    benchmark::DoNotOptimize(ring.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(misses.size()));
}
BENCHMARK(BM_DiskReadPage)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace epfis

BENCHMARK_MAIN();
