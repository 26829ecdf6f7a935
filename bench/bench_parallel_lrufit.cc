// Parallel statistics collection: one serial LRU-Fit pass per index,
// with indexes run concurrently by RunLruFitBatch.
//
// Generates a multi-million-reference Zipf(theta) page trace (the skewed
// reuse pattern of a real secondary index over a hot/cold table) and
// times the legacy Mattson simulation against RunLruFit over it. Then it
// splits the same reference volume into --batch smaller indexes and
// collects their IndexStats two ways:
//
//   serial loop     RunLruFit on each index in turn, on one core
//   RunLruFitBatch  the same jobs spread over a ThreadPool
//
// The printed check verifies the batch catalog equals the serial loop's;
// the binary exits non-zero when it does not.
//
// Flags:
//   --refs=N      references in the big trace        (default 10000000)
//   --pages=N     distinct data pages                (default refs/50)
//   --theta=F     Zipf skew                          (default 0.86)
//   --threads=N   pool workers          (default: hardware concurrency)
//   --batch=N     indexes in the batch experiment    (default 16)
//   --seed=S      RNG seed                           (default 42)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "buffer/stack_distance.h"
#include "catalog/stats_catalog.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_source.h"
#include "util/arg_parser.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/data_gen.h"

using namespace epfis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameStats(const IndexStats& a, const IndexStats& b) {
  if (a.table_records != b.table_records || a.f_min != b.f_min ||
      a.pages_accessed != b.pages_accessed ||
      a.clustering != b.clustering) {
    return false;
  }
  for (double frac : {0.02, 0.1, 0.3, 0.7, 1.0}) {
    double buf = frac * static_cast<double>(a.table_pages);
    if (a.FullScanFetches(buf) != b.FullScanFetches(buf)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t refs =
      static_cast<uint64_t>(args.GetInt("refs", 10'000'000));
  const uint64_t pages = static_cast<uint64_t>(
      args.GetInt("pages", static_cast<int64_t>(refs / 50)));
  const double theta = args.GetDouble("theta", 0.86);
  const size_t threads = static_cast<size_t>(args.GetInt(
      "threads", static_cast<int64_t>(ThreadPool::DefaultThreadCount())));
  const int batch_indexes = static_cast<int>(args.GetInt("batch", 16));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  if (refs == 0 || pages == 0 || threads == 0 || batch_indexes < 1) {
    std::cerr << "--refs, --pages, --threads, and --batch must be positive\n";
    return 1;
  }

  std::cout << "generating Zipf(" << theta << ") trace: " << refs
            << " refs over " << pages << " pages...\n";
  Rng rng(seed);
  std::vector<PageId> trace = ZipfPageTrace(refs, pages, theta, rng).value();

  // --- Old-vs-new kernel: the legacy Mattson simulation alone. ---
  auto t0 = std::chrono::steady_clock::now();
  StackDistanceSimulator legacy_sim(trace.size());
  legacy_sim.AccessAll(trace);
  double legacy_s = SecondsSince(t0);

  // --- Single large index: one serial LRU-Fit pass. ---
  t0 = std::chrono::steady_clock::now();
  auto serial = RunLruFit(trace, pages, pages / 10, "big_idx");
  double serial_s = SecondsSince(t0);
  if (!serial.ok()) {
    std::cerr << serial.status().ToString() << '\n';
    return 1;
  }

  TablePrinter table({"collection", "seconds", "speedup"});
  table.AddRow()
      .Cell("legacy Mattson simulation")
      .Cell(legacy_s, 3)
      .Cell(serial_s / legacy_s, 2);
  table.AddRow().Cell("serial LRU-Fit").Cell(serial_s, 3).Cell(1.0, 2);
  table.Print(std::cout);
  std::cout << '\n';

  // --- Many smaller indexes: batch collection over the pool. ---
  const uint64_t small_refs = refs / static_cast<uint64_t>(batch_indexes);
  const uint64_t small_pages = std::max<uint64_t>(pages / 8, 128);
  std::vector<std::vector<PageId>> small_traces;
  for (int i = 0; i < batch_indexes; ++i) {
    Rng small_rng(seed + 1 + i);
    small_traces.push_back(
        ZipfPageTrace(small_refs, small_pages, theta, small_rng).value());
  }

  t0 = std::chrono::steady_clock::now();
  StatsCatalog serial_catalog;
  for (int i = 0; i < batch_indexes; ++i) {
    auto stats = RunLruFit(small_traces[i], small_pages, small_pages / 10,
                           "idx_" + std::to_string(i));
    if (stats.ok()) serial_catalog.Put(std::move(stats).value());
  }
  double loop_s = SecondsSince(t0);

  ThreadPool pool(threads);
  t0 = std::chrono::steady_clock::now();
  StatsCatalog batch_catalog;
  std::vector<LruFitJob> jobs;
  for (int i = 0; i < batch_indexes; ++i) {
    LruFitJob job;
    job.trace =
        std::make_unique<VectorTraceSource>(std::move(small_traces[i]));
    job.table_pages = small_pages;
    job.distinct_keys = small_pages / 10;
    job.index_name = "idx_" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  LruFitBatchResult batch = RunLruFitBatch(std::move(jobs), pool,
                                           &batch_catalog);
  double batch_s = SecondsSince(t0);

  TablePrinter batch_table({"collection", "threads", "indexes", "ok",
                            "seconds", "speedup"});
  batch_table.AddRow()
      .Cell("serial loop")
      .Cell(int64_t{1})
      .Cell(int64_t{batch_indexes})
      .Cell(int64_t{batch_indexes})
      .Cell(loop_s, 3)
      .Cell(1.0, 2);
  batch_table.AddRow()
      .Cell("RunLruFitBatch")
      .Cell(static_cast<int64_t>(threads))
      .Cell(int64_t{batch_indexes})
      .Cell(static_cast<int64_t>(batch.num_ok))
      .Cell(batch_s, 3)
      .Cell(loop_s / batch_s, 2);
  batch_table.Print(std::cout);

  bool identical = true;
  for (int i = 0; i < batch_indexes; ++i) {
    auto a = serial_catalog.Get("idx_" + std::to_string(i));
    auto b = batch_catalog.Get("idx_" + std::to_string(i));
    if (!a.ok() || !b.ok() || !SameStats(*a, *b)) identical = false;
  }
  std::cout << "batch catalog matches serial loop: "
            << (identical ? "yes" : "NO (bug!)") << '\n';
  return identical ? 0 : 1;
}
