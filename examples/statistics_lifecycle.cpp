// Statistics lifecycle: collection, catalog persistence, staleness.
//
// LRU-Fit is designed to run "as part of the statistics collection
// routines in the database ... called periodically" (§4.1). This example
// walks that lifecycle:
//
//   1. Collect statistics for two indexes concurrently with RunLruFitBatch
//      (the production shape: a statistics daemon refreshing every index
//      in one call) and persist them to a catalog file (the line-segment
//      coordinates exactly as §4.1 stores them).
//   2. Restart: load the catalog in a fresh process-like state and verify
//      estimates are identical.
//   3. Mutate the table (append a burst of records out of key order) and
//      show how stale statistics drift from measured reality until
//      LRU-Fit is re-run.
//
// Build & run:  ./build/examples/statistics_lifecycle

#include <cstdio>
#include <iostream>
#include <memory>

#include "catalog/stats_catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/data_gen.h"

using namespace epfis;

namespace {

Result<IndexStats> Collect(Dataset& dataset, const std::string& name) {
  EPFIS_ASSIGN_OR_RETURN(std::vector<PageId> trace,
                         dataset.FullIndexPageTrace());
  return RunLruFit(trace, dataset.num_pages(), dataset.num_distinct(), name);
}

Result<LruFitJob> MakeCollectionJob(Dataset& dataset,
                                    const std::string& name) {
  EPFIS_ASSIGN_OR_RETURN(std::vector<PageId> trace,
                         dataset.FullIndexPageTrace());
  LruFitJob job;
  job.trace = std::make_unique<VectorTraceSource>(std::move(trace));
  job.table_pages = dataset.num_pages();
  job.distinct_keys = dataset.num_distinct();
  job.index_name = name;
  return job;
}

}  // namespace

int main() {
  SyntheticSpec spec;
  spec.name = "ledger";
  spec.num_records = 30'000;
  spec.num_distinct = 300;
  spec.records_per_page = 30;
  spec.window_fraction = 0.1;
  spec.seed = 31;
  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;

  SyntheticSpec orders_spec;
  orders_spec.name = "orders";
  orders_spec.num_records = 20'000;
  orders_spec.num_distinct = 500;
  orders_spec.records_per_page = 25;
  orders_spec.window_fraction = 0.4;
  orders_spec.seed = 32;
  auto orders_or = GenerateSynthetic(orders_spec);
  if (!orders_or.ok()) {
    std::cerr << orders_or.status().ToString() << '\n';
    return 1;
  }

  // --- 1. Collect both indexes in one batch and persist. ---
  StatsCatalog catalog;
  {
    std::vector<LruFitJob> jobs;
    for (auto& [ds, name] :
         {std::pair<Dataset*, const char*>{&dataset, "ledger.key"},
          std::pair<Dataset*, const char*>{&**orders_or, "orders.key"}}) {
      auto job = MakeCollectionJob(*ds, name);
      if (!job.ok()) {
        std::cerr << job.status().ToString() << '\n';
        return 1;
      }
      jobs.push_back(std::move(*job));
    }
    ThreadPool pool(2);
    LruFitBatchResult batch =
        RunLruFitBatch(std::move(jobs), pool, &catalog);
    for (const Status& s : batch.statuses) {
      if (!s.ok()) {
        std::cerr << s.ToString() << '\n';
        return 1;
      }
    }
    std::cout << "batch-collected " << batch.num_ok
              << " indexes on 2 worker threads\n";
  }
  auto stats_or = catalog.Get("ledger.key");
  if (!stats_or.ok()) {
    std::cerr << stats_or.status().ToString() << '\n';
    return 1;
  }
  const std::string path = "/tmp/epfis_example_catalog.cat";
  if (Status s = catalog.SaveToFileV3(path); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  std::cout << "saved statistics catalog to " << path << " ("
            << catalog.size() << " indexes; ledger.key: "
            << stats_or->fpf->knots().size() << " knot pairs, C = "
            << stats_or->clustering << ")\n";

  // --- 2. "Restart" and verify identical estimates. ---
  StatsCatalog reloaded;
  if (Status s = reloaded.LoadFromFile(path); !s.ok()) {
    std::cerr << s.ToString() << '\n';
    return 1;
  }
  IndexStats fresh = catalog.Get("ledger.key").value();
  IndexStats restored = reloaded.Get("ledger.key").value();
  auto estimate = [](const IndexStats& s, const ScanSpec& scan) {
    return EstIo::Estimate(s, scan).value();
  };
  bool identical = true;
  for (double sigma : {0.01, 0.2, 0.9}) {
    for (uint64_t b : {30ULL, 300ULL, 900ULL}) {
      ScanSpec scan{sigma, 1.0, b};
      if (estimate(fresh, scan) != estimate(restored, scan)) {
        identical = false;
      }
    }
  }
  std::cout << "estimates after catalog round-trip: "
            << (identical ? "bit-identical" : "DIFFER (bug!)") << "\n\n";

  // --- 3. Staleness: append 40% more records, scattered. ---
  std::cout << "appending 12000 scattered records (no re-collection)...\n";
  {
    Rng rng(77);
    TableHeap* heap = dataset.table();
    // Append fresh pages and scatter new records of random keys onto them.
    uint32_t first_new = heap->num_pages();
    for (int p = 0; p < 400; ++p) (void)heap->AppendPage();
    for (int i = 0; i < 12000; ++i) {
      int64_t key = 1 + static_cast<int64_t>(rng.NextBounded(300));
      uint32_t page =
          first_new + static_cast<uint32_t>(rng.NextBounded(400));
      auto rid = heap->InsertIntoPage(page, Record({key}));
      if (rid.ok()) {
        (void)dataset.index()->Insert(IndexEntry{key, *rid});
      }
    }
    (void)dataset.data_pool()->FlushAll();
    (void)dataset.index_pool()->FlushAll();
  }

  TablePrinter drift({"statistics", "est F (sigma=0.2, B=300)",
                      "measured F", "err %"});
  auto measure = [&]() -> double {
    // Keys 1..60 is ~20% of the key domain (not exactly of the records,
    // but close enough for the drift illustration).
    auto pool = dataset.MakeDataPool(300);
    auto run = RunIndexScan(*dataset.index(), *dataset.table(), pool.get(),
                            KeyRange::Closed(1, 60));
    return run.ok() ? static_cast<double>(run->data_page_fetches) : -1;
  };
  double measured = measure();

  ScanSpec probe{0.2, 1.0, 300};
  double stale_est = estimate(restored, probe);
  drift.AddRow()
      .Cell("stale (pre-append)")
      .Cell(stale_est, 1)
      .Cell(measured, 0)
      .Cell(100.0 * (stale_est - measured) / measured, 1);

  auto refreshed_or = Collect(dataset, "ledger.key");
  if (!refreshed_or.ok()) {
    std::cerr << refreshed_or.status().ToString() << '\n';
    return 1;
  }
  catalog.Put(*refreshed_or);
  double fresh_est = estimate(*refreshed_or, probe);
  drift.AddRow()
      .Cell("re-collected")
      .Cell(fresh_est, 1)
      .Cell(measured, 0)
      .Cell(100.0 * (fresh_est - measured) / measured, 1);

  drift.Print(std::cout);
  std::cout << "\nre-running LRU-Fit after bulk changes pulls the estimate "
               "back toward\nthe measured cost — why the paper runs it "
               "with the periodic statistics\ncollection routines.\n";
  std::remove(path.c_str());
  return 0;
}
