// Extension (§6 future work): RID-list plans and index ANDing/ORing.
//
// Part 1 compares, across the buffer sweep, the measured cost of an
// ordered index scan vs a RID-sort fetch of the same record set, together
// with each plan's estimate (EPFIS for the ordered scan, Yao for the
// sorted fetch). The crossover — ordered scans win only once the buffer
// absorbs their refetches — is the economics behind RID-sort plans.
//
// Part 2 measures index ANDing/ORing of two independent predicates and
// compares against the independence-assumption estimates.

#include <iostream>

#include "bench/bench_common.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "exec/multi_index.h"
#include "exec/rid_list.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = ParseBenchOptions(argc, argv, /*default_scale=*/0.05);
  SyntheticSpec spec;
  spec.num_records = static_cast<uint64_t>(1'000'000 * options.scale);
  spec.num_distinct = static_cast<uint64_t>(10'000 * options.scale);
  spec.records_per_page = 40;
  spec.window_fraction = 0.5;
  spec.noise = 0.05;
  spec.secondary_distinct = std::max<uint64_t>(spec.num_distinct / 10, 2);
  spec.seed = options.seed;
  auto dataset_or = GenerateSynthetic(spec);
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status().ToString() << '\n';
    return 1;
  }
  Dataset& dataset = **dataset_or;
  double n = static_cast<double>(dataset.num_records());
  double t = static_cast<double>(dataset.num_pages());

  auto trace = dataset.FullIndexPageTrace().value();
  IndexStats stats =
      RunLruFit(trace, dataset.num_pages(), dataset.num_distinct(), "idx")
          .value();

  // --- Part 1: ordered scan vs RID-sort, sigma = 10%. ---
  int64_t hi = static_cast<int64_t>(dataset.num_distinct() / 10);
  KeyRange range = KeyRange::Closed(1, std::max<int64_t>(hi, 1));
  double sigma = static_cast<double>(dataset.RecordsInRange(1, hi)) / n;

  RidList list = RidList::FromIndexRange(*dataset.index(), range).value();
  auto scan_trace = CollectScanTrace(*dataset.index(), range).value();
  StackDistanceKernel sim(scan_trace.size() + 1);
  sim.AccessAll(scan_trace);

  std::cout << "Part 1: ordered index scan vs RID-sort fetch (sigma="
            << sigma << ", k=" << list.size() << " records)\n";
  TablePrinter part1({"buffer", "scan F (measured)", "scan F (EPFIS)",
                      "ridsort F (measured)", "ridsort F (Yao)"});
  double rid_est = EstimateRidFetchPages(n, t, static_cast<double>(list.size()));
  for (double frac : {0.02, 0.05, 0.15, 0.40, 0.90}) {
    uint64_t b = std::max<uint64_t>(1, static_cast<uint64_t>(frac * t));
    auto pool = dataset.MakeDataPool(b);
    RidFetchResult rid =
        FetchRidList(*dataset.table(), pool.get(), list).value();
    part1.AddRow()
        .Cell(b)
        .Cell(sim.Fetches(b))
        .Cell(EstIo::Estimate(stats, {sigma, 1.0, b}).value(), 1)
        .Cell(rid.data_page_fetches)
        .Cell(rid_est, 1);
  }
  part1.Print(std::cout);
  std::cout << '\n';

  // --- Part 2: index ANDing / ORing. ---
  int64_t hi2 = std::max<int64_t>(
      static_cast<int64_t>(dataset.num_secondary_distinct() / 4), 1);
  KeyRange range2 = KeyRange::Closed(1, hi2);
  double sigma2 =
      static_cast<double>(dataset.SecondaryRecordsInRange(1, hi2)) / n;

  std::cout << "Part 2: multi-index combination (sigma1=" << sigma
            << ", sigma2=" << sigma2 << ")\n";
  TablePrinter part2({"op", "RIDs (measured)", "RIDs (est)",
                      "fetches (measured)", "fetches (est)"});
  for (IndexCombineOp op : {IndexCombineOp::kAnd, IndexCombineOp::kOr}) {
    auto pool = dataset.MakeDataPool(64);
    MultiIndexResult result =
        RunMultiIndexScan(*dataset.index(), range, *dataset.index2(), range2,
                          op, *dataset.table(), pool.get())
            .value();
    part2.AddRow()
        .Cell(op == IndexCombineOp::kAnd ? "AND" : "OR")
        .Cell(result.rids_combined)
        .Cell(EstimateCombinedRecords(n, sigma, sigma2, op), 1)
        .Cell(result.data_page_fetches)
        .Cell(EstimateMultiIndexFetchPages(n, t, sigma, sigma2, op), 1);
  }
  part2.Print(std::cout);
  std::cout << "\n(the paper's §2 setting forbids these plans; §6 lists "
               "them as future work —\nthis is that extension, with Yao "
               "costing the sorted fetches)\n";
  return 0;
}

}  // namespace
}  // namespace epfis

int main(int argc, char** argv) { return epfis::Run(argc, argv); }
