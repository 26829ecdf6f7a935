// Workload `scan`: the executed ground-truth path. Set-up materializes
// three §5.2 datasets and fits them into the catalog. Each query costs a
// mixed-size index scan with one EstIo::EstimateBatch probe, then runs it
// with RunIndexScan through a fresh LRU pool of B frames
// (Dataset::MakeDataPool), B being 5%, 25% or 100% of T.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "buffer/lru_simulator.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "exec/index_scan.h"
#include "exec/predicate.h"
#include "perfbench.h"
#include "util/random.h"
#include "workload/data_gen.h"
#include "workload/scan_gen.h"

namespace perfbench {
namespace {

using namespace epfis;

constexpr uint64_t kCheckEvery = 8;  // First-pass queries per executor check.

struct Query {
  size_t dataset = 0;
  ScanRange range;
  bool sargable = false;
  double selectivity = 1.0;  // S of the filter when sargable.
  uint64_t filter_seed = 0;
  uint64_t buffer_pages = 0;
};

struct ScanState {
  std::unique_ptr<StatsCatalog> catalog = std::make_unique<StatsCatalog>();
  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<std::string> names;
  std::vector<Query> queries;
  uint64_t fitted_refs = 0;
};

ScanState SetUp(const RunConfig& config, Tracer& tracer, Report& report) {
  ScanState state;
  const uint64_t records = config.smoke ? 20'000 : 200'000;
  const double windows[] = {0.0, 0.1, 1.0};
  for (size_t k = 0; k < 3; ++k) {
    SyntheticSpec spec;
    spec.name = "scan_k" + std::to_string(k);
    spec.num_records = records;
    spec.num_distinct = records / 100;
    spec.records_per_page = 40;
    spec.theta = 0.86;
    spec.window_fraction = windows[k];
    spec.seed = config.seed * 100 + k;
    Result<Placement> placement = [&] {
      Span span(tracer, Layer::kWorkloadGenerate);
      return GeneratePlacement(spec);
    }();
    if (!placement.ok()) {
      report.Fail("scan set-up: " + placement.status().ToString());
      return state;
    }
    Result<std::unique_ptr<Dataset>> dataset = [&] {
      Span span(tracer, Layer::kWorkloadMaterialize);
      return MaterializeDataset(spec, *placement);
    }();
    if (!dataset.ok()) {
      report.Fail("scan set-up: " + dataset.status().ToString());
      return state;
    }
    Result<std::vector<PageId>> trace = [&] {
      Span span(tracer, Layer::kIndexFullTrace);
      return (*dataset)->FullIndexPageTrace();
    }();
    if (!trace.ok()) {
      report.Fail("scan set-up: " + trace.status().ToString());
      return state;
    }
    Result<IndexStats> stats = [&] {
      Span span(tracer, Layer::kLruFit);
      return RunLruFit(*trace, (*dataset)->num_pages(),
                       (*dataset)->num_distinct(), spec.name);
    }();
    if (!stats.ok()) {
      report.Fail("scan set-up: " + stats.status().ToString());
      return state;
    }
    state.fitted_refs += trace->size();
    {
      Span span(tracer, Layer::kCatalogPut);
      state.catalog->Put(std::move(*stats));
    }
    state.names.push_back(spec.name);
    state.datasets.push_back(std::move(*dataset));
  }
  Status published = [&] {
    Span span(tracer, Layer::kCatalogPublish);
    return state.catalog->Publish();
  }();
  if (!published.ok()) report.Fail("scan set-up: " + published.ToString());

  std::vector<ScanGenerator> generators;
  for (size_t d = 0; d < state.datasets.size(); ++d) {
    generators.emplace_back(state.datasets[d].get(), config.seed * 100 + 10 + d);
  }
  // A stratified mix, so every seed runs the same shape of work: each
  // (dataset, buffer size, small or large, filtered or not) cell gets
  // `per_cell` scans whose record fractions r are stratified over the
  // cell's range (small: r in (0, 0.2), large: r in (0.2, 1)), and filtered
  // scans stratify S over (0.1, 0.9). Scans run in a shuffled order.
  Rng rng(config.seed * 100 + 50);
  const double buffer_fractions[] = {0.05, 0.25, 1.0};
  const size_t per_cell = config.smoke ? 1 : 3;
  for (size_t d = 0; d < state.datasets.size(); ++d) {
    const double pages = static_cast<double>(state.datasets[d]->num_pages());
    for (double buffer_fraction : buffer_fractions) {
      for (bool large : {false, true}) {
        for (bool sargable : {false, true}) {
          for (size_t j = 0; j < per_cell; ++j) {
            double u = (static_cast<double>(j) + rng.NextDouble()) /
                       static_cast<double>(per_cell);
            Query query;
            query.dataset = d;
            query.range =
                generators[d].FromFraction(large ? 0.2 + 0.8 * u : 0.2 * u);
            query.sargable = sargable;
            query.selectivity =
                0.1 + 0.8 * (static_cast<double>(j) + rng.NextDouble()) /
                          static_cast<double>(per_cell);
            query.filter_seed = config.seed * 100 + state.queries.size();
            query.buffer_pages = std::max<uint64_t>(
                1, static_cast<uint64_t>(std::ceil(buffer_fraction * pages)));
            state.queries.push_back(query);
          }
        }
      }
    }
  }
  for (size_t i = state.queries.size(); i > 1; --i) {
    std::swap(state.queries[i - 1], state.queries[rng.NextBounded(i)]);
  }
  return state;
}

}  // namespace

void RunScan(const RunConfig& config, Report& report) {
  Tracer tracer;
  tracer.set_enabled(config.trace);
  std::vector<double> setup_s;
  ScanState state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    Span span(tracer, Layer::kSetup);
    state = ScanState{};  // Free the previous repetition first.
    state = SetUp(config, tracer, report);
    setup_s.push_back(SecondsSince(start));
  }
  if (state.datasets.size() != 3 || !report.correct()) return;
  tracer.set_enabled(false);

  const size_t num_queries = state.queries.size();
  std::vector<uint64_t> first_fetches(num_queries, 0);
  double abs_err = 0.0, actual = 0.0, rel_err_sum = 0.0;
  uint64_t rel_err_n = 0;
  uint64_t exec_records = 0, entries_examined = 0;
  BufferPoolStats pool_totals;
  std::vector<double> query_ms[2];
  double phase_s[2] = {0.0, 0.0};
  uint64_t records[2] = {0, 0};
  // Records per second of each whole untraced pass over the query list.
  std::vector<double> pass_rates;
  double pass_s = 0.0;
  uint64_t pass_records = 0;
  bool pass_untraced = true;

  const Clock::time_point run_start = Clock::now();
  uint64_t i = 0;
  for (; i < num_queries || SecondsSince(run_start) < config.seconds; ++i) {
    const int phase = TracedPhase(config, SecondsSince(run_start)) ? 1 : 0;
    tracer.set_enabled(phase == 1);
    const size_t q = i % num_queries;
    const bool first_pass = i < num_queries;
    const Query& query = state.queries[q];
    const Dataset& dataset = *state.datasets[query.dataset];
    const KeyRange range =
        KeyRange::Closed(query.range.lo_key, query.range.hi_key);
    const SargableFilter filter(query.selectivity, query.filter_seed);
    const SargableFilter* filter_ptr = query.sargable ? &filter : nullptr;

    CatalogEstimate estimate;
    Status estimated = Status::Ok();
    std::unique_ptr<BufferPool> pool;
    Result<IndexScanResult> result = Status::Internal("not run");
    int64_t start = NowNs();
    {
      Span query_span(tracer, Layer::kScanQuery, static_cast<uint32_t>(i));
      std::shared_ptr<const CatalogSnapshot> snapshot = [&] {
        Span span(tracer, Layer::kCatalogSnapshot, static_cast<uint32_t>(i));
        return state.catalog->snapshot();
      }();
      BatchProbe probe{
          snapshot->Resolve(state.names[query.dataset]),
          ScanSpec{query.range.sigma,
                   query.sargable ? query.selectivity : 1.0,
                   query.buffer_pages},
          TableShape{dataset.num_pages(), dataset.num_records()}};
      {
        Span span(tracer, Layer::kEstIoBatch, static_cast<uint32_t>(i));
        estimated =
            EstIo::EstimateBatch(*snapshot, {&probe, 1}, {&estimate, 1});
      }
      {
        Span span(tracer, Layer::kBufferPoolNew, static_cast<uint32_t>(i));
        pool = dataset.MakeDataPool(query.buffer_pages);
      }
      Span span(tracer, Layer::kExecScan, static_cast<uint32_t>(i));
      result = RunIndexScan(*dataset.index(), *dataset.table(), pool.get(),
                            range, filter_ptr);
    }
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    const bool ok = estimated.ok() &&
                    estimate.source == EstimateSource::kLruFitCurve &&
                    result.ok();
    if (ok) {
      report.Pass();
    } else {
      report.Fail("scan: query " + std::to_string(q) + " failed: " +
                  (result.ok() ? estimated.ToString()
                               : result.status().ToString()));
      break;
    }
    query_ms[phase].push_back(ms);
    phase_s[phase] += ms * 1e-3;
    records[phase] += result->records_fetched;
    pass_s += ms * 1e-3;
    pass_records += result->records_fetched;
    pass_untraced = pass_untraced && phase == 0;
    if (q + 1 == num_queries) {
      if (pass_untraced) {
        pass_rates.push_back(static_cast<double>(pass_records) / pass_s);
      }
      pass_s = 0.0;
      pass_records = 0;
      pass_untraced = true;
    }

    // Output checks and accuracy, outside the timed query.
    const uint64_t fetches = result->data_page_fetches;
    if (!first_pass) {
      report.Check(fetches == first_fetches[q],
                   "scan: query " + std::to_string(q) +
                       " fetched a different page count on a later pass");
      continue;
    }
    first_fetches[q] = fetches;
    const double act = static_cast<double>(fetches);
    abs_err += std::abs(estimate.fetches - act);
    actual += act;
    if (act > 0.0) {
      rel_err_sum += std::abs(estimate.fetches - act) / act;
      ++rel_err_n;
    }
    exec_records += result->records_fetched;
    entries_examined += result->entries_examined;
    const BufferPoolStats& stats = pool->stats();
    pool_totals.requests += stats.requests;
    pool_totals.hits += stats.hits;
    pool_totals.fetches += stats.fetches;
    pool_totals.evictions += stats.evictions;
    if (q % kCheckEvery == 0) {
      // Shared truth: the pool's fetches equal an LRU replay of the
      // scan's reference string at the same B.
      Result<std::vector<PageId>> trace =
          CollectScanTrace(*dataset.index(), range, filter_ptr);
      uint64_t replayed =
          trace.ok() ? CountLruFetches(*trace, query.buffer_pages) : 0;
      report.Check(trace.ok() && replayed == stats.fetches,
                   "scan: BufferPool fetches differ from LruSimulator on "
                   "query " + std::to_string(q));
    }
  }
  tracer.set_enabled(false);

  // The median pass, so a transient stall on the host moves it less.
  const double records_per_s = Median(pass_rates);
  const double agg_err = actual > 0.0 ? abs_err / actual : 0.0;
  const uint64_t executed = query_ms[0].size();
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("work_per_s", records_per_s, "1/s", pass_rates.size());
  report.Add("op_ms_p50", Percentile(query_ms[0], 50), "ms", executed);
  report.Add("op_ms_p90", Percentile(query_ms[0], 90), "ms", executed);
  report.Add("est_rel_err", agg_err, "ratio", num_queries);
  report.Add("scan_records_per_s", records_per_s, "1/s", pass_rates.size());
  report.Add("scan_query_ms_p50", Percentile(query_ms[0], 50), "ms", executed);
  report.Add("scan_query_ms_p90", Percentile(query_ms[0], 90), "ms", executed);
  report.Add("est_agg_rel_err", agg_err, "ratio", num_queries);
  report.Add("est_mean_abs_rel_err",
             rel_err_n ? rel_err_sum / static_cast<double>(rel_err_n) : 0.0,
             "ratio", rel_err_n);

  if (!config.trace) return;
  LayerTimes times{};
  AccumulateSelfTimes(tracer, times);
  AddLayerTimes(times, report);
  const LayerTime& fit = times[static_cast<size_t>(Layer::kLruFit)];
  report.Add("lru_fit.refs", static_cast<double>(state.fitted_refs), "count",
             state.datasets.size());
  report.Add("lru_fit.mrefs_per_s",
             fit.self_ns > 0 ? static_cast<double>(state.fitted_refs *
                                                   kSetupReps) /
                                   fit.self_ns * 1e3
                             : 0.0,
             "Mrefs/s", fit.calls);
  report.Add("exec.records", static_cast<double>(exec_records), "count",
             num_queries);
  report.Add("index.entries_examined", static_cast<double>(entries_examined),
             "count", num_queries);
  report.Add("buffer.requests", static_cast<double>(pool_totals.requests),
             "count", num_queries);
  report.Add("buffer.hits", static_cast<double>(pool_totals.hits), "count",
             num_queries);
  report.Add("buffer.fetches", static_cast<double>(pool_totals.fetches),
             "count", num_queries);
  report.Add("buffer.evictions", static_cast<double>(pool_totals.evictions),
             "count", num_queries);
  report.Add("buffer.hit_ratio",
             pool_totals.requests ? static_cast<double>(pool_totals.hits) /
                                        static_cast<double>(pool_totals.requests)
                                  : 0.0,
             "ratio", num_queries);
  report.Add("bench.trace_overhead_frac",
             TraceOverhead(static_cast<double>(records[0]) /
                               std::max(phase_s[0], 1e-9),
                           static_cast<double>(records[1]) /
                               std::max(phase_s[1], 1e-9)),
             "ratio", query_ms[1].size());
  report.Check(WriteSpans({&tracer}, config.spans_path, 200'000),
               "cannot write spans to " + config.spans_path);
}

}  // namespace perfbench
