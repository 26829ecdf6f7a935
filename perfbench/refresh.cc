// Workload `refresh`: a statistics daemon re-fitting a small database on
// one thread. Each cycle opens every index's trace file (OpenTraceSource),
// runs RunLruFit on it, puts the entry into the catalog, then saves the
// catalog as v3, maps it back (OpenCatalogSnapshotV3) and publishes it.

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog_v3.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "perfbench.h"
#include "workload/data_gen.h"

namespace perfbench {
namespace {

using namespace epfis;

// One index of the refreshed database: its trace file and table shape.
struct TraceIndex {
  std::string name;  // Catalog index name; also the shape label.
  std::string path;
  uint64_t table_pages = 0;
  uint64_t distinct_keys = 0;
  uint64_t refs = 0;
};

// Generates every trace of the database and writes it to a trace file.
std::vector<TraceIndex> SetUp(const RunConfig& config, Tracer& tracer,
                              Report& report) {
  const uint64_t zipf_refs = config.smoke ? 200'000 : 10'000'000;
  const uint64_t sparse_pages = config.smoke ? 20'000 : 200'000;
  const uint64_t dense_pages = config.smoke ? 2'000 : 20'000;
  const uint64_t synth_records = config.smoke ? 50'000 : 1'000'000;

  std::vector<TraceIndex> indexes;
  auto save = [&](TraceIndex index, const std::vector<PageId>& trace) {
    Span span(tracer, Layer::kWorkloadMaterialize);
    index.path = config.work_dir + "/" + index.name + ".trace";
    index.refs = trace.size();
    if (Status s = SavePageTrace(trace, index.path); !s.ok()) {
      report.Fail("refresh set-up: " + s.ToString());
      return;
    }
    indexes.push_back(std::move(index));
  };

  const struct {
    const char* name;
    uint64_t pages;
  } zipf_shapes[] = {{"zipf_sparse", sparse_pages}, {"zipf_dense", dense_pages}};
  for (size_t z = 0; z < 2; ++z) {
    std::vector<PageId> trace;
    {
      Span span(tracer, Layer::kWorkloadGenerate);
      Rng rng(config.seed * 16 + z);
      trace = ZipfTrace(zipf_refs, zipf_shapes[z].pages, 0.86, 0, rng);
    }
    save(TraceIndex{zipf_shapes[z].name, "", zipf_shapes[z].pages,
                    zipf_shapes[z].pages, 0},
         trace);
  }

  const struct {
    const char* name;
    double k;
  } synth_shapes[] = {{"synth_k0", 0.0}, {"synth_k0.1", 0.1}, {"synth_k1", 1.0}};
  for (size_t k = 0; k < 3; ++k) {
    SyntheticSpec spec;
    spec.name = synth_shapes[k].name;
    spec.num_records = synth_records;
    spec.num_distinct = synth_records / 100;
    spec.records_per_page = 40;
    spec.theta = 0.86;
    spec.window_fraction = synth_shapes[k].k;
    spec.seed = config.seed * 16 + 8 + k;
    std::vector<PageId> trace;
    uint32_t pages = 0;
    {
      Span span(tracer, Layer::kWorkloadGenerate);
      Result<Placement> placement = GeneratePlacement(spec);
      if (!placement.ok()) {
        report.Fail("refresh set-up: " + placement.status().ToString());
        continue;
      }
      pages = placement->num_pages;
      trace = PlacementTrace(*placement);
    }
    save(TraceIndex{spec.name, "", pages, spec.num_distinct, 0}, trace);
  }
  return indexes;
}

// Every field Est-IO reads from an entry, as raw doubles, so two entries
// compare bit for bit with memcmp.
std::vector<double> EntryBits(const CatalogSnapshot& snapshot,
                              const std::string& name) {
  CatalogSnapshot::Handle handle = snapshot.Resolve(name);
  if (!handle.valid() || snapshot.EntryAt(handle).quarantined) return {};
  const IndexStatsView& view = snapshot.ViewAt(handle);
  std::vector<double> bits = {static_cast<double>(view.table_pages),
                              static_cast<double>(view.table_records),
                              static_cast<double>(view.pages_accessed),
                              view.clustering};
  for (uint32_t i = 0; i < view.knot_count; ++i) {
    bits.push_back(view.knots[i].x);
    bits.push_back(view.knots[i].y);
  }
  return bits;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The fixed probe set both snapshots must answer identically.
struct ProbeSpec {
  size_t index;
  ScanSpec scan;
};

std::vector<ProbeSpec> FixedProbes(const std::vector<TraceIndex>& indexes) {
  std::vector<ProbeSpec> probes;
  for (size_t i = 0; i < indexes.size(); ++i) {
    for (double b : {0.02, 0.05, 0.25, 0.5, 1.0}) {
      for (double sigma : {0.01, 0.3, 1.0}) {
        for (double s : {1.0, 0.25}) {
          ScanSpec scan;
          scan.sigma = sigma;
          scan.sargable_selectivity = s;
          scan.buffer_pages = std::max<uint64_t>(
              1, static_cast<uint64_t>(b * indexes[i].table_pages));
          probes.push_back(ProbeSpec{i, scan});
        }
      }
    }
  }
  return probes;
}

// Answers `probes` against `snapshot` through EstimateBatch.
std::vector<CatalogEstimate> Answer(const CatalogSnapshot& snapshot,
                                    const std::vector<TraceIndex>& indexes,
                                    const std::vector<ProbeSpec>& probes,
                                    Report& report) {
  std::vector<BatchProbe> batch;
  for (const ProbeSpec& p : probes) {
    const TraceIndex& index = indexes[p.index];
    batch.push_back(BatchProbe{snapshot.Resolve(index.name), p.scan,
                               TableShape{index.table_pages, index.refs}});
  }
  std::vector<CatalogEstimate> results(batch.size());
  if (Status s = EstIo::EstimateBatch(snapshot, batch, results); !s.ok()) {
    report.Fail("refresh: EstimateBatch " + s.ToString());
  }
  return results;
}

bool SameAnswers(const std::vector<CatalogEstimate>& a,
                 const std::vector<CatalogEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].source != b[i].source || a[i].source != EstimateSource::kLruFitCurve ||
        std::memcmp(&a[i].fetches, &b[i].fetches, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// §5 aggregate error of the catalog's full-scan estimates against exact
// LRU fetch counts, over every trace of the database.
double FullScanError(const CatalogSnapshot& snapshot,
                     const std::vector<TraceIndex>& indexes, Report& report) {
  double abs_err = 0.0;
  double actual = 0.0;
  for (const TraceIndex& index : indexes) {
    Result<std::unique_ptr<TraceSource>> trace = OpenTraceSource(index.path);
    if (!trace.ok() || !AddFullScanError(snapshot, index.name, **trace,
                                         index.table_pages, abs_err, actual)) {
      report.Fail("refresh: full-scan error of " + index.name);
    }
  }
  return actual > 0.0 ? abs_err / actual : 0.0;
}

}  // namespace

void RunRefresh(const RunConfig& config, Report& report) {
  Tracer tracer;
  tracer.set_enabled(config.trace);

  std::vector<double> setup_s;
  std::vector<TraceIndex> indexes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    Span span(tracer, Layer::kSetup);
    indexes = SetUp(config, tracer, report);
    setup_s.push_back(SecondsSince(start));
  }
  if (indexes.size() != 5) return;

  uint64_t cycle_refs = 0;
  double cycle_mb = 0.0;
  for (const TraceIndex& index : indexes) {
    cycle_refs += index.refs;
    cycle_mb += static_cast<double>(std::filesystem::file_size(index.path)) /
                (1024.0 * 1024.0);
  }
  const std::vector<ProbeSpec> probes = FixedProbes(indexes);
  const std::string catalog_path = config.work_dir + "/refresh.v3";

  StatsCatalog catalog;
  std::shared_ptr<const CatalogSnapshot> mapped;
  std::map<std::string, std::vector<double>> first_bits;
  std::vector<double> index_ms;
  // Phase 0 untraced, phase 1 traced (only a traced run has phase 1).
  double cycle_s[2] = {0.0, 0.0};
  std::vector<double> cycle_rates;  // Untraced cycles, refs per second.
  uint64_t refs[2] = {0, 0};
  std::vector<double> fit_ns(indexes.size(), 0.0);
  std::vector<uint64_t> fit_refs(indexes.size(), 0);
  uint64_t catalog_bytes = 0;
  uint32_t cycles = 0;

  tracer.set_enabled(false);
  Clock::time_point run_start = Clock::now();
  while (cycles < 2 || SecondsSince(run_start) < config.seconds) {
    const int phase = TracedPhase(config, SecondsSince(run_start)) ? 1 : 0;
    tracer.set_enabled(phase == 1);
    bool cycle_ok = true;
    int64_t cycle_start = NowNs();
    {
      Span cycle_span(tracer, Layer::kRefreshCycle, cycles);
      for (size_t i = 0; i < indexes.size(); ++i) {
        const TraceIndex& index = indexes[i];
        int64_t start = NowNs();
        Span index_span(tracer, Layer::kRefreshIndex, cycles);
        Result<std::unique_ptr<TraceSource>> source = [&] {
          Span span(tracer, Layer::kTraceOpen, cycles);
          return OpenTraceSource(index.path);
        }();
        if (!source.ok()) {
          report.Fail("refresh: open " + source.status().ToString());
          cycle_ok = false;
          continue;
        }
        int64_t fit_start = NowNs();
        Result<IndexStats> stats = [&] {
          Span span(tracer, Layer::kLruFit, cycles);
          return RunLruFit(**source, index.table_pages, index.distinct_keys,
                           index.name);
        }();
        if (phase == 1) {
          fit_ns[i] += static_cast<double>(NowNs() - fit_start);
          fit_refs[i] += index.refs;
        }
        if (!stats.ok()) {
          report.Fail("refresh: fit " + stats.status().ToString());
          cycle_ok = false;
          continue;
        }
        {
          Span span(tracer, Layer::kCatalogPut, cycles);
          catalog.Put(std::move(*stats));
        }
        index_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
        report.Pass();
      }
      Status saved = [&] {
        Span span(tracer, Layer::kCatalogSaveV3, cycles);
        return catalog.SaveToFileV3(catalog_path);
      }();
      Result<std::shared_ptr<const CatalogSnapshot>> opened = [&] {
        Span span(tracer, Layer::kCatalogOpenV3, cycles);
        return OpenCatalogSnapshotV3(catalog_path, cycles + 1);
      }();
      Status published = [&] {
        Span span(tracer, Layer::kCatalogPublish, cycles);
        return catalog.Publish();
      }();
      const bool catalog_ok = saved.ok() && opened.ok() && published.ok();
      report.Check(catalog_ok, "refresh: catalog save/open/publish failed");
      cycle_ok = cycle_ok && catalog_ok;
      if (opened.ok()) mapped = *opened;
    }
    const double seconds = static_cast<double>(NowNs() - cycle_start) * 1e-9;
    cycle_s[phase] += seconds;
    refs[phase] += cycle_refs;
    if (phase == 0) cycle_rates.push_back(static_cast<double>(cycle_refs) / seconds);
    ++cycles;
    if (!cycle_ok || mapped == nullptr) break;

    // Output checks, outside the timed cycle.
    catalog_bytes = std::filesystem::file_size(catalog_path);
    std::shared_ptr<const CatalogSnapshot> published = catalog.snapshot();
    for (const TraceIndex& index : indexes) {
      std::vector<double> bits = EntryBits(*published, index.name);
      auto [it, first] = first_bits.emplace(index.name, bits);
      report.Check(!bits.empty() && (first || SameBits(bits, it->second)),
                   "refresh: knots of " + index.name + " changed in cycle " +
                       std::to_string(cycles));
    }
    report.Check(SameAnswers(Answer(*mapped, indexes, probes, report),
                             Answer(*published, indexes, probes, report)),
                 "refresh: mapped v3 snapshot answers differ from the "
                 "published snapshot");
  }
  tracer.set_enabled(false);

  // The median cycle, so a transient stall on the host moves it less.
  const double mrefs_per_s = Median(cycle_rates) / 1e6;
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("work_per_s", mrefs_per_s * 1e6, "1/s", cycle_rates.size());
  report.Add("op_ms_p50", Percentile(index_ms, 50), "ms", index_ms.size());
  report.Add("op_ms_p90", Percentile(index_ms, 90), "ms", index_ms.size());
  report.Add("est_rel_err",
             mapped ? FullScanError(*mapped, indexes, report) : 0.0, "ratio",
             indexes.size());
  report.Add("refresh_mrefs_per_s", mrefs_per_s, "Mrefs/s", cycle_rates.size());

  if (!config.trace) return;
  LayerTimes times{};
  AccumulateSelfTimes(tracer, times);
  AddLayerTimes(times, report);
  report.Add("trace.mb", cycle_mb, "MB", 1);
  report.Add("lru_fit.refs", static_cast<double>(cycle_refs), "count",
             indexes.size());
  double all_ns = 0.0;
  uint64_t all_refs = 0;
  for (size_t i = 0; i < indexes.size(); ++i) {
    all_ns += fit_ns[i];
    all_refs += fit_refs[i];
    report.Add("lru_fit.mrefs_per_s." + indexes[i].name,
               fit_ns[i] > 0 ? static_cast<double>(fit_refs[i]) / fit_ns[i] * 1e3
                             : 0.0,
               "Mrefs/s", fit_refs[i] / std::max<uint64_t>(indexes[i].refs, 1));
  }
  report.Add("lru_fit.mrefs_per_s",
             all_ns > 0 ? static_cast<double>(all_refs) / all_ns * 1e3 : 0.0,
             "Mrefs/s", times[static_cast<size_t>(Layer::kLruFit)].calls);
  report.Add("catalog.bytes", static_cast<double>(catalog_bytes), "bytes", 1);
  report.Add("bench.trace_overhead_frac",
             TraceOverhead(static_cast<double>(refs[0]) / std::max(cycle_s[0], 1e-9),
                           static_cast<double>(refs[1]) / std::max(cycle_s[1], 1e-9)),
             "ratio", cycles);
  report.Check(WriteSpans({&tracer}, config.spans_path, 200'000),
               "cannot write spans to " + config.spans_path);
}

}  // namespace perfbench
