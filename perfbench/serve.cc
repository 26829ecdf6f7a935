// Workload `serve`: the optimizer's compile path beside a live statistics
// writer.
//
// Reader (main thread, closed loop): each call takes a fresh
// StatsCatalog::snapshot(), re-resolves its handles when the generation
// changed, and costs 64 probes (8 indexes x 8 buffer sizes) with one
// EstIo::EstimateBatch call.
//
// Writer (second thread, open loop): feeds OnlineLruFit a phase-shifting
// Zipf stream in fixed chunks on a fixed schedule, republishing the
// online index into the same catalog when its curve drifts.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "perfbench.h"
#include "workload/data_gen.h"

namespace perfbench {
namespace {

using namespace epfis;

constexpr size_t kIndexes = 64;
constexpr size_t kProbesPerCall = 64;  // 8 indexes x 8 buffer sizes.
constexpr size_t kProbeSets = 256;
constexpr uint64_t kReferenceCalls = 4096;  // Calls the counts cover.
constexpr uint64_t kCheckEvery = 64;        // Calls per single-probe check.
constexpr size_t kWriterChunk = 4000;
constexpr int64_t kWindowNs = 200'000'000;  // Throughput sample length.
constexpr const char* kOnlineName = "online_ix";

struct ProbeSet {
  uint32_t index[kProbesPerCall];
  ScanSpec scan[kProbesPerCall];
};

// Everything set-up builds: the published catalog, the online stream,
// and the reader's pre-drawn probe sets.
struct ServeState {
  std::unique_ptr<StatsCatalog> catalog = std::make_unique<StatsCatalog>();
  std::vector<std::string> names;
  std::vector<TableShape> shapes;
  std::vector<std::vector<PageId>> traces;  // Of the batch-fitted indexes.
  uint64_t online_pages = 0;
  uint64_t phase_refs = 0;
  std::vector<PageId> stream;  // Phase A then phase B.
  std::vector<ProbeSet> sets;
};

// Mean relative error of `got` against `want` over an even sweep of
// `want`'s knot range.
double MeanRelErr(const IndexStats& got, const IndexStats& want) {
  double sum = 0.0;
  size_t n = 0;
  uint64_t step = std::max<uint64_t>((want.b_max - want.b_min) / 40, 1);
  for (uint64_t b = want.b_min; b <= want.b_max; b += step) {
    double ref = want.FullScanFetches(static_cast<double>(b));
    if (!(ref > 0.0)) continue;
    sum += std::abs(got.FullScanFetches(static_cast<double>(b)) - ref) / ref;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

ServeState SetUp(const RunConfig& config, Tracer& tracer, Report& report) {
  ServeState state;
  const uint64_t records = config.smoke ? 5'000 : 40'000;
  const uint32_t rpp[] = {20, 40, 80};
  const double thetas[] = {0.0, 0.86};
  const double windows[] = {0.0, 0.05, 0.1, 0.2, 0.5, 1.0};
  for (size_t j = 0; j + 1 < kIndexes; ++j) {
    SyntheticSpec spec;
    spec.name = "ix" + std::to_string(j);
    spec.num_records = records;
    spec.num_distinct = records / 50;
    spec.records_per_page = rpp[j % 3];
    spec.theta = thetas[(j / 3) % 2];
    spec.window_fraction = windows[(j / 6) % 6];
    spec.seed = config.seed * 1000 + j;
    Result<Placement> placement = [&] {
      Span span(tracer, Layer::kWorkloadGenerate);
      return GeneratePlacement(spec);
    }();
    if (!placement.ok()) {
      report.Fail("serve set-up: " + placement.status().ToString());
      return state;
    }
    std::vector<PageId> trace = PlacementTrace(*placement);
    Result<IndexStats> stats = [&] {
      Span span(tracer, Layer::kLruFit);
      return RunLruFit(trace, placement->num_pages, spec.num_distinct,
                       spec.name);
    }();
    if (!stats.ok()) {
      report.Fail("serve set-up: " + stats.status().ToString());
      return state;
    }
    state.names.push_back(spec.name);
    state.shapes.push_back(TableShape{placement->num_pages, records});
    state.traces.push_back(std::move(trace));
    Span span(tracer, Layer::kCatalogPut);
    state.catalog->Put(std::move(*stats));
  }

  // The online index: phase A is a hard hotspot, phase B rotates it half
  // a table away and flattens it, so the curve's shape changes.
  state.online_pages = config.smoke ? 1'000 : 4'000;
  state.phase_refs = config.smoke ? 40'000 : 400'000;
  {
    Span span(tracer, Layer::kWorkloadGenerate);
    Rng rng(config.seed * 1000 + 999);
    state.stream = ZipfTrace(state.phase_refs, state.online_pages, 0.9, 0, rng);
    std::vector<PageId> phase_b = ZipfTrace(
        state.phase_refs, state.online_pages, 0.3, state.online_pages / 2, rng);
    state.stream.insert(state.stream.end(), phase_b.begin(), phase_b.end());
  }
  std::vector<PageId> phase_a(state.stream.begin(),
                              state.stream.begin() + state.phase_refs);
  Result<IndexStats> initial = [&] {
    Span span(tracer, Layer::kLruFit);
    return RunLruFit(phase_a, state.online_pages, state.online_pages / 5,
                     kOnlineName);
  }();
  if (!initial.ok()) {
    report.Fail("serve set-up: " + initial.status().ToString());
    return state;
  }
  state.names.push_back(kOnlineName);
  state.shapes.push_back(TableShape{state.online_pages, state.phase_refs});
  {
    Span span(tracer, Layer::kCatalogPut);
    state.catalog->Put(std::move(*initial));
  }
  Status published = [&] {
    Span span(tracer, Layer::kCatalogPublish);
    return state.catalog->Publish();
  }();
  if (!published.ok()) report.Fail("serve set-up: " + published.ToString());

  Rng rng(config.seed * 1000 + 777);
  state.sets.resize(kProbeSets);
  for (ProbeSet& set : state.sets) {
    for (size_t i = 0; i < 8; ++i) {
      uint32_t index = static_cast<uint32_t>(rng.NextBounded(kIndexes));
      uint64_t pages = state.shapes[index].table_pages;
      for (size_t b = 0; b < 8; ++b) {
        size_t k = i * 8 + b;
        set.index[k] = index;
        set.scan[k].sigma = 1e-4 + rng.NextDouble() * (1.0 - 1e-4);
        set.scan[k].sargable_selectivity =
            rng.NextBernoulli(0.5) ? 1.0 : 0.05 + 0.95 * rng.NextDouble();
        set.scan[k].buffer_pages = 1 + rng.NextBounded(pages);
      }
    }
  }
  return state;
}

bool SameEstimate(const CatalogEstimate& a, const CatalogEstimate& b) {
  return a.source == b.source &&
         std::memcmp(&a.fetches, &b.fetches, sizeof(double)) == 0;
}

// What the writer thread did, read after it is joined.
struct WriterOutcome {
  Status status = Status::Ok();
  double late_ms_max = 0.0;
  uint64_t chunks = 0;
};

}  // namespace

void RunServe(const RunConfig& config, Report& report) {
  Tracer tracer;
  tracer.set_enabled(config.trace);
  std::vector<double> setup_s;
  ServeState state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    Span span(tracer, Layer::kSetup);
    state = SetUp(config, tracer, report);
    setup_s.push_back(SecondsSince(start));
  }
  if (state.names.size() != kIndexes || !report.correct()) return;
  StatsCatalog& catalog = *state.catalog;
  tracer.set_enabled(false);

  OnlineLruFitOptions options;
  options.table_pages = state.online_pages;
  options.table_records = state.phase_refs;
  options.distinct_keys = state.online_pages / 5;
  options.window_refs = state.phase_refs / 4;
  options.refresh_interval = state.phase_refs / 40;
  options.drift.band = 0.05;
  options.drift.patience = 2;
  OnlineLruFit engine(kOnlineName, options, &catalog);
  if (Status s = engine.Validate(); !s.ok()) {
    report.Fail("serve: online options " + s.ToString());
    return;
  }

  std::shared_ptr<const CatalogSnapshot> snapshot;
  uint64_t generation = UINT64_MAX;
  std::vector<CatalogSnapshot::Handle> handles(kIndexes);
  std::vector<BatchProbe> batch(kProbesPerCall);
  std::vector<CatalogEstimate> results(kProbesPerCall);
  uint64_t probes_counted = 0, fallbacks = 0, rejected = 0;

  // One reader call; returns its latency in ns.
  auto call = [&](uint64_t id, bool counted) {
    int64_t start = NowNs();
    Status status = Status::Ok();
    {
      Span call_span(tracer, Layer::kServeCall, static_cast<uint32_t>(id));
      {
        Span span(tracer, Layer::kCatalogSnapshot, static_cast<uint32_t>(id));
        snapshot = catalog.snapshot();
      }
      if (snapshot->generation() != generation) {
        generation = snapshot->generation();
        for (size_t i = 0; i < kIndexes; ++i) {
          handles[i] = snapshot->Resolve(state.names[i]);
        }
      }
      const ProbeSet& set = state.sets[id % kProbeSets];
      for (size_t k = 0; k < kProbesPerCall; ++k) {
        batch[k] = BatchProbe{handles[set.index[k]], set.scan[k],
                              state.shapes[set.index[k]]};
      }
      Span span(tracer, Layer::kEstIoBatch, static_cast<uint32_t>(id));
      status = EstIo::EstimateBatch(*snapshot, batch, results);
    }
    int64_t ns = NowNs() - start;
    if (status.ok()) {
      report.Pass();
    } else {
      report.Fail("serve: EstimateBatch " + status.ToString());
    }
    if (counted) {
      probes_counted += kProbesPerCall;
      for (const CatalogEstimate& r : results) {
        fallbacks += r.source == EstimateSource::kFormulaFallback;
        rejected += r.source == EstimateSource::kRejected;
      }
    }
    if (id % kCheckEvery == 0) {
      const ProbeSet& set = state.sets[id % kProbeSets];
      size_t k = (id / kCheckEvery) % kProbesPerCall;
      Result<CatalogEstimate> single = EstIo::EstimateFromCatalog(
          *snapshot, state.names[set.index[k]], set.scan[k],
          state.shapes[set.index[k]]);
      report.Check(single.ok() && SameEstimate(*single, results[k]),
                   "serve: batch probe differs from EstimateFromCatalog");
    }
    return ns;
  };

  // Warm caches and lazy set-up before the timed window.
  for (uint64_t id = 0; id < 2000; ++id) call(id, false);

  // The writer: the whole stream, chunk c due at c * period.
  std::atomic<bool> traced{false};
  Tracer writer_tracer;
  WriterOutcome writer;
  const size_t chunks = state.stream.size() / kWriterChunk;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds * 0.9 /
                                    static_cast<double>(chunks)));
  const Clock::time_point run_start = Clock::now();
  // A jthread, so the writer is joined before what it uses is destroyed on
  // every path out of this function.
  std::jthread writer_thread([&] {
    for (size_t c = 0; c < chunks; ++c) {
      Clock::time_point due = run_start + period * static_cast<int64_t>(c);
      std::this_thread::sleep_until(due);
      double late_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      writer.late_ms_max = std::max(writer.late_ms_max, late_ms);
      writer_tracer.set_enabled(traced.load(std::memory_order_relaxed));
      Span span(writer_tracer, Layer::kOnlineIngest, static_cast<uint32_t>(c));
      Status s =
          engine.Ingest(state.stream.data() + c * kWriterChunk, kWriterChunk);
      if (!s.ok()) {
        writer.status = s;
        return;
      }
      ++writer.chunks;
    }
  });

  LatencyHistogram call_ns[2];
  uint64_t calls[2] = {0, 0};
  double phase_s[2] = {0.0, 0.0};
  uint64_t id = 2000;
  int64_t run_start_ns = NowNs();
  int64_t phase_start_ns = run_start_ns;
  int phase = 0;
  // Untraced estimates per second, in windows of kWindowNs.
  std::vector<double> window_rates;
  int64_t window_start_ns = run_start_ns;
  uint64_t window_probes = 0;
  for (;; ++id) {
    int64_t now = NowNs();
    double elapsed = static_cast<double>(now - run_start_ns) * 1e-9;
    if (elapsed >= config.seconds) break;
    int next_phase = TracedPhase(config, elapsed) ? 1 : 0;
    if (next_phase != phase) {
      phase_s[phase] += static_cast<double>(now - phase_start_ns) * 1e-9;
      phase_start_ns = now;
      phase = next_phase;
      tracer.set_enabled(true);
      traced.store(true, std::memory_order_relaxed);
    }
    bool counted = calls[0] + calls[1] < kReferenceCalls;
    call_ns[phase].Record(call(id, counted));
    ++calls[phase];
    if (phase == 0 && now - window_start_ns >= kWindowNs) {
      window_rates.push_back(static_cast<double>(window_probes) /
                             (static_cast<double>(now - window_start_ns) * 1e-9));
      window_start_ns = now;
      window_probes = 0;
    }
    window_probes += kProbesPerCall;
  }
  phase_s[phase] += static_cast<double>(NowNs() - phase_start_ns) * 1e-9;
  tracer.set_enabled(false);
  writer_thread.join();
  report.Check(writer.status.ok(),
               "serve: online ingest " + writer.status.ToString());

  // Freshness: the last published online curve against an exact batch
  // fit of the final phase.
  double fresh_err = 0.0;
  std::vector<PageId> phase_b(state.stream.begin() + state.phase_refs,
                              state.stream.end());
  Result<IndexStats> reference = RunLruFit(
      phase_b, state.online_pages, state.online_pages / 5, kOnlineName);
  Result<IndexStats> fresh = catalog.Get(kOnlineName);
  if (!reference.ok() || !fresh.ok() || engine.publishes() == 0) {
    report.Fail("serve: no fresh online entry to compare");
  } else {
    fresh_err = MeanRelErr(*fresh, *reference);
  }

  // Accuracy: the §5 aggregate error of the batch-fitted entries'
  // full-scan estimates against exact LRU fetch counts.
  double abs_err = 0.0, actual = 0.0;
  std::shared_ptr<const CatalogSnapshot> final_snapshot = catalog.snapshot();
  for (size_t i = 0; i < state.traces.size(); ++i) {
    VectorTraceSource trace = VectorTraceSource::View(state.traces[i]);
    if (!AddFullScanError(*final_snapshot, state.names[i], trace,
                          state.shapes[i].table_pages, abs_err, actual)) {
      report.Fail("serve: full-scan error of " + state.names[i]);
    }
  }

  // The median window, so a transient stall on the host moves it less.
  const double est_per_s = Median(window_rates);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("work_per_s", est_per_s, "1/s", window_rates.size());
  report.Add("op_ms_p50", call_ns[0].Percentile(50) * 1e-6, "ms", calls[0]);
  report.Add("op_ms_p90", call_ns[0].Percentile(90) * 1e-6, "ms", calls[0]);
  report.Add("est_rel_err", actual > 0.0 ? abs_err / actual : 0.0, "ratio",
             state.traces.size());
  report.Add("serve_est_per_s", est_per_s, "1/s", window_rates.size());
  report.Add("serve_call_us_p50", call_ns[0].Percentile(50) * 1e-3, "us",
             calls[0]);
  report.Add("serve_call_us_p99", call_ns[0].Percentile(99) * 1e-3, "us",
             calls[0]);
  report.Add("online_fresh_err", fresh_err, "ratio", 1);

  if (!config.trace) return;
  LayerTimes times{};
  AccumulateSelfTimes(tracer, times);
  AccumulateSelfTimes(writer_tracer, times);
  AddLayerTimes(times, report);
  const LayerTime& est = times[static_cast<size_t>(Layer::kEstIoBatch)];
  report.Add("est_io.ns_per_probe",
             est.calls ? est.self_ns / static_cast<double>(est.calls * kProbesPerCall)
                       : 0.0,
             "ns", est.calls * kProbesPerCall);
  report.Add("est_io.probes", static_cast<double>(probes_counted), "count",
             kReferenceCalls);
  report.Add("est_io.fallbacks", static_cast<double>(fallbacks), "count",
             kReferenceCalls);
  report.Add("est_io.rejected", static_cast<double>(rejected), "count",
             kReferenceCalls);
  report.Add("online.refs", static_cast<double>(engine.total_refs()), "count",
             writer.chunks);
  report.Add("online.refreshes", static_cast<double>(engine.refreshes()),
             "count", writer.chunks);
  report.Add("online.publishes", static_cast<double>(engine.publishes()),
             "count", writer.chunks);
  report.Add("online.late_ms_max", writer.late_ms_max, "ms", writer.chunks);
  report.Add("online.fresh_err", fresh_err, "ratio", 1);
  report.Add("bench.trace_overhead_frac",
             TraceOverhead(static_cast<double>(calls[0] * kProbesPerCall) /
                               std::max(phase_s[0], 1e-9),
                           static_cast<double>(calls[1] * kProbesPerCall) /
                               std::max(phase_s[1], 1e-9)),
             "ratio", calls[1]);
  report.Check(WriteSpans({&tracer, &writer_tracer}, config.spans_path, 200'000),
               "cannot write spans to " + config.spans_path);
}

}  // namespace perfbench
