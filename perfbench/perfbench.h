#ifndef EPFIS_PERFBENCH_PERFBENCH_H_
#define EPFIS_PERFBENCH_PERFBENCH_H_

// Shared pieces of the end-to-end EPFIS benchmark (epfis_perfbench):
// the in-memory span tracer, the metric report, and small helpers.
//
// Every number the benchmark reports comes from its own steady_clock
// timers around calls into the library's public functions — never from
// the library's MetricsRegistry — so a build with -DEPFIS_METRICS=OFF
// reports the same metric set.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "epfis/trace_source.h"
#include "util/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The boundaries the benchmark times. The first group are the library's
/// layers, each named after the public call wrapped; the last group are
/// the workload's own operations, which parent the layer spans.
enum class Layer : uint16_t {
  kWorkloadGenerate,     // GeneratePlacement / Zipf trace generation
  kWorkloadMaterialize,  // MaterializeDataset / SavePageTrace
  kIndexFullTrace,       // Dataset::FullIndexPageTrace (statistics scan)
  kTraceOpen,            // OpenTraceSource
  kLruFit,               // RunLruFit
  kCatalogPut,           // StatsCatalog::Put
  kCatalogSaveV3,        // StatsCatalog::SaveToFileV3
  kCatalogOpenV3,        // OpenCatalogSnapshotV3
  kCatalogPublish,       // StatsCatalog::Publish
  kCatalogSnapshot,      // StatsCatalog::snapshot
  kEstIoBatch,           // EstIo::EstimateBatch
  kOnlineIngest,         // OnlineLruFit::Ingest
  kBufferPoolNew,        // Dataset::MakeDataPool
  kExecScan,             // RunIndexScan
  kSetup,                // one set-up repetition
  kRefreshIndex,         // one index re-fitted (open + fit + put)
  kRefreshCycle,         // one statistics refresh of the whole database
  kServeCall,            // one optimizer EstimateBatch call
  kScanQuery,            // one costed and executed scan
  kCount,
};

const char* LayerName(Layer layer);

/// One timed call, kept in memory until the run ends.
struct SpanRecord {
  Layer layer;
  int32_t parent;  // Index of the enclosing span; -1 at the root.
  uint32_t query;  // Workload operation the span belongs to.
  int64_t start_ns;
  int64_t end_ns;
};

/// Per-thread span recorder. Disabled, Begin/End are never called (Span
/// checks enabled() once), so an untraced run pays one branch per span.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int32_t Begin(Layer layer, uint32_t query);
  void End(int32_t span);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span at a layer boundary.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, uint32_t query = 0)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(layer, query) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Self time (span minus the part covered by its child spans) summed per
/// layer, with the number of calls.
struct LayerTime {
  double self_ns = 0.0;
  uint64_t calls = 0;
};
using LayerTimes = std::array<LayerTime, static_cast<size_t>(Layer::kCount)>;

/// Adds the self times of `tracer`'s spans into `times`.
void AccumulateSelfTimes(const Tracer& tracer, LayerTimes& times);

/// Writes up to `max_spans` spans of each tracer as tab-separated lines
/// (thread, layer, parent, query, start_ns, end_ns). Returns false when the
/// file cannot be written.
bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path, size_t max_spans);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// Everything one run reports: metrics, operation counts, check outcomes.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);

  /// Records one operation or output check that succeeded.
  void Pass() { ++attempted_; }
  /// Records one that failed, with what went wrong.
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (ok) {
      Pass();
    } else {
      Fail(what);
    }
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  /// The first kMaxFailureMessages failure messages.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  static constexpr size_t kMaxFailureMessages = 100;
  std::vector<std::string> failures_;
};

/// What the command line asked for.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // Tiny inputs, for the benchmark's self-check.
  std::string work_dir;     // Per-run files (traces, catalogs).
  std::string spans_path;   // Where a traced run writes its spans.
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// In a traced run the first third of the window runs untraced, the rest
/// traced, so the same process measures the tracing overhead.
inline bool TracedPhase(const RunConfig& config, double elapsed_s) {
  return config.trace && elapsed_s >= config.seconds / 3.0;
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Latency recorder with constant memory, for operations too many to keep
/// one sample each: log-linear buckets over nanoseconds, 1024 per power of
/// two (relative width under 0.1%), percentiles interpolated in a bucket.
class LatencyHistogram {
 public:
  void Record(int64_t ns);
  uint64_t count() const { return count_; }
  /// Linear-interpolated percentile in ns, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 10;
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(size_t{64} << kSubBits);
  uint64_t count_ = 0;
};

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// 1 - traced_rate / untraced_rate; 0 when either phase saw no work.
double TraceOverhead(double untraced_rate, double traced_rate);

/// `refs` references drawn Zipf(theta) over `pages` pages, the hottest page
/// at `rotate` (page ids are rank - 1 + rotate, mod pages).
std::vector<epfis::PageId> ZipfTrace(uint64_t refs, uint64_t pages,
                                     double theta, uint64_t rotate,
                                     epfis::Rng& rng);

/// Adds one fitted index's §5 error terms to `abs_err` and `actual`: its
/// full-scan estimates from `snapshot` (EstimateBatch, sigma = 1) against
/// the exact LRU fetch counts of `trace` (one Mattson pass through
/// SampleFpfCurve) at geometrically spaced B from 2% of T to T. Returns
/// false on an error or an estimate that did not come from the fitted curve.
bool AddFullScanError(const epfis::CatalogSnapshot& snapshot,
                      const std::string& index_name, epfis::TraceSource& trace,
                      uint64_t table_pages, double& abs_err, double& actual);

/// Adds the per-layer metrics derived from span self times that every
/// workload shares (mean self time per call of each wrapped function).
void AddLayerTimes(const LayerTimes& times, Report& report);

/// The workloads. Each sets up kSetupReps times (reporting the
/// median as setup_s), measures for `config.seconds`, checks outputs, and
/// fills `report`.
void RunRefresh(const RunConfig& config, Report& report);
void RunServe(const RunConfig& config, Report& report);
void RunScan(const RunConfig& config, Report& report);

}  // namespace perfbench

#endif  // EPFIS_PERFBENCH_PERFBENCH_H_
