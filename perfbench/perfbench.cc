#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "util/zipf.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kWorkloadGenerate: return "workload.generate";
    case Layer::kWorkloadMaterialize: return "workload.materialize";
    case Layer::kIndexFullTrace: return "index.full_trace";
    case Layer::kTraceOpen: return "trace.open";
    case Layer::kLruFit: return "lru_fit";
    case Layer::kCatalogPut: return "catalog.put";
    case Layer::kCatalogSaveV3: return "catalog.save_v3";
    case Layer::kCatalogOpenV3: return "catalog.open_v3";
    case Layer::kCatalogPublish: return "catalog.publish";
    case Layer::kCatalogSnapshot: return "catalog.snapshot";
    case Layer::kEstIoBatch: return "est_io.batch";
    case Layer::kOnlineIngest: return "online.ingest";
    case Layer::kBufferPoolNew: return "buffer.pool_new";
    case Layer::kExecScan: return "exec.scan";
    case Layer::kSetup: return "setup";
    case Layer::kRefreshIndex: return "refresh.index";
    case Layer::kRefreshCycle: return "refresh.cycle";
    case Layer::kServeCall: return "serve.call";
    case Layer::kScanQuery: return "scan.query";
    case Layer::kCount: break;
  }
  return "?";
}

int32_t Tracer::Begin(Layer layer, uint32_t query) {
  int32_t id = static_cast<int32_t>(spans_.size());
  int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(SpanRecord{layer, parent, query, NowNs(), 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

void AccumulateSelfTimes(const Tracer& tracer, LayerTimes& times) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = times[static_cast<size_t>(spans[i].layer)];
    t.self_ns +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i];
    ++t.calls;
  }
}

bool WriteSpans(const std::vector<const Tracer*>& tracers,
                const std::string& path, size_t max_spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << "# thread\tlayer\tparent\tquery\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<SpanRecord>& spans = tracers[t]->spans();
    size_t n = std::min(spans.size(), max_spans);
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      out << t << '\t' << LayerName(s.layer) << '\t' << s.parent << '\t'
          << s.query << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    if (n < spans.size()) {
      out << "# thread " << t << ": " << spans.size() - n
          << " later spans not written\n";
    }
  }
  return static_cast<bool>(out);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (!std::isfinite(value)) {
    Fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (failures_.size() < kMaxFailureMessages) {
    failures_.push_back(what);
    std::cerr << "CHECK FAILED: " << what << '\n';
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void LatencyHistogram::Record(int64_t ns) {
  uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
  size_t index = v;
  if (v >= (uint64_t{1} << kSubBits)) {
    int e = 63 - __builtin_clzll(v);
    uint64_t mantissa = (v >> (e - kSubBits)) & ((uint64_t{1} << kSubBits) - 1);
    index = (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + mantissa;
  }
  ++counts_[index];
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (size_t index = 0; index < counts_.size(); ++index) {
    if (counts_[index] == 0) continue;
    const double c = static_cast<double>(counts_[index]);
    if (seen + c > rank) {
      // Bucket bounds: exact below 2^kSubBits, then 2^kSubBits per octave.
      double lower = static_cast<double>(index);
      double width = 1.0;
      if (index >= (size_t{1} << kSubBits)) {
        int shift = static_cast<int>(index >> kSubBits) - 1;
        uint64_t mantissa = index & ((size_t{1} << kSubBits) - 1);
        lower = std::ldexp(static_cast<double>((uint64_t{1} << kSubBits) + mantissa),
                           shift);
        width = std::ldexp(1.0, shift);
      }
      return lower + width * (rank - seen + 0.5) / c;
    }
    seen += c;
  }
  return 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

double TraceOverhead(double untraced_rate, double traced_rate) {
  if (!(untraced_rate > 0.0) || !(traced_rate > 0.0)) return 0.0;
  return 1.0 - traced_rate / untraced_rate;
}

std::vector<epfis::PageId> ZipfTrace(uint64_t refs, uint64_t pages,
                                     double theta, uint64_t rotate,
                                     epfis::Rng& rng) {
  epfis::ZipfDistribution zipf =
      epfis::ZipfDistribution::Make(pages, theta).value();
  std::vector<epfis::PageId> trace;
  trace.reserve(refs);
  for (uint64_t i = 0; i < refs; ++i) {
    trace.push_back(static_cast<epfis::PageId>((zipf.Sample(rng) - 1 + rotate) % pages));
  }
  return trace;
}

bool AddFullScanError(const epfis::CatalogSnapshot& snapshot,
                      const std::string& index_name, epfis::TraceSource& trace,
                      uint64_t table_pages, double& abs_err, double& actual) {
  using namespace epfis;
  Result<std::vector<FpfPoint>> exact =
      SampleFpfCurve(trace, std::max<uint64_t>(1, table_pages / 50),
                     table_pages, BufferSchedule::kGraefeGeometric);
  if (!exact.ok() || !trace.size_hint().has_value()) return false;
  const CatalogSnapshot::Handle handle = snapshot.Resolve(index_name);
  const TableShape shape{table_pages, *trace.size_hint()};
  std::vector<BatchProbe> probes;
  for (const FpfPoint& point : *exact) {
    probes.push_back(
        BatchProbe{handle, ScanSpec{1.0, 1.0, point.buffer_size}, shape});
  }
  std::vector<CatalogEstimate> estimates(probes.size());
  if (!EstIo::EstimateBatch(snapshot, probes, estimates).ok()) return false;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (estimates[i].source != EstimateSource::kLruFitCurve) return false;
    double act = static_cast<double>((*exact)[i].fetches);
    abs_err += std::abs(estimates[i].fetches - act);
    actual += act;
  }
  return true;
}

void AddLayerTimes(const LayerTimes& times, Report& report) {
  auto mean = [&](Layer layer, double scale) {
    const LayerTime& t = times[static_cast<size_t>(layer)];
    return t.calls == 0 ? 0.0 : t.self_ns / static_cast<double>(t.calls) * scale;
  };
  auto calls = [&](Layer layer) {
    return times[static_cast<size_t>(layer)].calls;
  };
  auto per_setup = [&](Layer layer) {
    return times[static_cast<size_t>(layer)].self_ns * 1e-9 /
           static_cast<double>(kSetupReps);
  };
  report.Add("workload.generate_s", per_setup(Layer::kWorkloadGenerate), "s",
             static_cast<uint64_t>(kSetupReps));
  report.Add("workload.materialize_s", per_setup(Layer::kWorkloadMaterialize),
             "s", static_cast<uint64_t>(kSetupReps));
  report.Add("trace.open_us", mean(Layer::kTraceOpen, 1e-3), "us",
             calls(Layer::kTraceOpen));
  report.Add("lru_fit.s", mean(Layer::kLruFit, 1e-9), "s",
             calls(Layer::kLruFit));
  report.Add("catalog.save_v3_ms", mean(Layer::kCatalogSaveV3, 1e-6), "ms",
             calls(Layer::kCatalogSaveV3));
  report.Add("catalog.open_v3_ms", mean(Layer::kCatalogOpenV3, 1e-6), "ms",
             calls(Layer::kCatalogOpenV3));
  report.Add("catalog.publish_us", mean(Layer::kCatalogPublish, 1e-3), "us",
             calls(Layer::kCatalogPublish));
  report.Add("catalog.snapshot_ns", mean(Layer::kCatalogSnapshot, 1.0), "ns",
             calls(Layer::kCatalogSnapshot));
  report.Add("est_io.batch_us", mean(Layer::kEstIoBatch, 1e-3), "us",
             calls(Layer::kEstIoBatch));
  report.Add("online.ingest_ms", mean(Layer::kOnlineIngest, 1e-6), "ms",
             calls(Layer::kOnlineIngest));
  report.Add("buffer.pool_new_ms", mean(Layer::kBufferPoolNew, 1e-6), "ms",
             calls(Layer::kBufferPoolNew));
  report.Add("exec.scan_ms", mean(Layer::kExecScan, 1e-6), "ms",
             calls(Layer::kExecScan));
}

}  // namespace perfbench
