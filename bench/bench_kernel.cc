// Old-vs-new Mattson kernel throughput and the mmap / io_uring
// trace-ingestion paths.
//
// Generates a Zipf(theta) page trace (the reuse pattern of a secondary
// index over a hot/cold table), runs the legacy StackDistanceSimulator
// as the reference, and times every variant against it. Every variant's
// histogram is compared bit-for-bit with the legacy result — a perf win
// that changes a bin is a bug, and CI fails on it.
//
// Timed variants run --reps times and report the median with min/max;
// throughput and speedups are computed from the medians.
//
// Flags:
//   --refs=N      references in the trace        (default 10000000)
//   --pages=N     distinct data pages            (default refs/50)
//   --theta=F     Zipf skew                      (default 0.86)
//   --reps=N      timed repetitions per variant  (default 5)
//   --gate-mrefs=F fail (exit 1) if the median single-thread kernel run
//                 falls under F Mrefs/s (0 = no gate)  (default 0)
//   --seed=S      RNG seed                       (default 42)
//   --json=PATH   output JSON path               (default BENCH_kernel.json)
//   --trace=PATH  also save the trace there and time ingestion through
//                 OpenTraceSource (mmap) and the forced io_uring path
//                 (default: skip)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "buffer/stack_distance.h"
#include "buffer/stack_distance_kernel.h"
#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "epfis/uring_trace_source.h"
#include "obs/metrics.h"
#include "util/arg_parser.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"

using namespace epfis;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Median, min and max of one variant's repetition times.
struct Timing {
  double median = 0;
  double min = 0;
  double max = 0;
};

Timing Summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  size_t n = seconds.size();
  Timing t;
  t.median = n % 2 == 1 ? seconds[n / 2]
                        : (seconds[n / 2 - 1] + seconds[n / 2]) / 2;
  t.min = seconds.front();
  t.max = seconds.back();
  return t;
}

// `"<key>": median, "<key>_min": min, "<key>_max": max`.
std::string TimingJson(const std::string& key, const Timing& t) {
  return "\"" + key + "\": " + std::to_string(t.median) + ", \"" + key +
         "_min\": " + std::to_string(t.min) + ", \"" + key +
         "_max\": " + std::to_string(t.max);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const uint64_t refs =
      static_cast<uint64_t>(args.GetInt("refs", 10'000'000));
  const uint64_t pages = static_cast<uint64_t>(
      args.GetInt("pages", static_cast<int64_t>(refs / 50)));
  const double theta = args.GetDouble("theta", 0.86);
  const int reps = static_cast<int>(args.GetInt("reps", 5));
  const double gate_mrefs = args.GetDouble("gate-mrefs", 0.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const std::string json_path = args.GetString("json", "BENCH_kernel.json");
  const std::string trace_path = args.GetString("trace", "");

  if (refs == 0 || pages == 0 || reps < 1) {
    std::cerr << "--refs, --pages, and --reps must be positive\n";
    return 1;
  }

  std::cout << "machine: " << CpuModel() << ", "
            << std::thread::hardware_concurrency() << " CPU(s), "
            << NumaNodeCount() << " NUMA node(s), " << EPFIS_BENCH_BUILD_TYPE
            << " build; io_uring "
            << (UringTraceSource::Supported() ? "available" : "unavailable")
            << '\n';
  std::cout << "generating Zipf(" << theta << ") trace: " << refs
            << " refs over " << pages << " pages...\n";
  Rng rng(seed);
  std::vector<PageId> trace = ZipfPageTrace(refs, pages, theta, rng).value();
  auto mrefs = [refs](double seconds) {
    return static_cast<double>(refs) / seconds / 1e6;
  };

  std::vector<double> legacy_runs;
  StackDistanceSimulator legacy(trace.size());
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceSimulator run(trace.size());
    run.AccessAll(trace);
    legacy_runs.push_back(SecondsSince(t0));
    if (r + 1 == reps) legacy = std::move(run);
  }
  const StackDistanceHistogram& reference = legacy.histogram();
  const Timing legacy_t = Summarize(legacy_runs);

  std::vector<double> kernel_runs;
  StackDistanceKernel kernel(trace.size());
  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    StackDistanceKernel run(trace.size());
    run.AccessAll(trace);
    kernel_runs.push_back(SecondsSince(t0));
    identical = identical && run.histogram() == reference;
    if (r + 1 == reps) kernel = std::move(run);
  }
  const Timing kernel_t = Summarize(kernel_runs);
  const double speedup = legacy_t.median / kernel_t.median;
  const double kernel_mrefs = mrefs(kernel_t.median);

  TablePrinter table(
      {"variant", "median s", "min s", "max s", "Mrefs/s", "speedup"});
  auto add_row = [&](const std::string& name, const Timing& t) {
    table.AddRow()
        .Cell(name)
        .Cell(t.median, 3)
        .Cell(t.min, 3)
        .Cell(t.max, 3)
        .Cell(mrefs(t.median), 2)
        .Cell(legacy_t.median / t.median, 2);
  };
  add_row("legacy simulator", legacy_t);
  add_row("cache-conscious kernel", kernel_t);

  // Ingestion: the trace streamed back through the autodetected source
  // (mmap on any reasonable host) and through the forced io_uring path.
  double mmap_s = 0;
  double uring_s = 0;
  uint64_t uring_fallbacks = 0;
  if (!trace_path.empty()) {
    if (Status s = SavePageTrace(trace, trace_path); !s.ok()) {
      std::cerr << s.ToString() << '\n';
      return 1;
    }
    auto timed_stream = [&](const TraceOpenOptions& options,
                            double* out_s) -> bool {
      auto source = OpenTraceSource(trace_path, options);
      if (!source.ok()) {
        std::cerr << source.status().ToString() << '\n';
        return false;
      }
      auto t0 = std::chrono::steady_clock::now();
      StackDistanceKernel streamed((*source)->size_hint().value_or(refs));
      std::vector<PageId> chunk(size_t{1} << 16);
      while (true) {
        auto got = (*source)->Next(chunk.data(), chunk.size());
        if (!got.ok()) {
          std::cerr << got.status().ToString() << '\n';
          return false;
        }
        if (*got == 0) break;
        streamed.AccessAll(chunk.data(), *got);
      }
      *out_s = SecondsSince(t0);
      identical = identical && (streamed.histogram() == reference);
      return true;
    };
    if (!timed_stream({}, &mmap_s)) return 1;
    add_row("kernel, mmap-streamed trace (1 run)", {mmap_s, mmap_s, mmap_s});
    uint64_t fallbacks_before =
        MetricsRegistry::Global().Snapshot().counters["trace.uring_fallbacks"];
    TraceOpenOptions force;
    force.force_uring = true;
    if (!timed_stream(force, &uring_s)) return 1;
    uring_fallbacks =
        MetricsRegistry::Global().Snapshot().counters["trace.uring_fallbacks"] -
        fallbacks_before;
    add_row(uring_fallbacks == 0 ? "kernel, io_uring-streamed trace (1 run)"
                                 : "kernel, io_uring (fell back, 1 run)",
            {uring_s, uring_s, uring_s});
  }

  table.Print(std::cout);
  std::cout << "bit-identical histograms: " << (identical ? "yes" : "NO (bug!)")
            << "\nkernel compactions: " << kernel.compactions() << '\n';

  std::ofstream json(json_path, std::ios::trunc);
  if (!json.is_open()) {
    std::cerr << "cannot write " << json_path << '\n';
    return 1;
  }
  json << "{\n"
       << "  \"bench\": \"mattson_kernel\",\n"
       << "  \"cpu_model\": \"" << CpuModel() << "\",\n"
       << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"numa_nodes\": " << NumaNodeCount() << ",\n"
       << "  \"build_type\": \"" << EPFIS_BENCH_BUILD_TYPE << "\",\n"
       << "  \"refs\": " << refs << ",\n"
       << "  \"pages\": " << pages << ",\n"
       << "  \"theta\": " << theta << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"uring_supported\": "
       << (UringTraceSource::Supported() ? "true" : "false") << ",\n"
       << "  " << TimingJson("legacy_seconds", legacy_t) << ",\n"
       << "  " << TimingJson("kernel_seconds", kernel_t) << ",\n"
       << "  \"legacy_mrefs_per_s\": " << mrefs(legacy_t.median) << ",\n"
       << "  \"kernel_mrefs_per_s\": " << kernel_mrefs << ",\n"
       << "  \"single_thread_speedup\": " << speedup << ",\n";
  if (mmap_s > 0) {
    json << "  \"mmap_stream_seconds\": " << mmap_s << ",\n";
  }
  if (uring_s > 0) {
    json << "  \"uring_stream_seconds\": " << uring_s << ",\n"
         << "  \"uring_fallbacks\": " << uring_fallbacks << ",\n";
  }
  json << "  \"kernel_compactions\": " << kernel.compactions() << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << '\n';

  if (gate_mrefs > 0 && kernel_mrefs < gate_mrefs) {
    std::cerr << "FAIL: kernel " << kernel_mrefs << " Mrefs/s under the "
              << gate_mrefs << " Mrefs/s floor\n";
    return 1;
  }
  return identical ? 0 : 1;
}
