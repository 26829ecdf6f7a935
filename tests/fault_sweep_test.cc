// The fault-sweep harness: for every registered injection point, arm a
// one-shot fault, run a representative pass over the whole pipeline
// (catalog persistence, trace I/O, trace sources, serial + sharded +
// batched LRU-Fit, Est-IO), and assert the system degrades instead of
// breaking: no crash, no hang (the pass completes), no leaked tmp file,
// errors surfaced through the Status taxonomy, and a full recovery on the
// next clean pass. Run under ASan/UBSan in CI, this is the "no leaked
// resources on any error path" proof.

#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "epfis/online_lru_fit.h"
#include "epfis/trace_io.h"
#include "epfis/trace_source.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace epfis {
namespace {

std::vector<PageId> MakeTrace(size_t n) {
  std::vector<PageId> trace(n);
  uint64_t x = 88172645463325252ULL;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    trace[i] = static_cast<PageId>(x % 300);
  }
  return trace;
}

// Outcome of one pipeline pass: per-stage statuses, for the clean-pass
// all-ok assertion. Faulted passes only require that the pass *returns*.
struct PassResult {
  std::vector<Status> stages;

  bool all_ok() const {
    for (const Status& s : stages) {
      if (!s.ok()) return false;
    }
    return true;
  }
};

class FaultSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    // Per-test directory: parallel ctest processes must not share scratch.
    dir_ = testing::TempDir() + "/epfis_fault_sweep_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    trace_ = MakeTrace(30000);
    trace_path_ = dir_ + "/fixture_trace.bin";
    ASSERT_TRUE(SavePageTrace(trace_, trace_path_).ok());
    StatsCatalog fixture;
    auto stats = RunLruFit(trace_, 300, 100, "ix_fixture");
    ASSERT_TRUE(stats.ok());
    fixture.Put(std::move(*stats));
    catalog_path_ = dir_ + "/fixture_stats.cat";
    ASSERT_TRUE(fixture.SaveToFileV3(catalog_path_).ok());
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  // One pass over every instrumented subsystem. Every stage runs
  // regardless of earlier failures, so a single armed point cannot shadow
  // the reachability of the points behind it. The optional token is
  // threaded into every cancellable option struct — a pass with a null
  // token (the default) is the pre-existing fault sweep unchanged.
  PassResult RunPipeline(const std::string& tag,
                         CancellationToken cancel = {}) {
    PassResult result;
    auto record = [&result](Status s) { result.stages.push_back(s); };

    // Catalog save path (open/write/fsync/rename).
    StatsCatalog catalog;
    LruFitOptions serial_options;
    serial_options.cancel = cancel;
    auto stats = RunLruFit(trace_, 300, 100, "ix_fixture", serial_options);
    record(stats.ok() ? Status::Ok() : stats.status());
    if (stats.ok()) catalog.Put(std::move(*stats));
    std::string save_path = dir_ + "/sweep_" + tag + ".cat";
    record(catalog.SaveToFileV3(save_path));

    // Catalog load path (open/read).
    StatsCatalog loaded;
    record(loaded.LoadFromFile(catalog_path_));

    // Trace save path (open/write).
    record(SavePageTrace(trace_, dir_ + "/sweep_" + tag + ".bin"));

    // Streaming trace read path (open/header/body).
    TraceOpenOptions source_options;
    source_options.cancel = cancel;
    auto file_source = FileTraceSource::Open(trace_path_, source_options);
    record(file_source.ok() ? Status::Ok() : file_source.status());
    if (file_source.ok()) {
      PageId buf[1024];
      Status drain = Status::Ok();
      for (;;) {
        auto n = file_source->Next(buf, 1024);
        if (!n.ok()) {
          drain = n.status();
          break;
        }
        if (*n == 0) break;
      }
      record(drain);
    }

    // mmap open + degrade path.
    auto any_source = OpenTraceSource(trace_path_, source_options);
    record(any_source.ok() ? Status::Ok() : any_source.status());

    // io_uring open + degrade path (trace.uring.setup). Forced through
    // the ring — the autodetect's size threshold would skip this small
    // fixture — so the point is consulted on every pass; an injected
    // setup fault (or a kernel without io_uring) falls back to mmap
    // transparently, like trace.mmap.map one rung further down.
    {
      TraceOpenOptions uring_options;
      uring_options.cancel = cancel;
      uring_options.force_uring = true;
      auto uring_source = OpenTraceSource(trace_path_, uring_options);
      record(uring_source.ok() ? Status::Ok() : uring_source.status());
    }

    // Sharded simulation (sd.shard.task).
    {
      ThreadPool pool(4);
      LruFitOptions options;
      options.cancel = cancel;
      options.pool = &pool;
      options.num_shards = 6;
      auto sharded = RunLruFit(trace_, 300, 100, "ix_sharded", options);
      record(sharded.ok() ? Status::Ok() : sharded.status());
    }

    // Batch path (lru_fit.batch.job).
    {
      ThreadPool pool(4);
      std::vector<LruFitJob> jobs;
      for (int j = 0; j < 2; ++j) {
        LruFitJob job;
        job.trace = std::make_unique<VectorTraceSource>(MakeTrace(4000));
        job.table_pages = 300;
        job.index_name = "ix_batch_" + std::to_string(j);
        job.options.cancel = cancel;
        jobs.push_back(std::move(job));
      }
      LruFitBatchResult batch = RunLruFitBatch(std::move(jobs), pool,
                                               &catalog);
      for (const Status& s : batch.statuses) record(s);
    }

    // Online engine (online.refresh.emit, online.publish): six intervals
    // over the fixture trace, the first refresh bootstrap-publishing into
    // the engine's own empty catalog, so both points are consulted on
    // every clean pass. A fault inside a refresh surfaces out of Ingest;
    // the engine stays usable and the next interval retries.
    {
      StatsCatalog online_catalog;
      OnlineLruFitOptions online_options;
      online_options.table_pages = 300;
      online_options.distinct_keys = 100;
      online_options.window_refs = 20000;
      online_options.refresh_interval = 5000;
      online_options.cancel = cancel;
      OnlineLruFit engine("ix_online", online_options, &online_catalog);
      record(engine.Ingest(trace_));
    }

    // Est-IO catalog lookup (est_io.lookup) — against the loaded catalog,
    // whose content may legitimately be empty under a load fault; the
    // degraded mode is exactly what we want exercised then.
    ScanSpec scan;
    scan.sigma = 0.2;
    scan.sargable_selectivity = 0.8;
    scan.buffer_pages = 32;
    TableShape shape;
    shape.table_pages = 300;
    shape.table_records = 30000;
    auto est =
        EstIo::EstimateFromCatalog(loaded, "ix_fixture", scan, shape);
    record(est.ok() ? Status::Ok() : est.status());

    // Snapshot publish (catalog.publish.swap) + the lock-free serving
    // read path. A failed publish must leave the previous snapshot
    // current, so the batch below always has a coherent snapshot to read
    // — possibly a stale or empty one, which degrades per probe instead
    // of failing the batch.
    record(catalog.Publish());
    {
      std::shared_ptr<const CatalogSnapshot> snapshot = catalog.snapshot();
      std::vector<BatchProbe> probes = {
          BatchProbe{snapshot->Resolve("ix_fixture"), scan, shape}};
      std::vector<CatalogEstimate> results(probes.size());
      EstIoOptions est_options;
      est_options.cancel = cancel;
      record(EstIo::EstimateBatch(*snapshot, probes, results, est_options));
      // Per-probe provenance: shed probes carry Cancelled here while the
      // batch Status above stays Ok. Ok (curve) or NotFound (fallback on
      // an unpublished snapshot) on uncancelled passes.
      record(results[0].stats_status.code() == StatusCode::kCancelled ||
                     results[0].stats_status.code() ==
                         StatusCode::kDeadlineExceeded
                 ? results[0].stats_status
                 : Status::Ok());
    }
    return result;
  }

  bool HasTmpLeak() const {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".tmp") return true;
    }
    return false;
  }

  std::string dir_;
  std::string trace_path_;
  std::string catalog_path_;
  std::vector<PageId> trace_;
};

// A clean pass reaches every canonical point: that is what makes the
// sweep below meaningful (an unreachable point would "pass" vacuously).
TEST_F(FaultSweepTest, CleanPassTouchesEveryCanonicalPoint) {
  PassResult clean = RunPipeline("clean");
  EXPECT_TRUE(clean.all_ok());
  for (const char* point : kAllFaultPoints) {
    EXPECT_GE(FaultInjector::Global().counters(point).calls, 1u)
        << "point never consulted in a clean pass: " << point;
  }
  EXPECT_GE(std::size(kAllFaultPoints), 12u);
}

// The sweep itself: each point armed one-shot with the default IoError,
// then (separately) checked for recovery on a clean pass.
TEST_F(FaultSweepTest, EveryPointDegradesGracefullyAndRecovers) {
  int swept = 0;
  for (const char* point : kAllFaultPoints) {
    SCOPED_TRACE(point);
    FaultInjector::Global().DisarmAll();
    FaultSpec spec;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    uint64_t fires_before = FaultInjector::Global().counters(point).fires;

    // Faulted pass: must complete (no crash, no hang) — statuses may be
    // errors, but only through the Status taxonomy.
    PassResult faulted = RunPipeline(std::string("fault_") + point);

    EXPECT_EQ(FaultInjector::Global().counters(point).fires,
              fires_before + 1)
        << "armed point never fired — injection not reachable";
    EXPECT_FALSE(HasTmpLeak()) << "tmp file leaked under fault";
    // The fault must surface somewhere: at least one stage failed, except
    // at points whose whole purpose is transparent degradation
    // (uring -> mmap and mmap -> streaming fallbacks hide access-path
    // errors by design).
    if (std::string(point) != "trace.mmap.map" &&
        std::string(point) != "trace.uring.setup") {
      EXPECT_FALSE(faulted.all_ok())
          << "injected error vanished without degrading anything";
    }

    // Recovery: the very next clean pass is fully healthy.
    FaultInjector::Global().DisarmAll();
    PassResult recovered = RunPipeline(std::string("clean_") + point);
    EXPECT_TRUE(recovered.all_ok()) << "pipeline did not recover";
    EXPECT_FALSE(HasTmpLeak());
    ++swept;
  }
  EXPECT_GE(swept, 12);
}

// Probabilistic schedules drive the same sweep through the deterministic
// PRNG: same seed, same failures, so a flaky-looking schedule is exactly
// reproducible.
TEST_F(FaultSweepTest, ProbabilisticScheduleIsReproducible) {
  auto run = [&](uint64_t seed) {
    FaultInjector::Global().DisarmAll();
    FaultSpec spec;
    spec.probability = 0.3;
    spec.seed = seed;
    FaultInjector::Global().Arm("catalog.save.write", spec);
    std::vector<bool> outcomes;
    StatsCatalog catalog;
    auto stats = RunLruFit(trace_, 300, 100, "ix");
    EXPECT_TRUE(stats.ok());
    catalog.Put(std::move(*stats));
    for (int i = 0; i < 10; ++i) {
      outcomes.push_back(
          catalog.SaveToFileV3(dir_ + "/prob.cat").ok());
    }
    FaultInjector::Global().DisarmAll();
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_FALSE(HasTmpLeak());
}

// The cancellation sweep: at every injection point, fire a cancel token
// (FaultKind::kCancel lets the faulted call itself proceed) and run the
// pipeline with that same token threaded through every option struct.
// Cancellation must surface only through the Status taxonomy — every
// failed stage reads Cancelled or DeadlineExceeded, nothing crashes or
// hangs, no tmp file leaks, and a pass with a fresh token is healthy.
TEST_F(FaultSweepTest, CancellationAtEveryPointSurfacesCleanly) {
  int swept = 0;
  for (const char* point : kAllFaultPoints) {
    SCOPED_TRACE(point);
    FaultInjector::Global().DisarmAll();
    CancellationToken token = CancellationToken::Create();
    FaultSpec spec;
    spec.kind = FaultKind::kCancel;
    spec.cancel_token = token;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    uint64_t fires_before = FaultInjector::Global().counters(point).fires;

    PassResult pass = RunPipeline(std::string("cancel_") + point, token);

    EXPECT_EQ(FaultInjector::Global().counters(point).fires,
              fires_before + 1)
        << "armed point never fired — injection not reachable";
    EXPECT_TRUE(token.cancelled());
    EXPECT_FALSE(HasTmpLeak()) << "tmp file leaked under cancellation";
    int cancelled_stages = 0;
    for (size_t i = 0; i < pass.stages.size(); ++i) {
      const Status& s = pass.stages[i];
      if (s.ok()) continue;
      EXPECT_TRUE(s.code() == StatusCode::kCancelled ||
                  s.code() == StatusCode::kDeadlineExceeded)
          << "stage " << i << " failed with a non-cancellation code: "
          << s.message();
      ++cancelled_stages;
    }
    // Every point fires before the final batch-estimate stage, whose
    // per-probe shed provenance observes the token even when every
    // earlier stage had already passed its last poll.
    EXPECT_GT(cancelled_stages, 0)
        << "cancellation vanished without stopping anything";

    // A fresh pass with a null token is fully healthy: cancellation is
    // per-run state, never sticky process state.
    FaultInjector::Global().DisarmAll();
    PassResult recovered = RunPipeline(std::string("post_") + point);
    EXPECT_TRUE(recovered.all_ok()) << "pipeline did not recover";
    EXPECT_FALSE(HasTmpLeak());
    ++swept;
  }
  EXPECT_GE(swept, 12);
}

// The serving invariant under a failed publish: readers keep the previous
// snapshot generation, bit-for-bit, until a publish actually succeeds.
TEST_F(FaultSweepTest, FailedPublishKeepsServingPreviousSnapshot) {
  StatsCatalog catalog;
  auto first = RunLruFit(trace_, 300, 100, "ix_first");
  ASSERT_TRUE(first.ok());
  catalog.Put(std::move(*first));
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> before = catalog.snapshot();
  ASSERT_TRUE(before->Resolve("ix_first").valid());

  auto second = RunLruFit(trace_, 300, 100, "ix_second");
  ASSERT_TRUE(second.ok());
  catalog.Put(std::move(*second));

  FaultSpec spec;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("catalog.publish.swap", spec);
  EXPECT_FALSE(catalog.Publish().ok());

  // Readers still get the exact pre-failure snapshot object.
  std::shared_ptr<const CatalogSnapshot> after = catalog.snapshot();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_TRUE(after->Resolve("ix_first").valid());
  EXPECT_FALSE(after->Resolve("ix_second").valid());

  // The next clean publish swaps in both entries.
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> healed = catalog.snapshot();
  EXPECT_TRUE(healed->Resolve("ix_first").valid());
  EXPECT_TRUE(healed->Resolve("ix_second").valid());
}

}  // namespace
}  // namespace epfis
