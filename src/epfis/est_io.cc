#include "epfis/est_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "catalog/stats_catalog.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"

namespace epfis {
namespace {

// One registration per process; Est-IO runs at query-compilation time in
// microseconds, so a handful of counter bumps is noise there but gives
// operators the estimate volume and which formula paths actually fire.
struct EstIoMetrics {
  Counter estimates;
  Counter full_scans;
  Counter rejected;
  Counter correction_applied;
  Counter sargable_reductions;
  Counter clamped;
  Counter degraded;
  Counter batches;
  Counter batch_probes;
  Counter deadline_shed;

  static EstIoMetrics& Get() {
    static EstIoMetrics* metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      auto* m = new EstIoMetrics();
      m->estimates = registry.GetCounter("est_io.estimates");
      m->full_scans = registry.GetCounter("est_io.full_scan_estimates");
      m->rejected = registry.GetCounter("est_io.rejected");
      m->correction_applied =
          registry.GetCounter("est_io.correction_applied");
      m->sargable_reductions =
          registry.GetCounter("est_io.sargable_reductions");
      m->clamped = registry.GetCounter("est_io.clamped_at_qualifying");
      m->degraded = registry.GetCounter("est_io.degraded");
      m->batches = registry.GetCounter("est_io.batches");
      m->batch_probes = registry.GetCounter("est_io.batch_probes");
      m->deadline_shed = registry.GetCounter("est_io.deadline_shed");
      return m;
    }();
    return *metrics;
  }
};

// Why `scan` is out of domain, or null when it is valid. Written so NaN
// fails every check (NaN comparisons are false).
const char* ScanSpecError(const ScanSpec& scan) {
  if (!(scan.sigma >= 0.0 && scan.sigma <= 1.0)) {
    return "Est-IO: sigma must be in [0, 1]";
  }
  if (!(scan.sargable_selectivity > 0.0 &&
        scan.sargable_selectivity <= 1.0)) {
    return "Est-IO: sargable_selectivity must be in (0, 1]";
  }
  if (scan.buffer_pages == 0) return "Est-IO: buffer_pages must be >= 1";
  return nullptr;
}

// InvalidArgument for a rejected scan spec, counted in est_io.rejected.
Status RejectScanSpec(const char* error) {
  EstIoMetrics::Get().rejected.Increment();
  return Status::InvalidArgument(error);
}

Status ValidateScanSpec(const ScanSpec& scan) {
  const char* error = ScanSpecError(scan);
  return error == nullptr ? Status::Ok() : RejectScanSpec(error);
}

// NaN fails the > checks, so it is rejected along with non-positives.
Status ValidateOptions(const EstIoOptions& options) {
  if (!(options.nu_threshold > 0.0)) {
    EstIoMetrics::Get().rejected.Increment();
    return Status::InvalidArgument("Est-IO: nu_threshold must be positive");
  }
  if (!(options.correction_divisor > 0.0)) {
    EstIoMetrics::Get().rejected.Increment();
    return Status::InvalidArgument(
        "Est-IO: correction_divisor must be positive");
  }
  return Status::Ok();
}

// The formula-path counters, tallied in plain integers by
// EstimatePagesCore and published once per entry-point call by Flush: a
// batch pays one registry add per counter instead of several per probe,
// and the totals are the same as bumping each counter in place.
struct EstimateTally {
  uint64_t estimates = 0;
  uint64_t correction_applied = 0;
  uint64_t sargable_reductions = 0;
  uint64_t clamped = 0;

  void Flush() const {
    EstIoMetrics& metrics = EstIoMetrics::Get();
    if (estimates != 0) metrics.estimates.Increment(estimates);
    if (correction_applied != 0) {
      metrics.correction_applied.Increment(correction_applied);
    }
    if (sargable_reductions != 0) {
      metrics.sargable_reductions.Increment(sargable_reductions);
    }
    if (clamped != 0) metrics.clamped.Increment(clamped);
  }
};

// The one evaluation core (paper §4.3 steps 4-7). Every public entry
// point — single-probe, catalog-backed, and batch — funnels through this
// function over an IndexStatsView, which is what makes their results
// bit-identical by construction. Precondition: `scan` passed
// ScanSpecError, so sigma is in [0, 1] and S in (0, 1].
double EstimatePagesCore(const IndexStatsView& view, const ScanSpec& scan,
                         const EstIoOptions& options, EstimateTally& tally) {
  ++tally.estimates;

  double sigma = scan.sigma;
  double s_sarg = scan.sargable_selectivity;
  if (sigma == 0.0) return 0.0;

  double t = static_cast<double>(view.table_pages);
  double n = static_cast<double>(view.table_records);
  double b = static_cast<double>(scan.buffer_pages);
  double c = Clamp(view.clustering, 0.0, 1.0);

  // Step 4: PF_B from the segment approximation.
  double pf_b = FullScanFetchesAt(view, b);

  // Step 5: linear scaling by the range selectivity.
  double estimate = sigma * pf_b;

  // Step 6 (§4.2): heuristic correction for small sigma on unclustered
  // indexes, written in the paper's own shape so each factor is auditable:
  //
  //   correction = nu * min(1, phi / (6 sigma)) * (1 - C) * NCP(T, sigma N)
  //   nu         = 1  iff  phi >= 3 sigma,  else 0
  //
  // The gate and the damping must share the same phi (and the same
  // thresholds scale together through the options): nu decides *whether*
  // the Cardenas term applies, the min(1, .) factor only ramps it in as
  // sigma shrinks. sigma > 0 here (zero returned early), so the divisions
  // are well-defined.
  if (options.enable_correction && t > 0.0) {
    double ratio = b / t;
    double phi = options.phi_mode == PhiMode::kPaperMax
                     ? std::max(1.0, ratio)
                     : std::min(1.0, ratio);
    double nu = (phi >= options.nu_threshold * sigma) ? 1.0 : 0.0;
    double damping =
        std::min(1.0, phi / (options.correction_divisor * sigma));
    // The view carries log1p(-1/T), so the Cardenas term costs one expm1.
    estimate += nu * damping * (1.0 - c) *
                CardenasPages(t, sigma * n, view.cardenas_log_q);
    if (nu == 1.0) ++tally.correction_applied;
  }

  // Step 7: urn-model reduction for index-sargable predicates. The paper's
  // final formula multiplies unconditionally, but with S = 1 the factor
  // (1 - (1 - 1/Q)^{sigma N}) would shrink the estimate even though no
  // sargable predicate exists, contradicting Equation 1; so the reduction
  // applies only when a sargable predicate is actually present.
  if (s_sarg < 1.0) {
    double q = c * sigma * t + (1.0 - c) * std::min(t, sigma * n);
    double k = s_sarg * sigma * n;
    if (q >= 1.0 && k > 0.0) {
      double log_miss = std::log1p(-1.0 / q);
      double factor = -std::expm1(k * log_miss);  // 1 - (1 - 1/Q)^k
      estimate *= Clamp(factor, 0.0, 1.0);
      ++tally.sargable_reductions;
    }
  }

  // A scan fetches a page at most once per qualifying record.
  double qualifying = s_sarg * sigma * n;
  if (estimate > qualifying) ++tally.clamped;
  return Clamp(estimate, 0.0, qualifying);
}

// A single-probe estimate: the core plus an immediate flush.
double EstimateOne(const IndexStatsView& view, const ScanSpec& scan,
                   const EstIoOptions& options) {
  EstimateTally tally;
  double fetches = EstimatePagesCore(view, scan, options, tally);
  tally.Flush();
  return fetches;
}

// Degraded mode: no trusted FPF curve, so fall back to the classical
// uniform-access estimates over the coarse table shape. k qualifying
// records touch at most k pages; Yao's without-replacement model is the
// better fit when the record count is known, Cardenas otherwise.
CatalogEstimate DegradedEstimate(const ScanSpec& scan,
                                 const TableShape& shape,
                                 Status stats_status) {
  EstIoMetrics::Get().degraded.Increment();
  double t = static_cast<double>(shape.table_pages);
  double n = static_cast<double>(shape.table_records);
  double k = scan.sigma * scan.sargable_selectivity * n;
  double estimate;
  if (t < 1.0) {
    estimate = k;  // Shape unknown too: records is the only upper bound.
  } else if (n >= 1.0) {
    estimate = YaoPages(n, t, k);
  } else {
    estimate = CardenasPages(t, k);
  }
  CatalogEstimate out;
  out.fetches = Clamp(estimate, 0.0, std::max(k, 0.0));
  out.source = EstimateSource::kFormulaFallback;
  out.stats_status = std::move(stats_status);
  return out;
}

// A probe that was not estimated: fetches 0 with `why` as provenance.
CatalogEstimate RejectedEstimate(Status why) {
  CatalogEstimate out;
  out.fetches = 0.0;
  out.source = EstimateSource::kRejected;
  out.stats_status = std::move(why);
  return out;
}

// The shared lookup/fallback/provenance path for snapshot-backed
// estimation: single-probe EstimateFromCatalog and every EstimateBatch
// probe land here, so their estimates (and provenance) cannot diverge.
// Writes `out` in place; a healthy probe builds no Status (it only resets
// a stale one left in a reused results buffer).
// Preconditions: the scan spec and options are already validated, and
// `handle` is either invalid or a slot inside `snapshot`.
void EstimateResolvedProbe(const CatalogSnapshot& snapshot,
                           CatalogSnapshot::Handle handle,
                           const ScanSpec& scan, const TableShape& shape,
                           const EstIoOptions& options, EstimateTally& tally,
                           CatalogEstimate& out) {
  if (!handle.valid()) {
    out = DegradedEstimate(
        scan, shape, Status::NotFound("Est-IO: no statistics for index"));
    return;
  }
  const CatalogSnapshot::Entry& entry = snapshot.EntryAt(handle);
  if (entry.quarantined) {
    out = DegradedEstimate(
        scan, shape,
        Status::Corruption("Est-IO: statistics quarantined: " +
                           std::string(entry.quarantine_reason)));
    return;
  }
  out.fetches = EstimatePagesCore(entry.view, scan, options, tally);
  out.source = EstimateSource::kLruFitCurve;
  if (!out.stats_status.ok()) out.stats_status = Status::Ok();
}

}  // namespace

Result<double> EstIo::Estimate(const IndexStats& stats, const ScanSpec& scan,
                               const EstIoOptions& options) {
  EPFIS_RETURN_IF_ERROR(ValidateOptions(options));
  EPFIS_RETURN_IF_ERROR(ValidateScanSpec(scan));
  return EstimateOne(stats.View(), scan, options);
}

Result<CatalogEstimate> EstIo::EstimateFromCatalog(
    const StatsCatalog& catalog, const std::string& index_name,
    const ScanSpec& scan, const TableShape& shape,
    const EstIoOptions& options) {
  EPFIS_RETURN_IF_ERROR(ValidateOptions(options));
  EPFIS_RETURN_IF_ERROR(ValidateScanSpec(scan));
  // The fault point feeds the injected status through the same switch as
  // a real catalog miss, so degraded mode can be drilled without first
  // corrupting a file on disk.
  Status lookup_fault = FaultPoint("est_io.lookup");
  Result<IndexStats> stats = lookup_fault.ok()
                                 ? catalog.Get(index_name)
                                 : Result<IndexStats>(lookup_fault);
  if (stats.ok()) {
    CatalogEstimate out;
    out.fetches = EstimateOne(stats->View(), scan, options);
    out.source = EstimateSource::kLruFitCurve;
    return out;
  }
  StatusCode code = stats.status().code();
  if (code != StatusCode::kNotFound && code != StatusCode::kCorruption) {
    // Not a "statistics unavailable" condition — an I/O or internal
    // error deserves to surface, not to be papered over with a formula.
    return stats.status();
  }
  return DegradedEstimate(scan, shape, stats.status());
}

Result<CatalogEstimate> EstIo::EstimateFromCatalog(
    const CatalogSnapshot& snapshot, const std::string& index_name,
    const ScanSpec& scan, const TableShape& shape,
    const EstIoOptions& options) {
  EPFIS_RETURN_IF_ERROR(ValidateOptions(options));
  EPFIS_RETURN_IF_ERROR(ValidateScanSpec(scan));
  // Same drill point as the mutex-taking overload; an injected
  // NotFound/Corruption exercises degraded mode, anything else surfaces.
  Status lookup_fault = FaultPoint("est_io.lookup");
  if (!lookup_fault.ok()) {
    StatusCode code = lookup_fault.code();
    if (code != StatusCode::kNotFound && code != StatusCode::kCorruption) {
      return lookup_fault;
    }
    return DegradedEstimate(scan, shape, lookup_fault);
  }
  CatalogEstimate out;
  EstimateTally tally;
  EstimateResolvedProbe(snapshot, snapshot.Resolve(index_name), scan, shape,
                        options, tally, out);
  tally.Flush();
  return out;
}

Status EstIo::EstimateBatch(const CatalogSnapshot& snapshot,
                            std::span<const BatchProbe> probes,
                            std::span<CatalogEstimate> results,
                            const EstIoOptions& options) {
  if (results.size() < probes.size()) {
    return Status::InvalidArgument(
        "Est-IO: results span smaller than probes span");
  }
  EPFIS_RETURN_IF_ERROR(ValidateOptions(options));
  // A valid handle whose slot is out of range is a caller bug (a handle
  // resolved against a *different* snapshot), not a degradable per-probe
  // condition: fail the batch before estimating anything.
  for (const BatchProbe& probe : probes) {
    if (probe.index.valid() && probe.index.slot >= snapshot.size()) {
      return Status::InvalidArgument(
          "Est-IO: batch probe handle does not belong to this snapshot");
    }
  }

  EstIoMetrics& metrics = EstIoMetrics::Get();
  metrics.batches.Increment();
  metrics.batch_probes.Increment(probes.size());

  // Probes are estimated in probe order. Each entry's knots are a few
  // hundred bytes, so the entries a batch touches stay cache-resident
  // without grouping probes by slot, and every result is independent of
  // its neighbours.
  //
  // Overload protection: once the batch budget is gone, remaining probes
  // are shed with provenance instead of estimated late. `guarded` keeps
  // the unguarded (default) batch free of clock reads; in probe order the
  // first expiry sheds exactly the suffix that is left.
  const bool guarded = options.cancel.valid() || !options.deadline.infinite();
  EstimateTally tally;
  for (size_t i = 0; i < probes.size(); ++i) {
    const BatchProbe& probe = probes[i];
    if (guarded) {
      Status shed = CheckCancel(options.cancel, options.deadline,
                                "Est-IO batch");
      if (!shed.ok()) {
        metrics.deadline_shed.Increment(probes.size() - i);
        for (; i < probes.size(); ++i) results[i] = RejectedEstimate(shed);
        break;
      }
    }
    if (const char* error = ScanSpecError(probe.scan)) {
      results[i] = RejectedEstimate(RejectScanSpec(error));
      continue;
    }
    EstimateResolvedProbe(snapshot, probe.index, probe.scan, probe.shape,
                          options, tally, results[i]);
  }
  tally.Flush();
  return Status::Ok();
}

Result<double> EstIo::EstimateFullScan(const IndexStats& stats,
                                       uint64_t buffer_pages) {
  if (buffer_pages == 0) {
    EstIoMetrics::Get().rejected.Increment();
    return Status::InvalidArgument("Est-IO: buffer_pages must be >= 1");
  }
  EstIoMetrics::Get().full_scans.Increment();
  return stats.FullScanFetches(static_cast<double>(buffer_pages));
}

}  // namespace epfis
