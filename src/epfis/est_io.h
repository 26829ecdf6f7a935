#ifndef EPFIS_EPFIS_EST_IO_H_
#define EPFIS_EPFIS_EST_IO_H_

#include <cstdint>
#include <span>
#include <string>

#include "catalog/catalog_snapshot.h"
#include "epfis/index_stats.h"
#include "util/cancel.h"
#include "util/result.h"

namespace epfis {

class StatsCatalog;

/// Interpretation of phi in the small-selectivity correction (§4.2).
enum class PhiMode {
  /// As printed in the paper: phi = max(1, B/T).
  kPaperMax,
  /// The interpretation suggested by the surrounding prose ("sigma << B/T"):
  /// phi = min(1, B/T). Compared in bench_ablation_phi.
  kMin,
};

/// Options for Subprogram Est-IO.
///
/// The EstIo entry points reject NaN or non-positive `nu_threshold` /
/// `correction_divisor` with InvalidArgument (a zero divisor would turn
/// the damping factor into a silent NaN/inf estimate).
struct EstIoOptions {
  PhiMode phi_mode = PhiMode::kPaperMax;
  /// nu = 1 iff phi >= nu_threshold * sigma (paper: 3). Must be > 0.
  double nu_threshold = 3.0;
  /// Damping divisor in min(1, phi / (divisor * sigma)) (paper: 6).
  /// Must be > 0.
  double correction_divisor = 6.0;
  /// Apply the heuristic correction term at all (for ablations).
  bool enable_correction = true;

  /// Overload protection for EstimateBatch: once `deadline` expires or
  /// `cancel` fires mid-batch, every not-yet-processed probe is shed —
  /// written as kRejected with fetches 0 and a DeadlineExceeded (or
  /// Cancelled) stats_status — instead of the batch running arbitrarily
  /// past its budget. Probes are estimated in probe order, so the shed
  /// probes always form a suffix of the batch. Probes estimated before the
  /// cutoff keep their real results, the batch Status stays Ok (shedding
  /// is per-probe provenance, not a caller error), and
  /// `est_io.deadline_shed` counts the shed probes. The defaults (null
  /// token, infinite deadline) never shed and keep batch results
  /// bit-identical to an unguarded batch.
  /// Ignored by the single-probe entry points — one probe is microseconds
  /// and not worth a clock read.
  CancellationToken cancel;
  Deadline deadline;
};

/// Description of the index scan being costed.
struct ScanSpec {
  /// Selectivity of the starting/stopping conditions (fraction of records
  /// in the scanned key range), in [0, 1].
  double sigma = 1.0;
  /// Combined selectivity S of index-sargable predicates, in (0, 1];
  /// 1 means none.
  double sargable_selectivity = 1.0;
  /// LRU buffer pages available to the scan (the optimizer supplies this).
  uint64_t buffer_pages = 0;
};

/// Where a catalog-backed estimate came from — the provenance the
/// optimizer (and the shell's `estimate` command) surfaces so a degraded
/// number is never mistaken for a modeled one.
enum class EstimateSource {
  /// The full LRU-Fit FPF model from the catalog entry.
  kLruFitCurve,
  /// Degraded mode: the index's statistics were missing or quarantined,
  /// so the estimate comes from the classical Yao/Cardenas formulas over
  /// the coarse table shape. Coarser (no buffer-size dependence, no
  /// clustering), but never blocks compilation on a corrupt catalog.
  kFormulaFallback,
  /// Batch-only: the probe was not estimated — its scan spec was invalid
  /// (stats_status carries the InvalidArgument), or the batch's deadline
  /// expired / cancel token fired before this probe was processed
  /// (stats_status carries DeadlineExceeded / Cancelled; see
  /// EstIoOptions::deadline). fetches is 0; a rejected probe never fails
  /// its batch-mates.
  kRejected,
};

/// Coarse physical description of the scanned table, used only when the
/// catalog cannot supply trusted statistics. The optimizer always knows
/// these two numbers from the base-table entry even when the per-index
/// statistics are gone.
struct TableShape {
  uint64_t table_pages = 0;
  uint64_t table_records = 0;
};

/// A catalog-backed estimate plus its provenance.
struct CatalogEstimate {
  double fetches = 0.0;
  EstimateSource source = EstimateSource::kLruFitCurve;
  /// Why the fallback fired (NotFound / Corruption) or the probe was
  /// rejected (InvalidArgument); Ok when the full model was used.
  Status stats_status = Status::Ok();
};

/// One probe of a batched estimate: a pre-resolved index handle plus the
/// scan being costed against it. Resolve the handle once per distinct
/// index (CatalogSnapshot::Resolve) and reuse it across the batch — that
/// is the point of the batch API: the name lookup leaves the hot loop.
struct BatchProbe {
  /// Handle into the *same* snapshot passed to EstimateBatch. An invalid
  /// handle (the Resolve miss value) degrades that probe to the formula
  /// fallback with NotFound provenance — same contract as a by-name miss.
  CatalogSnapshot::Handle index;
  ScanSpec scan;
  /// Fallback shape for degraded probes (missing/quarantined entries).
  TableShape shape;
};

/// Subprogram Est-IO (§4.2): estimates the number of data-page fetches for
/// an index scan given the catalog statistics produced by LRU-Fit.
///
/// Steps (paper §4.3, steps 4-7): evaluate the segment-approximated FPF
/// curve at B to get PF_B; scale by sigma; add the small-sigma heuristic
/// correction term
///   nu * min(1, phi/(6 sigma)) * (1 - C) * Cardenas(T, sigma N);
/// and finally, when sargable predicates are present (S < 1), reduce by the
/// urn-model factor (1 - (1 - 1/Q)^k) with
///   Q = C sigma T + (1 - C) min(T, sigma N),  k = S sigma N.
///
/// The estimate is clamped to the trivial bounds [0, S sigma N] (a scan
/// cannot fetch more pages than it fetches records). Every entry point
/// validates its inputs: malformed scan specifications are rejected with
/// InvalidArgument, never clamped into range.
struct EstIo {
  /// Validated page-fetch estimate. Fails with InvalidArgument when
  /// `scan.sigma` is outside [0, 1], `scan.sargable_selectivity` is
  /// outside (0, 1], `scan.buffer_pages` is 0 (a scan with no buffer
  /// cannot be costed by the FPF model), or `options` carries a NaN or
  /// non-positive threshold/divisor; NaNs in the scan are rejected too.
  static Result<double> Estimate(const IndexStats& stats,
                                 const ScanSpec& scan,
                                 const EstIoOptions& options = {});

  /// Validated full-scan estimate (PF_B alone); rejects
  /// `buffer_pages == 0`.
  static Result<double> EstimateFullScan(const IndexStats& stats,
                                         uint64_t buffer_pages);

  /// Catalog-backed estimate with graceful degradation. Looks up
  /// `index_name` in the catalog and runs the full Estimate when trusted
  /// statistics exist. When the entry is missing (NotFound) or was
  /// quarantined by a recovering load (Corruption), falls back to the
  /// Yao/Cardenas formula over `shape` instead of failing the
  /// compilation, marks the result kFormulaFallback, and bumps the
  /// `est_io.degraded` counter. Scan-spec validation errors and
  /// unexpected catalog errors still fail.
  ///
  /// This overload takes the catalog's mutex for the lookup. Serving
  /// paths should prefer the CatalogSnapshot overload below, which is
  /// lock-free.
  static Result<CatalogEstimate> EstimateFromCatalog(
      const StatsCatalog& catalog, const std::string& index_name,
      const ScanSpec& scan, const TableShape& shape,
      const EstIoOptions& options = {});

  /// Lock-free form of the same contract, reading an immutable published
  /// snapshot (StatsCatalog::snapshot() or OpenCatalogSnapshotV3). No
  /// mutex, no allocation on the curve path; missing and quarantined
  /// entries degrade exactly as above. Single-probe and batched
  /// estimation share this lookup/fallback/provenance path, so for any
  /// probe the two produce bit-identical results.
  static Result<CatalogEstimate> EstimateFromCatalog(
      const CatalogSnapshot& snapshot, const std::string& index_name,
      const ScanSpec& scan, const TableShape& shape,
      const EstIoOptions& options = {});

  /// Batched serving entry point: estimates every probe against one
  /// immutable snapshot and writes results[i] for probes[i].
  ///
  /// Semantics per probe, in order:
  ///   - invalid scan spec        -> kRejected, fetches 0, InvalidArgument
  ///   - invalid/unknown handle   -> kFormulaFallback, NotFound
  ///   - quarantined entry        -> kFormulaFallback, Corruption
  ///   - otherwise                -> kLruFitCurve via the FPF model
  ///
  /// A probe never fails the batch; the returned Status is non-OK only
  /// for caller errors (results smaller than probes, handle slot out of
  /// range for this snapshot, invalid options). Probes are estimated in
  /// probe order and each independently of its neighbours, so results[i]
  /// is bit-identical to a lone EstimateFromCatalog(snapshot, ...) call
  /// for the same probe, whatever order the batch lists them in. The
  /// formula-path counters (est_io.estimates, correction_applied,
  /// sargable_reductions, clamped_at_qualifying) are tallied per batch
  /// and published once at its end, with the same totals as one-by-one
  /// calls.
  ///
  /// Thread-safe with no synchronization: the snapshot is immutable and
  /// all mutable state is in `results`. Concurrent StatsCatalog::Publish
  /// calls never affect a batch in flight — the batch reads the snapshot
  /// it was handed, not the catalog.
  static Status EstimateBatch(const CatalogSnapshot& snapshot,
                              std::span<const BatchProbe> probes,
                              std::span<CatalogEstimate> results,
                              const EstIoOptions& options = {});
};

}  // namespace epfis

#endif  // EPFIS_EPFIS_EST_IO_H_
