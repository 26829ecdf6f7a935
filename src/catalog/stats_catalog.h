#ifndef EPFIS_CATALOG_STATS_CATALOG_H_
#define EPFIS_CATALOG_STATS_CATALOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "epfis/index_stats.h"
#include "util/result.h"

namespace epfis {

/// Outcome of a recovering catalog load: how many entries survived, how
/// many were quarantined, and why. Printed by the shell's `load` command
/// and consumed by operators deciding whether to trigger a statistics
/// refresh for the quarantined indexes.
struct CatalogLoadReport {
  /// On-disk format version of the file (1 = pre-checksum text,
  /// 2 = checksummed text, 3 = binary mmap-able).
  int format_version = 0;
  size_t entries_loaded = 0;
  size_t entries_quarantined = 0;
  /// Of the quarantined entries, how many failed their CRC32C check (the
  /// rest were structurally unparsable).
  size_t checksum_failures = 0;
  /// One human-readable reason per quarantined entry, in file order.
  std::vector<std::string> quarantine_reasons;
};

/// The statistics side of the system catalog: one IndexStats entry per
/// index, written by LRU-Fit at statistics-collection time and read by
/// Est-IO during query compilation (§4: "This coordinate information can be
/// stored in a system catalog entry associated with the index").
///
/// Thread-safe: every operation takes an internal mutex, so concurrent
/// RunLruFitBatch workers can publish entries while compilation threads
/// read them. Get returns a copy, never a reference into the map.
///
/// One on-disk format is written; three load through the same
/// auto-detecting entry points:
///
///   v3 (written)  — the binary mmap-able serving format (catalog_v3.h):
///                   packed entries + FPF knots with a CRC32C per entry,
///                   written by SaveToFileV3, loadable zero-copy as a
///                   CatalogSnapshot (OpenCatalogSnapshotV3).
///   v2 (import)   — text: a `[epfis-stats-catalog-v2]` header line, then
///                   per entry `[index]`, `key=value` fields, and an
///                   `[end crc=XXXXXXXX]` trailer whose CRC32C covers the
///                   field lines, so torn writes and bit rot are detected
///                   per entry instead of silently poisoning estimates.
///   v1 (import)   — the pre-checksum text format: no header, plain
///                   `[end]` trailers, no integrity check.
///
/// A text field whose value is not wholly a valid number (trailing junk,
/// a sign on an unsigned field, out of range) is a field error: strict
/// loads fail, recovering loads quarantine the entry. Saving a loaded
/// text catalog writes v3, which is how `catalog convert` migrates files.
///
/// SaveToFileV3 is crash-safe: the catalog is written to `path + ".tmp"`,
/// fsynced, and renamed over `path`, so a failure at any step leaves the
/// previous on-disk catalog intact (and no stale tmp file behind). All
/// file operations carry `catalog.*` fault-injection points (util/fault.h).
///
/// Corrupt entries can be *quarantined* instead of failing the whole
/// load (RecoverFromFile): good entries load, bad ones are remembered by
/// name, and Get on a quarantined index fails with Corruption — the
/// signal Est-IO's degraded mode uses to fall back to the formula
/// estimate instead of trusting a half-parsed curve.
class StatsCatalog {
 public:
  StatsCatalog() = default;

  /// Inserts or replaces the entry for `stats.index_name` (clearing any
  /// quarantine mark it carried).
  void Put(IndexStats stats);

  /// Fails with NotFound if the index has no statistics, and with
  /// Corruption if its on-disk entry was quarantined by a recovering
  /// load (the stats exist but cannot be trusted).
  Result<IndexStats> Get(const std::string& index_name) const;

  bool Contains(const std::string& index_name) const;
  void Remove(const std::string& index_name);
  size_t size() const;

  /// Names of all indexes with statistics, sorted.
  std::vector<std::string> IndexNames() const;

  /// Whether a recovering load quarantined this index's entry.
  bool IsQuarantined(const std::string& index_name) const;

  /// Names of all quarantined indexes, sorted.
  std::vector<std::string> QuarantinedNames() const;

  /// ## The RCU write side (see CatalogSnapshot for the read contract)
  ///
  /// Freezes the current entries (and quarantine marks) into a new
  /// immutable CatalogSnapshot and atomically swaps it in as the one
  /// snapshot() hands out. Estimate threads holding the previous snapshot
  /// keep reading it untouched; it is reclaimed when the last of them
  /// drops its reference. Publishing never blocks readers and readers
  /// never block publishing — the swap is one atomic shared_ptr store.
  ///
  /// Carries the `catalog.publish.swap` fault point: an injected fault
  /// fails the publish *before* the swap, so the previous snapshot stays
  /// current (the crash-safety contract of the catalog file, applied to
  /// the in-memory serving state).
  Status Publish();

  /// The most recently published snapshot (never null — the empty
  /// snapshot before the first Publish). One atomic load; wait-free, safe
  /// from any thread. Callers batch-estimating should grab one snapshot,
  /// resolve handles against it, and use it for the whole batch.
  std::shared_ptr<const CatalogSnapshot> snapshot() const;

  /// Serializes every entry to the v3 binary format (catalog_v3.h).
  std::string SaveToStringV3() const;

  /// Parses entries from any supported format (v3 binary sniffed by
  /// magic, else v1/v2 text), replacing current contents. Strict: any
  /// corrupt entry fails the whole load with Corruption and leaves the
  /// catalog unchanged.
  Status LoadFromString(const std::string& text);

  /// Recovery mode: loads every parsable entry, quarantines the corrupt
  /// ones (checksum mismatch, truncation, unparsable fields), and reports
  /// what happened. The catalog is replaced by the surviving entries plus
  /// the quarantine set. Fails only when the text is not a stats catalog
  /// at all (bad version header).
  Result<CatalogLoadReport> RecoverFromString(const std::string& text);

  /// Atomic, durable save in the v3 binary format: tmp file + fsync +
  /// rename, with the catalog.save.* fault points (see class comment).
  Status SaveToFileV3(const std::string& path) const;

  /// Strict load, any format; Corruption on the first bad entry.
  Status LoadFromFile(const std::string& path);

  /// Recovering load, any format (see RecoverFromString).
  Result<CatalogLoadReport> RecoverFromFile(const std::string& path);

 private:
  Result<CatalogLoadReport> LoadImpl(const std::string& text, bool recover);
  Result<CatalogLoadReport> LoadV3Impl(const std::string& bytes,
                                       bool recover);

  mutable std::mutex mu_;
  std::map<std::string, IndexStats> entries_;  // Guarded by mu_.
  // index name -> why its entry was quarantined. Guarded by mu_.
  std::map<std::string, std::string> quarantined_;
  // Publish generation counter. Guarded by mu_.
  uint64_t publish_generation_ = 0;
  // The RCU-published snapshot. Atomic shared_ptr: readers load, Publish
  // stores; no mutex on the read side.
  std::atomic<std::shared_ptr<const CatalogSnapshot>> snapshot_{
      CatalogSnapshot::Empty()};
};

}  // namespace epfis

#endif  // EPFIS_CATALOG_STATS_CATALOG_H_
