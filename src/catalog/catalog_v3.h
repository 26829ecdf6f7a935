#ifndef EPFIS_CATALOG_CATALOG_V3_H_
#define EPFIS_CATALOG_CATALOG_V3_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "epfis/index_stats.h"
#include "util/result.h"

namespace epfis {

/// The binary, mmap-able stats-catalog format (v3) — the one format the
/// catalog writes (the v1/v2 text formats in stats_catalog.cc are
/// read-only imports).
///
/// Layout (all integers and doubles little-endian, offsets absolute):
///
///   [ 64 B header   ] magic "EPFSCAT3", version, endian tag, entry count,
///                     index-table offset, file size, CRC32C of the header
///   [ index table   ] one 40 B record per entry: name offset/size, knot
///                     count, offsets of the packed fixed fields and the
///                     knot array, CRC32C of the entry's payload bytes
///   [ entry payloads] per entry: 104 B packed fixed fields (the uint64
///                     shape counters + clustering + sampling and
///                     online-mode provenance),
///                     then the FPF knots as (double x, double y) pairs,
///                     all 8-byte aligned so a mapped file can be read in
///                     place
///   [ name heap     ] raw index-name bytes
///
/// Integrity mirrors v2: one CRC32C per entry (covering its fixed fields,
/// knots, and name) plus a header CRC, so torn writes and bit rot are
/// detected per entry and a recovering load can quarantine just the bad
/// ones. Both readers below act on one per-entry verdict computed while
/// parsing — CRC, empty name, a 1-knot curve, knot x not strictly
/// increasing (or NaN) — so they always agree on which entries are bad. The 8-byte alignment of the knot arrays is what makes the
/// zero-copy load legal: OpenCatalogSnapshotV3 maps the file and hands out
/// IndexStatsView entries whose knot pointers aim straight into the
/// mapping — no parse, no copy, O(file size) page-cache warmup only.
struct CatalogV3 {
  static constexpr char kMagic[8] = {'E', 'P', 'F', 'S', 'C', 'A', 'T', '3'};
  static constexpr uint32_t kVersion = 3;

  /// True when `data` starts with the v3 magic (the format sniff used by
  /// the auto-detecting catalog loads).
  static bool SniffMagic(const char* data, size_t size);

  /// Serializes catalog entries to the v3 byte image.
  static std::string Encode(const std::map<std::string, IndexStats>& entries);

  /// Outcome of a v3 decode, shaped for StatsCatalog::LoadImpl merging.
  struct Contents {
    std::map<std::string, IndexStats> entries;
    std::map<std::string, std::string> quarantined;
    size_t checksum_failures = 0;
    std::vector<std::string> quarantine_reasons;
  };

  /// Parses a v3 byte image into materialized entries. Strict mode
  /// (recover = false) fails with Corruption on the first bad entry;
  /// recovery quarantines bad entries and loads the rest. A file that is
  /// not structurally a v3 catalog (bad magic/header/bounds) fails in
  /// both modes.
  static Result<Contents> Decode(const char* data, size_t size, bool recover);
};

/// Zero-copy serving load: maps `path`, validates the header and every
/// entry once, and returns a CatalogSnapshot whose FPF knot views point
/// directly into the mapping (kept alive by the snapshot). Entries the
/// recovering Decode would quarantine are quarantined in the snapshot,
/// with the same reasons. Uses the catalog.load.* fault points.
Result<std::shared_ptr<const CatalogSnapshot>> OpenCatalogSnapshotV3(
    const std::string& path, uint64_t generation = 0);

}  // namespace epfis

#endif  // EPFIS_CATALOG_CATALOG_V3_H_
