#include "catalog/stats_catalog.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include "catalog/catalog_v3.h"
#include "util/crc32c.h"
#include "util/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_CATALOG_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace epfis {
namespace {

// v1/v2 text import markers (see the class comment in the header).
constexpr const char* kCatalogHeaderV2 = "[epfis-stats-catalog-v2]";
constexpr const char* kCatalogHeaderPrefix = "[epfis-stats-catalog-v";
constexpr const char* kEntryOpen = "[index]";
constexpr const char* kEntryCloseV1 = "[end]";
constexpr const char* kEntryClosePrefix = "[end crc=";

// Whole-value numeric parses: trailing junk, a sign on an unsigned field,
// an empty value or an out-of-range number is a field error, never a
// silent 0 or a wrapped negative.
template <typename T>
bool ParseNumber(std::string_view value, T* out) {
  auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  return ec == std::errc() && end == value.data() + value.size();
}

// Parses one `key=value` field line into `current`. Returns a non-empty
// error description on failure.
std::string ParseField(const std::string& line, IndexStats* current) {
  size_t eq = line.find('=');
  if (eq == std::string::npos) return "expected key=value";
  std::string key = line.substr(0, eq);
  std::string_view value = std::string_view(line).substr(eq + 1);
  bool ok = true;
  if (key == "name") {
    current->index_name = std::string(value);
  } else if (key == "table_pages") {
    ok = ParseNumber(value, &current->table_pages);
  } else if (key == "table_records") {
    ok = ParseNumber(value, &current->table_records);
  } else if (key == "distinct_keys") {
    ok = ParseNumber(value, &current->distinct_keys);
  } else if (key == "pages_accessed") {
    ok = ParseNumber(value, &current->pages_accessed);
  } else if (key == "b_min") {
    ok = ParseNumber(value, &current->b_min);
  } else if (key == "b_max") {
    ok = ParseNumber(value, &current->b_max);
  } else if (key == "f_min") {
    ok = ParseNumber(value, &current->f_min);
  } else if (key == "clustering") {
    ok = ParseNumber(value, &current->clustering);
  } else if (key == "sample_rate") {
    // Absent in pre-sampling catalogs; the IndexStats default (1.0,
    // exact) then applies.
    ok = ParseNumber(value, &current->sample_rate);
  } else if (key == "sampled_refs") {
    ok = ParseNumber(value, &current->sampled_refs);
  } else if (key == "online_generation") {
    // Online-mode provenance trio: absent in pre-online catalogs, where
    // the IndexStats zero defaults (a batch entry) apply.
    ok = ParseNumber(value, &current->online_generation);
  } else if (key == "window_refs") {
    ok = ParseNumber(value, &current->window_refs);
  } else if (key == "drift_error") {
    ok = ParseNumber(value, &current->drift_error);
  } else if (key == "knots") {
    if (value.empty()) return "";
    std::vector<Knot> knots;
    while (true) {
      size_t comma = value.find(',');
      std::string_view pair = value.substr(0, comma);
      size_t colon = pair.find(':');
      Knot k;
      if (colon == std::string_view::npos ||
          !ParseNumber(pair.substr(0, colon), &k.x) ||
          !ParseNumber(pair.substr(colon + 1), &k.y)) {
        return "bad knot pair";
      }
      knots.push_back(k);
      if (comma == std::string_view::npos) break;
      value.remove_prefix(comma + 1);
    }
    auto curve = PiecewiseLinear::FromKnots(std::move(knots));
    if (!curve.ok()) return std::string(curve.status().message());
    current->fpf = std::move(curve).value();
  } else {
    return "unknown field " + key;
  }
  return ok ? "" : "malformed number in field " + key;
}

}  // namespace

void StatsCatalog::Put(IndexStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantined_.erase(stats.index_name);
  entries_[stats.index_name] = std::move(stats);
}

Result<IndexStats> StatsCatalog::Get(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto q = quarantined_.find(index_name);
  if (q != quarantined_.end()) {
    return Status::Corruption("statistics for index " + index_name +
                              " are quarantined: " + q->second);
  }
  auto it = entries_.find(index_name);
  if (it == entries_.end()) {
    return Status::NotFound("no statistics for index " + index_name);
  }
  return it->second;
}

bool StatsCatalog::Contains(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(index_name) > 0;
}

void StatsCatalog::Remove(const std::string& index_name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(index_name);
  quarantined_.erase(index_name);
}

size_t StatsCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::string> StatsCatalog::IndexNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, stats] : entries_) names.push_back(name);
  return names;
}

bool StatsCatalog::IsQuarantined(const std::string& index_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.count(index_name) > 0;
}

std::vector<std::string> StatsCatalog::QuarantinedNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(quarantined_.size());
  for (const auto& [name, reason] : quarantined_) names.push_back(name);
  return names;
}

Status StatsCatalog::Publish() {
  std::map<std::string, IndexStats> entries;
  std::map<std::string, std::string> quarantined;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries = entries_;
    quarantined = quarantined_;
    generation = ++publish_generation_;
  }
  // Snapshot construction happens outside the lock: a big catalog copy
  // must not stall concurrent Put/Get, and readers are untouched either
  // way (they only see the final swap).
  std::shared_ptr<const CatalogSnapshot> snapshot = CatalogSnapshot::Build(
      std::move(entries), std::move(quarantined), generation);
  // The swap boundary: a fault here fails the publish with the previous
  // snapshot still current — refresh failures must never leave readers
  // with a half-published view.
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.publish.swap"));
  snapshot_.store(std::move(snapshot), std::memory_order_release);
  return Status::Ok();
}

std::shared_ptr<const CatalogSnapshot> StatsCatalog::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

std::string StatsCatalog::SaveToStringV3() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CatalogV3::Encode(entries_);
}

Status StatsCatalog::LoadFromString(const std::string& text) {
  Result<CatalogLoadReport> report = LoadImpl(text, /*recover=*/false);
  return report.ok() ? Status::Ok() : report.status();
}

Result<CatalogLoadReport> StatsCatalog::RecoverFromString(
    const std::string& text) {
  return LoadImpl(text, /*recover=*/true);
}

Result<CatalogLoadReport> StatsCatalog::LoadV3Impl(const std::string& bytes,
                                                   bool recover) {
  EPFIS_ASSIGN_OR_RETURN(
      CatalogV3::Contents contents,
      CatalogV3::Decode(bytes.data(), bytes.size(), recover));
  CatalogLoadReport report;
  report.format_version = 3;
  report.entries_loaded = contents.entries.size();
  report.entries_quarantined = contents.quarantine_reasons.size();
  report.checksum_failures = contents.checksum_failures;
  report.quarantine_reasons = std::move(contents.quarantine_reasons);
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(contents.entries);
  quarantined_ = std::move(contents.quarantined);
  return report;
}

Result<CatalogLoadReport> StatsCatalog::LoadImpl(const std::string& text,
                                                 bool recover) {
  // The binary v3 format announces itself with a magic prefix; everything
  // else goes through the v1/v2 text parser below.
  if (CatalogV3::SniffMagic(text.data(), text.size())) {
    return LoadV3Impl(text, recover);
  }
  std::map<std::string, IndexStats> loaded;
  std::map<std::string, std::string> quarantined;
  CatalogLoadReport report;
  report.format_version = 1;

  std::istringstream is(text);
  std::string line;
  IndexStats current;
  std::string body;        // Accumulated field lines of the open entry.
  bool in_entry = false;
  bool entry_bad = false;  // Recovery: skip to the next [index].
  bool saw_any_line = false;
  int line_no = 0;

  auto strict_error = [&](const std::string& what) {
    return Status::Corruption("stats catalog line " +
                              std::to_string(line_no) + ": " + what);
  };
  // Handles one corrupt entry (or stray region): strict mode fails the
  // load; recovery quarantines and resynchronizes at the next [index].
  Status first_error;
  auto entry_corrupt = [&](const std::string& what, bool checksum) {
    if (!recover) {
      if (first_error.ok()) first_error = strict_error(what);
      return;
    }
    ++report.entries_quarantined;
    if (checksum) ++report.checksum_failures;
    std::string reason =
        "line " + std::to_string(line_no) + ": " + what;
    report.quarantine_reasons.push_back(reason);
    if (!current.index_name.empty()) {
      quarantined[current.index_name] = reason;
    }
    current = IndexStats{};
    entry_bad = true;
    in_entry = false;
  };

  while (first_error.ok() && std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Version header (must be the first non-empty line to count).
    if (!saw_any_line && line.rfind(kCatalogHeaderPrefix, 0) == 0) {
      saw_any_line = true;
      if (line != kCatalogHeaderV2) {
        // A version this build does not know cannot be safely skimmed
        // for "good" entries; fail even in recovery.
        return Status::Corruption("stats catalog: unsupported version " +
                                  line);
      }
      report.format_version = 2;
      continue;
    }
    saw_any_line = true;
    if (line == kEntryOpen) {
      if (in_entry) {
        entry_corrupt("nested [index]", /*checksum=*/false);
        if (!first_error.ok()) break;
      }
      current = IndexStats{};
      body.clear();
      in_entry = true;
      entry_bad = false;
      continue;
    }
    if (entry_bad) continue;  // Resynchronizing after a corrupt entry.
    bool close_v1 = line == kEntryCloseV1;
    bool close_v2 = line.rfind(kEntryClosePrefix, 0) == 0 &&
                    line.size() == std::strlen(kEntryClosePrefix) + 9 &&
                    line.back() == ']';
    if (close_v1 || close_v2) {
      if (!in_entry) {
        entry_corrupt("[end] without [index]", /*checksum=*/false);
        continue;
      }
      if (close_v2) {
        uint32_t stored = static_cast<uint32_t>(std::strtoul(
            line.c_str() + std::strlen(kEntryClosePrefix), nullptr, 16));
        if (stored != Crc32c(body)) {
          entry_corrupt("entry checksum mismatch", /*checksum=*/true);
          continue;
        }
      } else if (report.format_version >= 2) {
        // A v2 file whose entry lost its checksum trailer is a torn
        // write, not a legacy file.
        entry_corrupt("entry missing checksum", /*checksum=*/false);
        continue;
      }
      if (current.index_name.empty()) {
        entry_corrupt("entry without name", /*checksum=*/false);
        continue;
      }
      loaded[current.index_name] = std::move(current);
      ++report.entries_loaded;
      current = IndexStats{};
      in_entry = false;
      continue;
    }
    if (!in_entry) {
      entry_corrupt("field outside [index] block", /*checksum=*/false);
      continue;
    }
    body.append(line);
    body.push_back('\n');
    std::string field_error = ParseField(line, &current);
    if (!field_error.empty()) {
      entry_corrupt(field_error, /*checksum=*/false);
      continue;
    }
  }
  if (!first_error.ok()) return first_error;
  if (in_entry) {
    // A torn tail: the file ends inside an entry.
    if (!recover) return Status::Corruption("stats catalog: unterminated entry");
    ++line_no;
    entry_corrupt("unterminated entry (torn write?)", /*checksum=*/false);
  }

  // An index that appears both good and quarantined (duplicate entries)
  // is distrusted entirely: the copies disagree about integrity and we
  // cannot tell which one the writer meant.
  for (const auto& [name, reason] : quarantined) {
    auto it = loaded.find(name);
    if (it != loaded.end()) {
      loaded.erase(it);
      --report.entries_loaded;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(loaded);
  quarantined_ = std::move(quarantined);
  return report;
}

namespace {

#ifdef EPFIS_CATALOG_POSIX_IO

// Crash-safe byte-image write behind SaveToFileV3: tmp file + fsync +
// rename, catalog.save.* fault points throughout.
Status WriteCatalogFileAtomic(const std::string& path,
                              const std::string& data) {
  const std::string tmp = path + ".tmp";

  // Crash safety: never truncate the destination in place. The new
  // catalog is staged in a tmp file, made durable with fsync, and
  // atomically renamed over the old one — a failure (or injected fault)
  // at any step leaves the previous on-disk catalog intact, and the tmp
  // file is always unlinked on the error paths.
  Status open_fault = FaultPoint("catalog.save.open");
  int fd = -1;
  if (open_fault.ok()) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  if (!open_fault.ok() || fd < 0) {
    return open_fault.ok()
               ? Status::IoError("cannot open " + tmp + " for writing")
               : open_fault;
  }
  auto fail = [&](Status status) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };

  size_t off = 0;
  int eintr_budget = 100;
  while (off < data.size()) {
    uint64_t want = data.size() - off;
    FaultIoOutcome fault = FaultIoPoint("catalog.save.write", &want);
    if (!fault.status.ok()) return fail(fault.status);
    ssize_t n = fault.eintr
                    ? -1
                    : ::write(fd, data.data() + off,
                              static_cast<size_t>(want));
    if (n < 0) {
      if ((fault.eintr || errno == EINTR) && --eintr_budget > 0) continue;
      return fail(Status::IoError("write to " + tmp + " failed"));
    }
    off += static_cast<size_t>(n);
  }

  EPFIS_RETURN_IF_ERROR([&] {
    Status fault = FaultPoint("catalog.save.fsync");
    if (!fault.ok()) return fail(fault);
    if (::fsync(fd) != 0) {
      return fail(Status::IoError("fsync of " + tmp + " failed"));
    }
    if (::close(fd) != 0) {
      fd = -1;
      return fail(Status::IoError("close of " + tmp + " failed"));
    }
    fd = -1;
    return Status::Ok();
  }());

  Status rename_fault = FaultPoint("catalog.save.rename");
  if (!rename_fault.ok()) return fail(rename_fault);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(Status::IoError("rename " + tmp + " -> " + path + " failed"));
  }
  return Status::Ok();
}

#else  // !EPFIS_CATALOG_POSIX_IO

// Portable fallback: still staged through a tmp file and renamed so the
// previous catalog survives a failed write, but without fsync durability.
Status WriteCatalogFileAtomic(const std::string& path,
                              const std::string& data) {
  const std::string tmp = path + ".tmp";
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.save.open"));
  std::ofstream out(tmp, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + tmp + " for writing");
  }
  auto fail = [&](Status status) {
    out.close();
    std::remove(tmp.c_str());
    return status;
  };
  uint64_t want = data.size();
  FaultIoOutcome fault = FaultIoPoint("catalog.save.write", &want);
  if (!fault.status.ok()) return fail(fault.status);
  out << data;
  out.flush();
  if (!out.good()) return fail(Status::IoError("write to " + tmp + " failed"));
  EPFIS_RETURN_IF_ERROR([&] {
    Status fsync_fault = FaultPoint("catalog.save.fsync");
    return fsync_fault.ok() ? Status::Ok() : fail(fsync_fault);
  }());
  out.close();
  Status rename_fault = FaultPoint("catalog.save.rename");
  if (!rename_fault.ok()) return fail(rename_fault);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(Status::IoError("rename " + tmp + " -> " + path + " failed"));
  }
  return Status::Ok();
}

#endif  // EPFIS_CATALOG_POSIX_IO

// Shared file slurp for the strict and recovering loads, with the
// catalog.load.* fault points applied. Binary-safe (v3 images pass
// through it unchanged).
Result<std::string> ReadCatalogFile(const std::string& path) {
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.load.open"));
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path + " for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read of " + path + " failed");
  EPFIS_RETURN_IF_ERROR(FaultPoint("catalog.load.read"));
  return buf.str();
}

}  // namespace

Status StatsCatalog::SaveToFileV3(const std::string& path) const {
  // Serialize before touching the filesystem so a slow disk never holds
  // the catalog mutex.
  return WriteCatalogFileAtomic(path, SaveToStringV3());
}

Status StatsCatalog::LoadFromFile(const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::string text, ReadCatalogFile(path));
  return LoadFromString(text);
}

Result<CatalogLoadReport> StatsCatalog::RecoverFromFile(
    const std::string& path) {
  EPFIS_ASSIGN_OR_RETURN(std::string text, ReadCatalogFile(path));
  return RecoverFromString(text);
}

}  // namespace epfis
