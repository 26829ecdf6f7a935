// Catalog images the library no longer writes (or never writes on
// purpose), built for the reader tests and the fuzz seed corpus.
//
//  * V2CatalogText renders a catalog in the v2 checksummed text format.
//    The library writes only v3; v1/v2 text are read-only imports, so the
//    text-reader tests (checksums, torn entries, quarantine) build their
//    input here.
//  * NonIncreasingKnotsV3Image encodes one entry whose FPF knots repeat
//    an x coordinate, with a valid entry CRC: integrity checks pass, and
//    only the curve-shape verdict can reject it.
#ifndef EPFIS_TESTS_CATALOG_CATALOG_FIXTURES_H_
#define EPFIS_TESTS_CATALOG_CATALOG_FIXTURES_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "catalog/catalog_v3.h"
#include "catalog/stats_catalog.h"
#include "epfis/index_stats.h"
#include "util/crc32c.h"

namespace epfis {

inline std::string V2CatalogText(const StatsCatalog& catalog) {
  auto fmt = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "[epfis-stats-catalog-v2]\n";
  for (const std::string& name : catalog.IndexNames()) {
    IndexStats s = catalog.Get(name).value();
    // The CRC32C covers exactly the field lines (with their newlines),
    // not the [index]/[end] frame.
    std::ostringstream body;
    body << "name=" << name << '\n'
         << "table_pages=" << s.table_pages << '\n'
         << "table_records=" << s.table_records << '\n'
         << "distinct_keys=" << s.distinct_keys << '\n'
         << "pages_accessed=" << s.pages_accessed << '\n'
         << "b_min=" << s.b_min << '\n'
         << "b_max=" << s.b_max << '\n'
         << "f_min=" << s.f_min << '\n'
         << "clustering=" << fmt(s.clustering) << '\n'
         << "sample_rate=" << fmt(s.sample_rate) << '\n'
         << "sampled_refs=" << s.sampled_refs << '\n'
         << "online_generation=" << s.online_generation << '\n'
         << "window_refs=" << s.window_refs << '\n'
         << "drift_error=" << fmt(s.drift_error) << '\n'
         << "knots=";
    if (s.fpf.has_value()) {
      const char* sep = "";
      for (const Knot& k : s.fpf->knots()) {
        body << sep << fmt(k.x) << ':' << fmt(k.y);
        sep = ",";
      }
    }
    body << '\n';
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32c(body.str()));
    os << "[index]\n" << body.str() << "[end crc=" << crc_hex << "]\n";
  }
  return os.str();
}

// `stats` must carry an FPF curve (>= 2 knots). Offsets follow the v3
// layout in catalog_v3.h: a 64-byte header, then one 40-byte index record
// (knots_offset at +24, entry_crc at +32), 104 bytes of fixed fields.
inline std::string NonIncreasingKnotsV3Image(const IndexStats& stats) {
  std::string image = CatalogV3::Encode({{stats.index_name, stats}});
  const size_t record = 64;
  uint64_t fixed_offset;
  uint64_t knots_offset;
  std::memcpy(&fixed_offset, image.data() + record + 16, 8);
  std::memcpy(&knots_offset, image.data() + record + 24, 8);
  // knot[1].x = knot[0].x.
  std::memcpy(image.data() + knots_offset + 16, image.data() + knots_offset,
              8);
  uint32_t crc = Crc32c(image.data() + fixed_offset, 104);
  crc = Crc32c(image.data() + knots_offset,
               stats.fpf->knots().size() * sizeof(Knot), crc);
  crc = Crc32c(stats.index_name, crc);
  std::memcpy(image.data() + record + 32, &crc, 4);
  return image;
}

}  // namespace epfis

#endif  // EPFIS_TESTS_CATALOG_CATALOG_FIXTURES_H_
