#ifndef EPFIS_STORAGE_RID_H_
#define EPFIS_STORAGE_RID_H_

#include <cstdint>
#include <string>

#include "storage/page.h"

namespace epfis {

/// Record identifier: physical address of a record as (page, slot).
/// The index stores RIDs in its leaves; the order of RIDs relative to key
/// order is exactly the "clustering" the paper's model is about.
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool IsValid() const { return page_id != kInvalidPageId; }

  std::string ToString() const {
    // Appended piecewise: GCC 12 misreports `"(" + std::to_string(...)`
    // under -Wrestrict.
    std::string out = "(";
    out += std::to_string(page_id);
    out += ',';
    out += std::to_string(slot);
    out += ')';
    return out;
  }

  friend bool operator==(const Rid& a, const Rid& b) {
    return a.page_id == b.page_id && a.slot == b.slot;
  }
  friend bool operator<(const Rid& a, const Rid& b) {
    if (a.page_id != b.page_id) return a.page_id < b.page_id;
    return a.slot < b.slot;
  }
};

}  // namespace epfis

#endif  // EPFIS_STORAGE_RID_H_
