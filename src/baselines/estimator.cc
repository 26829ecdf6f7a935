#include "baselines/estimator.h"

#include "buffer/stack_distance_kernel.h"

namespace epfis {

Result<BaselineTraceStats> CollectBaselineTraceStats(
    const std::vector<KeyPageRef>& refs, uint64_t table_pages) {
  if (refs.empty()) {
    return Status::InvalidArgument("baseline stats: empty index trace");
  }
  BaselineTraceStats stats;
  stats.table_pages = table_pages;
  stats.table_records = refs.size();

  // One Mattson pass answers both buffer sizes.
  StackDistanceKernel lru(refs.size());

  // Per-key first/last page for DC's cluster counter.
  int64_t current_key = refs.front().key;
  PageId first_page = refs.front().page;
  PageId last_page = refs.front().page;
  PageId prev_key_last_page = 0;
  bool have_prev_key = false;

  auto close_key = [&]() {
    // CC increments when this key's first page is the same or a higher
    // page than the previous key's last page.
    if (!have_prev_key || first_page >= prev_key_last_page) {
      ++stats.cluster_counter;
    }
    prev_key_last_page = last_page;
    have_prev_key = true;
    ++stats.distinct_keys;
  };

  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0 && refs[i].key < refs[i - 1].key) {
      return Status::InvalidArgument(
          "baseline stats: trace not in key order");
    }
    if (refs[i].key != current_key) {
      close_key();
      current_key = refs[i].key;
      first_page = refs[i].page;
    }
    last_page = refs[i].page;
    lru.Access(refs[i].page);
  }
  close_key();

  stats.j1 = lru.Fetches(1);
  stats.j3 = lru.Fetches(3);
  return stats;
}

}  // namespace epfis
