#include "exec/index_scan.h"

#include "index/btree_iterator.h"
#include "storage/record.h"
#include "storage/slotted_page.h"

namespace epfis {
namespace {

/// Positions an iterator at the first entry satisfying the range's lower
/// bound.
Result<BTreeIterator> SeekToRangeStart(const BTree& index,
                                       const KeyRange& range) {
  if (!range.lo.has_value()) return index.Begin();
  return index.SeekGE(BTree::MinEntryForKey(range.EffectiveLo()));
}

}  // namespace

Result<IndexScanResult> RunIndexScan(const BTree& index,
                                     const TableHeap& heap,
                                     BufferPool* data_pool,
                                     const KeyRange& range,
                                     const SargableFilter* filter,
                                     const IndexScanOptions& options) {
  IndexScanResult result;
  uint64_t fetches_before = data_pool->stats().fetches;
  // One bit per data-disk page: A is counted as bits are first set, so the
  // loop allocates nothing per record.
  std::vector<uint64_t> accessed((data_pool->disk().num_pages() + 63) / 64);

  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, SeekToRangeStart(index, range));
  int64_t hi = range.EffectiveHi();
  while (it.Valid() && it.entry().key <= hi) {
    const IndexEntry& entry = it.entry();
    ++result.entries_examined;
    if (filter == nullptr || filter->Keep(entry)) {
      ++result.records_fetched;
      const PageId page_id = entry.rid.page_id;
      EPFIS_ASSIGN_OR_RETURN(PageGuard guard, data_pool->FetchPage(page_id));
      uint64_t& word = accessed[page_id / 64];
      const uint64_t bit = uint64_t{1} << (page_id % 64);
      result.data_pages_accessed += (word & bit) == 0;
      word |= bit;
      if (options.collect_trace) result.page_trace.push_back(page_id);
      if (options.verify_records) {
        SlottedPage page(const_cast<char*>(guard.data()));
        EPFIS_ASSIGN_OR_RETURN(std::string_view bytes,
                               page.Get(entry.rid.slot));
        EPFIS_RETURN_IF_ERROR(Record::CheckSize(heap.schema(), bytes));
        if (Record::FieldAt(bytes, 0) != entry.key) {
          return Status::Corruption(
              "index entry key does not match stored record at rid " +
              entry.rid.ToString());
        }
      }
    }
    EPFIS_RETURN_IF_ERROR(it.Next());
  }

  result.data_page_fetches = data_pool->stats().fetches - fetches_before;
  return result;
}

Result<std::vector<PageId>> CollectScanTrace(const BTree& index,
                                             const KeyRange& range,
                                             const SargableFilter* filter) {
  std::vector<PageId> trace;
  EPFIS_ASSIGN_OR_RETURN(BTreeIterator it, SeekToRangeStart(index, range));
  int64_t hi = range.EffectiveHi();
  while (it.Valid() && it.entry().key <= hi) {
    if (filter == nullptr || filter->Keep(it.entry())) {
      trace.push_back(it.entry().rid.page_id);
    }
    EPFIS_RETURN_IF_ERROR(it.Next());
  }
  return trace;
}

}  // namespace epfis
