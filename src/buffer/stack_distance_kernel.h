#ifndef EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_
#define EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "buffer/sampling.h"
#include "buffer/stack_distance.h"
#include "storage/page.h"
#include "util/flat_hash.h"

namespace epfis {

/// Cache-conscious rewrite of StackDistanceSimulator's hot loop. Produces a
/// bit-identical StackDistanceHistogram on every trace (the property tests
/// assert it); the legacy simulator remains as the reference
/// implementation and for old-vs-new benchmarking.
///
/// Three changes over the legacy loop, each attacking a cache problem:
///
///  1. **Flat last-access table.** `unordered_map<PageId, uint64_t>`
///     chases a bucket pointer per reference; FlatHashMap keeps (page,
///     last access) inline in an open-addressed array, so a lookup is the
///     probe sequence's cache lines and nothing else, and AccessAll
///     prefetches the first probe slot a few references ahead.
///
///  2. **One-sided Fenwick query.** Every live bit sits at some page's
///     last-access time < now, so PrefixSum(now-1) is just the live-bit
///     count — which equals the table size. The legacy two-sided
///     RangeSum(prev, now-1) therefore collapses to
///     `table.size() - PrefixSum(prev-1)`: one O(log n) tree walk per
///     re-reference instead of two (`prev == 0` short-circuits to 0
///     rather than underflowing the prefix bound).
///
///  3. **Timestamp compaction.** The legacy tree is indexed by reference
///     timestamp and grows with the trace; on multi-million-reference
///     traces every walk spans a tree far larger than cache. Live bits
///     are only ever *read* through order statistics, so when `now`
///     reaches the window capacity the kernel remaps the live last-access
///     times onto a dense prefix [0, distinct) in ascending order —
///     distances depend only on the relative order of live positions, so
///     the histogram is unchanged — and restarts the clock at `distinct`.
///     The tree is thereby bounded by O(distinct pages), not O(references),
///     and the doubling Resize of the legacy loop disappears. Each
///     compaction is O(window + distinct·log distinct) and frees at least
///     half the window, so the amortized cost is O(log distinct) per
///     reference.
///
/// On top of the exact machinery sits optional SHARDS-style spatial
/// sampling (see sampling.h): references whose page hash falls above a
/// threshold are dropped before they touch the table or tree, and the
/// exact kernel runs over the surviving subset. In fixed-rate mode the
/// skip path additionally marks every page — sampled or not — in a
/// first-touch bitmap, so the full-trace cold-miss count stays exact and
/// sampled_result() can rescale the sampled distance axis by the
/// *realized* page ratio (P - 1)/(K - 1); the kernel's own histogram
/// stays in the raw sampled domain. In fixed-size adaptive mode no
/// per-page state is allowed (bounding memory is the point), so each
/// distance is scaled by 1/R at emission time instead, and the threshold
/// drops whenever the sampled-page set outgrows `max_pages`, evicting the
/// highest-hash pages; an evicted page can never re-qualify (its hash
/// stays above every later threshold), so the filter remains purely
/// spatial. With sampling inactive (rate 1.0, cap never hit) every code
/// path below is the exact kernel's and the histogram is bit-identical.
class StackDistanceKernel {
 public:
  /// `expected_refs` pre-sizes the timestamp window and the last-access
  /// table (pass TraceSource::size_hint() when known); under sampling the
  /// pre-sizing uses `expected_refs * rate` (and the `max_pages` cap), so
  /// a 1% sample of a huge trace does not allocate full-trace structures.
  /// `window_hint` overrides the initial window capacity; tests pass tiny
  /// values to force compactions on short traces.
  explicit StackDistanceKernel(size_t expected_refs = 1024,
                               size_t window_hint = 0,
                               SamplingOptions sampling = {});

  /// Processes one page reference.
  void Access(PageId page_id);

  /// Processes a whole reference string.
  void AccessAll(const std::vector<PageId>& trace) {
    AccessAll(trace.data(), trace.size());
  }

  /// Processes `count` references from a buffer (chunked streaming; the
  /// main entry point). Resolves references strictly in trace order,
  /// prefetching each upcoming key's first probe slot a few references
  /// ahead; the histogram is independent of how the trace is chunked.
  void AccessAll(const PageId* trace, size_t count);

  /// Number of page fetches a `buffer_size`-slot LRU buffer would have
  /// performed on the trace so far. `buffer_size == 0` returns the total
  /// reference count (no buffer: every access misses).
  uint64_t Fetches(uint64_t buffer_size) const {
    return histogram_.Fetches(buffer_size);
  }

  /// Fetch counts for several buffer sizes (any order).
  std::vector<uint64_t> FetchesForSizes(
      const std::vector<uint64_t>& buffer_sizes) const {
    return histogram_.FetchesForSizes(buffer_sizes);
  }

  /// Number of references processed.
  uint64_t accesses() const { return histogram_.accesses(); }

  /// Number of distinct pages referenced — the paper's A.
  uint64_t distinct_pages() const { return histogram_.distinct_pages(); }

  /// First-touch misses; equals distinct_pages().
  uint64_t cold_misses() const { return histogram_.cold_misses(); }

  /// The accumulated histogram.
  const StackDistanceHistogram& histogram() const { return histogram_; }

  /// Compactions performed so far (observability; tests assert > 0 when
  /// they mean to exercise the compaction path).
  uint64_t compactions() const { return compactions_; }

  /// Compactions that also had to grow the timestamp window (the distinct
  /// page count outpaced the initial sizing).
  uint64_t window_resizes() const { return window_resizes_; }

  /// Probe behavior of the last-access table (lookups / probes / grows);
  /// probes/lookups near 1.0 means the Fibonacci hashing is doing its job.
  FlatHashMap<PageId, uint64_t, kInvalidPageId>::Stats hash_stats() const {
    return last_access_.stats();
  }

  /// What the sampling filter did. With sampling inactive this reports an
  /// exact pass (total == sampled, effective rate 1). Note that under
  /// active sampling the raw accessors above describe the *sampled*
  /// subset (fixed-rate: distances in the raw sampled domain; adaptive:
  /// distances pre-scaled at emission; counts raw either way); full-trace
  /// estimates come from sampled_result().
  SamplingSummary sampling_summary() const {
    SamplingSummary s;
    s.requested_rate = sampling_.rate;
    s.requested_max_pages = sampling_.max_pages;
    s.effective_rate = static_cast<double>(threshold_) /
                       static_cast<double>(kSampleModulus);
    s.total_refs = sampling_.enabled() ? total_refs_ : histogram_.accesses();
    s.sampled_refs = histogram_.accesses();
    s.threshold_drops = threshold_drops_;
    s.evicted_pages = evicted_pages_;
    s.sampled_pages = last_access_.size();
    s.exact_distinct = exact_cold_ ? exact_seen_.distinct() : 0;
    return s;
  }

  /// The full-trace estimate view over this run (copies the histogram).
  /// Fixed-rate runs rescale the sampled distance axis here, by the
  /// realized page ratio (exact distinct − 1) / (sampled distinct − 1).
  SampledStackDistances sampled_result() const {
    SamplingSummary s = sampling_summary();
    if (exact_cold_ && s.active()) {
      double factor = SampledDistanceScale(
          s.exact_distinct, histogram_.cold_misses(), inv_rate_);
      return SampledStackDistances{
          RescaleSampledDistances(histogram_, factor), s};
    }
    return SampledStackDistances{histogram_, s};
  }

  /// Distinct pages currently in the sampled set (== distinct_pages()
  /// when nothing was ever evicted); adaptive mode keeps this at or under
  /// `max_pages`.
  size_t sampled_pages() const { return last_access_.size(); }

 private:
  // Order-statistic structure over the compacted time axis, specialized
  // for the hot loop. Instead of a flat Fenwick tree with one node per
  // timestamp (8 bytes x references in the legacy simulator — megabytes
  // that every O(log n) walk sprays cache misses across), live bits are
  // stored in 64-bit bitmap words with a Fenwick tree over the per-word
  // popcounts. A window of W timestamps costs W/8 bytes of bitmap plus
  // W/16 bytes of tree (uint32 nodes), so with the compaction keeping W
  // at O(distinct pages) the whole structure sits in L2. CountBelow is
  // one masked popcount plus a word-level prefix walk; Set/Clear are one
  // bit flip plus a word-level tree update. Word counts are live-bit
  // counts, bounded by the distinct-page count < 2^32 (PageId is
  // 32-bit), and the -1 updates wrap modularly, so sums stay exact.
  class LiveTree {
   public:
    explicit LiveTree(size_t n) { AssignPrefixOnes(0, n); }

    void Set(size_t i) {
      bits_[i >> 6] |= uint64_t{1} << (i & 63);
      Add(i >> 6, 1);
    }

    void Clear(size_t i) {
      bits_[i >> 6] &= ~(uint64_t{1} << (i & 63));
      Add(i >> 6, static_cast<uint32_t>(-1));
    }

    /// Clear(from) followed by Set(to) for from < to, with the two
    /// Fenwick walks fused: both update paths climb toward the same
    /// power-of-two ancestor, and from the meeting node upward the -1
    /// and +1 cancel exactly, so the fused walk stops there instead of
    /// climbing the whole tree twice. A hot page re-referenced after a
    /// short interval has `from` and `to` in the same or nearby words,
    /// collapsing the dependent 2·O(log W) update chain of the scalar
    /// form to a handful of node touches (often zero). Tree contents
    /// end up bit-identical to the two separate walks.
    void MovePair(size_t from, size_t to) {
      bits_[from >> 6] &= ~(uint64_t{1} << (from & 63));
      bits_[to >> 6] |= uint64_t{1} << (to & 63);
      size_t n = tree_.size();
      size_t p1 = (from >> 6) + 1;
      size_t p2 = (to >> 6) + 1;
      while (p1 != p2) {
        // The smaller index being past the end implies the larger is
        // too — both tails are out of range, nothing left to apply.
        if (p1 < p2) {
          if (p1 >= n) return;
          tree_[p1] += static_cast<uint32_t>(-1);
          p1 += p1 & (~p1 + 1);
        } else {
          if (p2 >= n) return;
          tree_[p2] += 1;
          p2 += p2 & (~p2 + 1);
        }
      }
      // p1 == p2: the rest of the path is shared and cancels.
    }

    /// Number of live bits at positions strictly below `i` (no underflow
    /// edge: i == 0 sums an empty prefix and returns 0).
    uint64_t CountBelow(size_t i) const {
      size_t word = i >> 6;
      uint64_t mask = (uint64_t{1} << (i & 63)) - 1;
      uint32_t sum = static_cast<uint32_t>(
          std::popcount(bits_[word] & mask));
      for (size_t p = word; p > 0; p -= p & (~p + 1)) {
        sum += tree_[p];
      }
      return sum;
    }

    /// Number of live bits in [lo, hi), counted by scanning the bitmap
    /// words directly — O((hi - lo)/64) popcounts over lines that are
    /// hot (the range ends at the current timestamp, where every recent
    /// reference just wrote). The kernel takes this path when the reuse
    /// window is short instead of the Fenwick prefix walk; both compute
    /// the same value. Precondition: lo < hi.
    uint64_t CountRange(size_t lo, size_t hi) const {
      size_t lo_word = lo >> 6;
      size_t hi_word = hi >> 6;
      uint64_t lo_mask = ~((uint64_t{1} << (lo & 63)) - 1);
      uint64_t hi_mask = (uint64_t{1} << (hi & 63)) - 1;
      if (lo_word == hi_word) {
        return static_cast<uint64_t>(
            std::popcount(bits_[lo_word] & lo_mask & hi_mask));
      }
      uint64_t sum =
          static_cast<uint64_t>(std::popcount(bits_[lo_word] & lo_mask));
      for (size_t w = lo_word + 1; w < hi_word; ++w) {
        sum += static_cast<uint64_t>(std::popcount(bits_[w]));
      }
      sum += static_cast<uint64_t>(std::popcount(bits_[hi_word] & hi_mask));
      return sum;
    }

    /// Reinitializes to `n` positions with [0, ones) live, in O(n / 64).
    void AssignPrefixOnes(size_t ones, size_t n) {
      size_t words = (n >> 6) + 1;
      bits_.assign(words, 0);
      tree_.assign(words + 1, 0);
      for (size_t i = 0; i < ones >> 6; ++i) bits_[i] = ~uint64_t{0};
      if (ones & 63) bits_[ones >> 6] = (uint64_t{1} << (ones & 63)) - 1;
      for (size_t i = 1; i <= words; ++i) {
        tree_[i] += static_cast<uint32_t>(std::popcount(bits_[i - 1]));
        size_t parent = i + (i & (~i + 1));
        if (parent <= words) tree_[parent] += tree_[i];
      }
    }

   private:
    // Fenwick point update at `word` (1-based internally).
    void Add(size_t word, uint32_t delta) {
      for (size_t p = word + 1; p < tree_.size(); p += p & (~p + 1)) {
        tree_[p] += delta;
      }
    }

    std::vector<uint64_t> bits_;  // Live bits.
    std::vector<uint32_t> tree_;  // Word popcounts.
  };

  void Compact();

  // One filtered reference: the exact per-reference path, plus scaled
  // emission and the adaptive cap. Callers have already counted the
  // reference and applied the hash filter when sampling is enabled.
  void AccessSampled(PageId page_id);

  // Run over references that already passed the filter (or an unfiltered
  // trace): rolling probe-slot prefetch ahead of in-order resolution.
  void AccessRun(const PageId* refs, size_t count);

  // Drops the threshold to the largest sample hash present and evicts
  // the pages holding it, until the set fits `max_pages` again.
  void EvictOverflow();

  uint64_t now_ = 0;   // Next timestamp on the (compacted) time axis.
  size_t window_ = 0;  // Fenwick capacity; now_ < window_ between accesses.
  LiveTree live_;
  FlatHashMap<PageId, uint64_t, kInvalidPageId> last_access_;
  StackDistanceHistogram histogram_;
  uint64_t compactions_ = 0;
  uint64_t window_resizes_ = 0;
  // Scratch buffers reused across compactions.
  std::vector<uint64_t> sorted_positions_;
  std::vector<uint64_t> remap_;

  // Sampling state. threshold_/inv_rate_ are fixed in fixed-rate mode and
  // only ever decrease/increase (respectively) in adaptive mode.
  SamplingOptions sampling_;
  uint64_t threshold_ = kSampleModulus;
  double inv_rate_ = 1.0;  // kSampleModulus / threshold_.
  // Fixed-rate mode (rate < 1, no cap): cold misses are tracked exactly
  // for every page via the first-touch bitmap, and distances stay in the
  // raw sampled domain until sampled_result() rescales them.
  bool exact_cold_ = false;
  PageSeenSet exact_seen_;
  uint64_t total_refs_ = 0;  // All references seen; bumped only when
                             // sampling is enabled (else == accesses()).
  uint64_t threshold_drops_ = 0;
  uint64_t evicted_pages_ = 0;
  // Max-heap of (sample hash, page) for the pages currently in the
  // sampled set; adaptive mode pops it to find eviction thresholds.
  std::vector<std::pair<uint64_t, PageId>> sample_heap_;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_STACK_DISTANCE_KERNEL_H_
