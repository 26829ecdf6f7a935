#ifndef EPFIS_UTIL_FLAT_HASH_H_
#define EPFIS_UTIL_FLAT_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

// Mirrors the build-wide gate from obs/metrics.h without depending on it:
// this header sits below the obs layer.
#ifndef EPFIS_METRICS_ENABLED
#define EPFIS_METRICS_ENABLED 1
#endif

namespace epfis {

/// Open-addressing hash map tuned for the Mattson stack-distance hot loop:
/// flat slot array (no per-node allocation, no pointer chasing), power-of-two
/// capacity with Fibonacci hashing, linear probing, and no tombstones —
/// Erase uses backward-shift deletion, so probe sequences stay as short as
/// if the erased keys had never been inserted (the adaptive sampling mode
/// evicts pages; everything else only inserts and updates).
///
/// `kEmptyKey` marks unoccupied slots and must never be inserted (the
/// simulators use kInvalidPageId, which no trace contains). Values are
/// stored inline next to their key, so a lookup touches exactly the cache
/// lines of its probe sequence, and `Prefetch` lets a batched caller pull
/// the first probe slot of an upcoming key into cache ahead of time.
///
/// Grows at a 0.7 load factor by doubling and reinserting; pointers
/// returned by Find/TryEmplace are invalidated by any later insert.
///
/// When the caller knows how many keys are coming (the kernel passes the
/// adaptive sampling cap, an exact bound), `SetGrowthHint` lets a
/// load-triggered rehash quadruple instead of double while the hint says
/// more growth is imminent — one rehash where two would have run. Hints
/// should be bounds the caller trusts: an overshooting hint buys capacity
/// nothing will fill, which any consumer that scans the slot array pays
/// for on every pass.
template <typename Key, typename Value, Key kEmptyKey>
class FlatHashMap {
 public:
  explicit FlatHashMap(size_t expected = 0) { Rebuild(CapacityFor(expected)); }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// Probe-behavior instrumentation. Counts are plain members bumped in
  /// the lookup loops (no atomics: a map has one owner); with the metrics
  /// layer compiled out the increments vanish and stats() reads zeros.
  struct Stats {
    uint64_t lookups = 0;  ///< Find / TryEmplace calls.
    uint64_t probes = 0;   ///< Slots inspected across all lookups.
    uint64_t grows = 0;    ///< Load-triggered rehashes (initial build not counted).
  };
  Stats stats() const { return stats_; }

  /// Ensures `n` entries fit without another rehash.
  void Reserve(size_t n) {
    size_t want = CapacityFor(n);
    if (want > slots_.size()) {
      Rebuild(want);
#if EPFIS_METRICS_ENABLED
      ++stats_.grows;
#endif
    }
  }

  /// Expected eventual entry count. Purely advisory: growth still only
  /// happens when the load factor demands it, but each load-triggered
  /// rehash jumps as far toward the hint as a doubling schedule would
  /// have reached in two steps. 0 (the default) restores plain doubling.
  void SetGrowthHint(size_t n) { growth_hint_ = n; }

  /// Pointer to the value for `key`, or nullptr if absent.
  Value* Find(Key key) {
    size_t i = IndexFor(key);
#if EPFIS_METRICS_ENABLED
    ++stats_.lookups;
#endif
    for (;;) {
#if EPFIS_METRICS_ENABLED
      ++stats_.probes;
#endif
      Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  const Value* Find(Key key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  /// Inserts (key, value) if `key` is absent. Returns the slot's value
  /// pointer and whether an insert happened (the existing value is left
  /// untouched on a hit, like std::unordered_map::try_emplace).
  std::pair<Value*, bool> TryEmplace(Key key, Value value) {
    if ((size_ + 1) * 10 > slots_.size() * 7) {
      size_t next = slots_.size() * 2;
      // The hint says another doubling is coming right behind this one:
      // take both at once and skip a full reinsertion pass.
      if (CapacityFor(growth_hint_) >= next * 2) next *= 2;
      Rebuild(next);
#if EPFIS_METRICS_ENABLED
      ++stats_.grows;
#endif
    }
    size_t i = IndexFor(key);
#if EPFIS_METRICS_ENABLED
    ++stats_.lookups;
#endif
    for (;;) {
#if EPFIS_METRICS_ENABLED
      ++stats_.probes;
#endif
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kEmptyKey) {
        slot.key = key;
        slot.value = value;
        ++size_;
        return {&slot.value, true};
      }
      i = (i + 1) & mask_;
    }
  }

  /// Removes `key` if present; returns whether it was. Backward-shift
  /// deletion: later entries of the probe cluster slide back over the
  /// hole when their home slot permits, so no tombstone is left and
  /// lookups never scan dead slots.
  bool Erase(Key key) {
    size_t i = IndexFor(key);
#if EPFIS_METRICS_ENABLED
    ++stats_.lookups;
#endif
    for (;;) {
#if EPFIS_METRICS_ENABLED
      ++stats_.probes;
#endif
      if (slots_[i].key == key) break;
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
    size_t hole = i;
    for (size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      if (slots_[j].key == kEmptyKey) break;
      // Slide j back iff its home slot is not in the (hole, j] cyclic
      // span — i.e. the entry's probe sequence passes through the hole.
      size_t home = IndexFor(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  /// Hints the CPU to load the first probe slot of `key`'s sequence.
  void Prefetch(Key key) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[IndexFor(key)]);
#else
    (void)key;
#endif
  }

  /// Calls fn(key, value) for every occupied slot, in unspecified order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

  /// Mutable variant: fn(key, Value&). Keys must not be changed.
  template <typename Fn>
  void ForEachMutable(Fn fn) {
    for (Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };

  // Fibonacci (multiplicative) hashing; the high bits carry the entropy,
  // so shift them down to index the power-of-two slot array.
  size_t IndexFor(Key key) const {
    uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h >> shift_) & mask_;
  }

  static size_t CapacityFor(size_t expected) {
    size_t cap = 16;
    // Keep the steady-state load under 0.7 for the expected size.
    while (expected * 10 > cap * 7) cap *= 2;
    return cap;
  }

  // Rehash prefetch distance: the reinsertion loop walks the old array
  // sequentially (hardware-prefetched) but lands each key at a random
  // new-array slot — the same cache problem the lookup path has, handled
  // the same way: compute the new home a few old slots ahead and prefetch
  // it, so the landing line is resident by the time the insert scans it.
  static constexpr size_t kRebuildPrefetchAhead = 8;

  void Rebuild(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{kEmptyKey, Value{}});
    mask_ = new_capacity - 1;
    shift_ = 64;
    for (size_t c = new_capacity; c > 1; c >>= 1) --shift_;
    for (size_t j = 0; j < old.size(); ++j) {
#if defined(__GNUC__) || defined(__clang__)
      if (size_t a = j + kRebuildPrefetchAhead; a < old.size()) {
        if (old[a].key != kEmptyKey) {
          __builtin_prefetch(&slots_[IndexFor(old[a].key)], 1);
        }
      }
#endif
      const Slot& slot = old[j];
      if (slot.key == kEmptyKey) continue;
      size_t i = IndexFor(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  size_t growth_hint_ = 0;
  Stats stats_;
};

}  // namespace epfis

#endif  // EPFIS_UTIL_FLAT_HASH_H_
