// Small associative memories: hardware facility (vi), "a small associative
// memory in which recently-used segment and/or page locations are kept.  If
// it were not for such mechanisms, the cost in extra addressing time ...
// would often be unacceptable."
//
// Fully associative, LRU-replaced, fixed entry count.  Instances model the
// 360/67's 8-entry box, the MULTICS page-location memory, and the relevant
// partition of the B8500's 44-word thin-film store.

#ifndef SRC_MAP_ASSOCIATIVE_MEMORY_H_
#define SRC_MAP_ASSOCIATIVE_MEMORY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/snapshot.h"
#include "src/core/types.h"

namespace dsa {

class AssociativeMemory {
 public:
  // `entries == 0` models a machine without the facility: every lookup
  // misses and stores are dropped.
  explicit AssociativeMemory(std::size_t entries) : entries_(entries) {}

  std::size_t capacity() const { return entries_; }

  // Probes for `key`; refreshes recency on hit.  Defined here because
  // every translation with the facility present makes this call.
  std::optional<std::uint64_t> Lookup(std::uint64_t key, Cycles now) {
    // Keys are unique, so when the slot of the most recent hit or insert
    // holds `key` it is the slot the scan would find.
    std::size_t i = recent_;
    if (i >= slots_.size() || slots_[i].key != key) {
      i = 0;
      while (i < slots_.size() && slots_[i].key != key) {
        ++i;
      }
      if (i == slots_.size()) {
        ++misses_;
        return std::nullopt;
      }
      recent_ = i;
    }
    slots_[i].last_use = now;
    ++hits_;
    return slots_[i].value;
  }

  // Inserts or refreshes a mapping, evicting the least recently used entry
  // when full.
  void Insert(std::uint64_t key, std::uint64_t value, Cycles now);

  // Drops one mapping (page replaced) or all (program switch).
  void Invalidate(std::uint64_t key);
  void InvalidateAll();

  // Checkpoint serialization: slot contents in stored order (order matters —
  // LRU eviction scans linearly and ties break by position) plus the hit
  // counters.  The memory must be constructed with the same capacity.  Loads
  // reject a key held by two slots, which Insert never leaves behind.  The
  // recent-slot hint is not state: it is checked by key before use.
  void SaveState(SnapshotWriter* w) const {
    w->U64(slots_.size());
    for (const Slot& slot : slots_) {
      w->U64(slot.key);
      w->U64(slot.value);
      w->U64(slot.last_use);
    }
    w->U64(hits_);
    w->U64(misses_);
  }
  void LoadState(SnapshotReader* r) {
    const std::uint64_t count = r->Count(entries_);
    std::vector<Slot> slots;
    slots.reserve(count);
    for (std::uint64_t i = 0; i < count && r->ok(); ++i) {
      Slot slot{};
      slot.key = r->U64();
      slot.value = r->U64();
      slot.last_use = r->U64();
      for (const Slot& earlier : slots) {
        if (r->ok() && earlier.key == slot.key) {
          r->Fail(SnapshotErrorKind::kBadValue, "one key in two associative slots");
        }
      }
      slots.push_back(slot);
    }
    const std::uint64_t hits = r->U64();
    const std::uint64_t misses = r->U64();
    if (!r->ok()) {
      return;
    }
    slots_ = std::move(slots);
    hits_ = hits;
    misses_ = misses;
  }

  std::size_t size() const { return slots_.size(); }
  // Calls fn(key, value) for every held mapping, in slot order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& slot : slots_) {
      fn(slot.key, slot.value);
    }
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double HitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
    Cycles last_use;
  };

  std::size_t entries_;
  std::vector<Slot> slots_;
  // Slot of the most recent hit or insert: Lookup's first probe.  Only a
  // hint — Invalidate's swap-with-back may move another key into it, or
  // leave it past the end — so it is always checked before use.
  std::size_t recent_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace dsa

#endif  // SRC_MAP_ASSOCIATIVE_MEMORY_H_
