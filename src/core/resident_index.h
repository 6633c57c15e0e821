// Key -> id index: the one structure behind every "is this page in core, and
// where?" question the simulator asks on a reference, and behind the
// segmented VM's slice -> segment table.
//
// At most `capacity` keys are present at once, so the index is a flat
// open-addressing table sized once to a power of two of at least four times
// that capacity: it never rehashes, never allocates after construction,
// and a probe is one multiply, one shift and usually one slot.  Linear
// probing with backward-shift deletion keeps every chain gap-free without
// tombstones, so a long run of faults cannot degrade later lookups.  The
// load factor stays at or below 1/4 because a fault pays three probe runs
// (the miss, the victim's erase, the insert): at 1/2, primary clustering
// made that as costly as a node-based map.
//
// Keys are arbitrary 64-bit values (the paged-segmented VM packs
// (segment, page) pairs into them, and a trace may name any address), so
// empty slots are marked by an id sentinel rather than a reserved key.
// Iteration order is the slot order, which depends on the hash; callers that
// serialize sort first.

#ifndef SRC_CORE_RESIDENT_INDEX_H_
#define SRC_CORE_RESIDENT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/assert.h"
#include "src/core/types.h"

namespace dsa {

// `Id` is a StrongId over std::uint64_t; its all-ones value is reserved.
template <typename Id>
class FlatIndex {
 public:
  // Holds up to `capacity` keys.
  explicit FlatIndex(std::size_t capacity)
      : max_size_(capacity),
        slots_(std::bit_ceil(std::max<std::size_t>(4 * capacity, 2))),
        mask_(slots_.size() - 1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  std::size_t size() const { return size_; }
  // The most keys the index holds.
  std::size_t max_size() const { return max_size_; }
  // Slots in the table: a power of two, at least four times the capacity.
  std::size_t slot_count() const { return slots_.size(); }

  // The slot a probe for `key` starts at.
  std::size_t HomeSlot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kMultiplier) >> shift_);
  }

  std::optional<Id> Find(std::uint64_t key) const {
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
        return std::nullopt;
      }
      if (slot.key == key) {
        return Id{slot.id};
      }
    }
  }

  bool Contains(std::uint64_t key) const { return Find(key).has_value(); }

  // Adds key -> id; returns false (and changes nothing) when the key is
  // already present.
  bool Insert(std::uint64_t key, Id id) {
    DSA_ASSERT(id.value != kEmpty, "id collides with the empty-slot sentinel");
    std::size_t i = HomeSlot(key);
    for (; slots_[i].id != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return false;
      }
    }
    DSA_ASSERT(size_ < max_size_, "index holds more keys than its capacity");
    slots_[i] = Slot{key, id.value};
    ++size_;
    return true;
  }

  // Removes `key`; returns false when it was not present.
  bool Erase(std::uint64_t key) {
    std::size_t hole = HomeSlot(key);
    while (slots_[hole].id != kEmpty && slots_[hole].key != key) {
      hole = (hole + 1) & mask_;
    }
    if (slots_[hole].id == kEmpty) {
      return false;
    }
    // Backward shift: pull each later chain member whose home does not lie
    // in (hole, j] into the hole, so no lookup ever meets a gap before its
    // key.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].id != kEmpty; j = (j + 1) & mask_) {
      if (((j - HomeSlot(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Calls fn(key, id) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.id != kEmpty) {
        fn(slot.key, Id{slot.id});
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  // 2^64 / golden ratio: Fibonacci hashing keeps the product's top bits,
  // which every key bit reaches, so consecutive keys scatter.
  static constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;

  struct Slot {
    std::uint64_t key{0};
    std::uint64_t id{kEmpty};
  };

  std::size_t max_size_;
  std::size_t size_{0};
  std::vector<Slot> slots_;
  std::size_t mask_;
  int shift_;
};

// Page -> frame residency.
using ResidentIndex = FlatIndex<FrameId>;

}  // namespace dsa

#endif  // SRC_CORE_RESIDENT_INDEX_H_
