// Page -> frame residency index: the one structure behind every "is this
// page in core, and where?" question the simulator asks on a reference.
//
// At most `frames` pages are resident at once, so the index is a flat
// open-addressing table sized once to a power of two of at least four times
// the frame count: it never rehashes, never allocates after construction,
// and a probe is one multiply, one shift and usually one slot.  Linear
// probing with backward-shift deletion keeps every chain gap-free without
// tombstones, so a long run of faults cannot degrade later lookups.  The
// load factor stays at or below 1/4 because a fault pays three probe runs
// (the miss, the victim's erase, the insert): at 1/2, primary clustering
// made that as costly as a node-based map.
//
// Page ids are arbitrary 64-bit keys (the paged-segmented VM packs
// (segment, page) pairs into them), so empty slots are marked by a frame
// sentinel rather than a reserved page value.  Iteration order is the slot
// order, which depends on the hash; callers that serialize sort first.

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

class ResidentIndex {
 public:
  // Holds up to `frames` pages.
  explicit ResidentIndex(std::size_t frames)
      : max_size_(frames),
        slots_(std::bit_ceil(std::max<std::size_t>(4 * frames, 2))),
        mask_(slots_.size() - 1),
        shift_(64 - std::countr_zero(slots_.size())) {}

  std::size_t size() const { return size_; }
  // Slots in the table: a power of two, at least four times the frame count.
  std::size_t slot_count() const { return slots_.size(); }

  // The slot a probe for `page` starts at.
  std::size_t HomeSlot(std::uint64_t page) const {
    return static_cast<std::size_t>((page * kMultiplier) >> shift_);
  }

  std::optional<FrameId> Find(std::uint64_t page) const {
    for (std::size_t i = HomeSlot(page);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.frame == kEmpty) {
        return std::nullopt;
      }
      if (slot.page == page) {
        return FrameId{slot.frame};
      }
    }
  }

  bool Contains(std::uint64_t page) const { return Find(page).has_value(); }

  // Adds page -> frame; returns false (and changes nothing) when the page is
  // already present.
  bool Insert(std::uint64_t page, FrameId frame) {
    DSA_ASSERT(frame.value != kEmpty, "frame id collides with the empty-slot sentinel");
    std::size_t i = HomeSlot(page);
    for (; slots_[i].frame != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].page == page) {
        return false;
      }
    }
    DSA_ASSERT(size_ < max_size_, "residency index holds more pages than frames");
    slots_[i] = Slot{page, frame.value};
    ++size_;
    return true;
  }

  // Removes `page`; returns false when it was not present.
  bool Erase(std::uint64_t page) {
    std::size_t hole = HomeSlot(page);
    while (slots_[hole].frame != kEmpty && slots_[hole].page != page) {
      hole = (hole + 1) & mask_;
    }
    if (slots_[hole].frame == kEmpty) {
      return false;
    }
    // Backward shift: pull each later chain member whose home does not lie
    // in (hole, j] into the hole, so no lookup ever meets a gap before its
    // key.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].frame != kEmpty; j = (j + 1) & mask_) {
      if (((j - HomeSlot(slots_[j].page)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Calls fn(page, frame) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.frame != kEmpty) {
        fn(slot.page, FrameId{slot.frame});
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  // 2^64 / golden ratio: Fibonacci hashing keeps the product's top bits,
  // which every key bit reaches, so consecutive page ids scatter.
  static constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ULL;

  struct Slot {
    std::uint64_t page{0};
    std::uint64_t frame{kEmpty};
  };

  std::size_t max_size_;
  std::size_t size_{0};
  std::vector<Slot> slots_;
  std::size_t mask_;
  int shift_;
};

}  // namespace dsa

#endif  // SRC_CORE_RESIDENT_INDEX_H_
