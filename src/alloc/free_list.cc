#include "src/alloc/free_list.h"

#include <algorithm>

#include "src/core/assert.h"

namespace dsa {

namespace {

// Orders holes by start address against a bare address.
bool StartsBefore(const FreeList::Hole& hole, std::uint64_t addr) { return hole.first < addr; }
bool StartsAfter(std::uint64_t addr, const FreeList::Hole& hole) { return addr < hole.first; }

}  // namespace

FreeList::FreeList(WordCount capacity) {
  if (capacity > 0) {
    holes_.emplace_back(0, capacity);
    by_size_.emplace_back(capacity, 0);
    total_free_ = capacity;
  }
}

void FreeList::IndexInsert(SizeKey key) {
  by_size_.insert(std::lower_bound(by_size_.begin(), by_size_.end(), key), key);
}

void FreeList::IndexErase(SizeKey key) {
  const auto it = std::lower_bound(by_size_.begin(), by_size_.end(), key);
  DSA_ASSERT(it != by_size_.end() && *it == key, "size index lost a hole");
  by_size_.erase(it);
}

void FreeList::IndexMove(SizeKey from, SizeKey to) {
  const auto old_pos = std::lower_bound(by_size_.begin(), by_size_.end(), from);
  DSA_ASSERT(old_pos != by_size_.end() && *old_pos == from, "size index lost a hole");
  const auto new_pos = std::lower_bound(by_size_.begin(), by_size_.end(), to);
  if (old_pos < new_pos) {
    // Growing rank: the keys in between slide down one slot.
    std::move(old_pos + 1, new_pos, old_pos);
    *(new_pos - 1) = to;
  } else {
    // Falling (or equal) rank: the keys in between slide up one slot.
    std::move_backward(new_pos, old_pos, old_pos + 1);
    *new_pos = to;
  }
}

void FreeList::Insert(Block hole) {
  DSA_ASSERT(hole.size > 0, "cannot insert an empty hole");
  const std::uint64_t start = hole.addr.value;
  const std::uint64_t end = start + hole.size;

  // The first hole at or after `start`, and the hole before it, if any.
  const auto after = std::lower_bound(holes_.begin(), holes_.end(), start, StartsBefore);
  const auto before = after == holes_.begin() ? holes_.end() : std::prev(after);

  if (before != holes_.end()) {
    DSA_ASSERT(before->first + before->second <= start, "hole overlaps predecessor (double free?)");
  }
  if (after != holes_.end()) {
    DSA_ASSERT(end <= after->first, "hole overlaps successor (double free?)");
  }
  const bool merge_before = before != holes_.end() && before->first + before->second == start;
  const bool merge_after = after != holes_.end() && after->first == end;

  // Coalescing rewrites the surviving neighbour in place.
  if (merge_before) {
    const WordCount merged = before->second + hole.size + (merge_after ? after->second : 0);
    if (merge_after) {
      IndexErase({after->second, after->first});
    }
    IndexMove({before->second, before->first}, {merged, before->first});
    before->second = merged;
    if (merge_after) {
      holes_.erase(after);
    }
  } else if (merge_after) {
    IndexMove({after->second, after->first}, {after->second + hole.size, start});
    after->first = start;
    after->second += hole.size;
  } else {
    holes_.insert(after, Hole{start, hole.size});
    IndexInsert({hole.size, start});
  }
  total_free_ += hole.size;
}

void FreeList::TakeRange(PhysicalAddress addr, WordCount size) {
  DSA_ASSERT(size > 0, "cannot take an empty range");
  const std::uint64_t start = addr.value;
  const std::uint64_t end = start + size;

  auto it = std::upper_bound(holes_.begin(), holes_.end(), start, StartsAfter);
  DSA_ASSERT(it != holes_.begin(), "range not inside any hole");
  --it;
  const std::uint64_t hole_start = it->first;
  const std::uint64_t hole_end = it->first + it->second;
  DSA_ASSERT(hole_start <= start && end <= hole_end, "range not inside a single hole");

  const SizeKey old_key{it->second, hole_start};
  if (hole_start < start) {
    // The low remainder keeps the hole's slot.
    IndexMove(old_key, {start - hole_start, hole_start});
    it->second = start - hole_start;
    if (end < hole_end) {
      holes_.insert(it + 1, Hole{end, hole_end - end});
      IndexInsert({hole_end - end, end});
    }
  } else if (end < hole_end) {
    IndexMove(old_key, {hole_end - end, end});
    *it = Hole{end, hole_end - end};
  } else {
    IndexErase(old_key);
    holes_.erase(it);
  }
  total_free_ -= size;
}

bool FreeList::RangeIsFree(PhysicalAddress addr, WordCount size) const {
  if (size == 0) {
    return true;
  }
  auto it = std::upper_bound(holes_.begin(), holes_.end(), addr.value, StartsAfter);
  if (it == holes_.begin()) {
    return false;
  }
  --it;
  return it->first <= addr.value && addr.value + size <= it->first + it->second;
}

WordCount FreeList::largest_hole() const {
  return by_size_.empty() ? 0 : by_size_.back().first;
}

std::optional<PhysicalAddress> FreeList::SmallestHoleAtLeast(WordCount size) const {
  const auto it = std::lower_bound(by_size_.begin(), by_size_.end(), SizeKey{size, 0});
  if (it == by_size_.end()) {
    return std::nullopt;
  }
  return PhysicalAddress{it->second};
}

std::optional<PhysicalAddress> FreeList::LargestHoleAtLeast(WordCount size) const {
  if (by_size_.empty() || by_size_.back().first < size) {
    return std::nullopt;
  }
  // Lowest-addressed hole of the maximum size.
  const auto it =
      std::lower_bound(by_size_.begin(), by_size_.end(), SizeKey{by_size_.back().first, 0});
  return PhysicalAddress{it->second};
}

std::vector<WordCount> FreeList::HoleSizes() const {
  std::vector<WordCount> sizes;
  sizes.reserve(holes_.size());
  for (const auto& [start, size] : holes_) {
    sizes.push_back(size);
  }
  return sizes;
}

std::vector<Block> FreeList::Holes() const {
  std::vector<Block> holes;
  holes.reserve(holes_.size());
  for (const auto& [start, size] : holes_) {
    holes.push_back(Block{PhysicalAddress{start}, size});
  }
  return holes;
}

}  // namespace dsa
