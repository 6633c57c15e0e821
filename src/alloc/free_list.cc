#include "src/alloc/free_list.h"

#include <algorithm>

#include "src/core/assert.h"

namespace dsa {

FreeList::FreeList(WordCount capacity) {
  if (capacity > 0) {
    holes_.emplace(0, capacity);
    by_size_.emplace(capacity, 0);
    total_free_ = capacity;
  }
}

void FreeList::Insert(Block hole) {
  DSA_ASSERT(hole.size > 0, "cannot insert an empty hole");
  const std::uint64_t start = hole.addr.value;
  const std::uint64_t end = start + hole.size;

  // The first hole at or after `start`.
  auto after = holes_.lower_bound(start);
  // The hole before it, if any.
  auto before = after == holes_.begin() ? holes_.end() : std::prev(after);

  if (before != holes_.end()) {
    DSA_ASSERT(before->first + before->second <= start, "hole overlaps predecessor (double free?)");
  }
  if (after != holes_.end()) {
    DSA_ASSERT(end <= after->first, "hole overlaps successor (double free?)");
  }

  std::uint64_t new_start = start;
  std::uint64_t new_end = end;
  if (before != holes_.end() && before->first + before->second == start) {
    new_start = before->first;
    by_size_.erase({before->second, before->first});
    holes_.erase(before);
  }
  if (after != holes_.end() && after->first == end) {
    new_end = after->first + after->second;
    by_size_.erase({after->second, after->first});
    holes_.erase(after);
  }
  holes_.emplace(new_start, new_end - new_start);
  by_size_.emplace(new_end - new_start, new_start);
  total_free_ += hole.size;
}

void FreeList::TakeRange(PhysicalAddress addr, WordCount size) {
  DSA_ASSERT(size > 0, "cannot take an empty range");
  const std::uint64_t start = addr.value;
  const std::uint64_t end = start + size;

  auto it = holes_.upper_bound(start);
  DSA_ASSERT(it != holes_.begin(), "range not inside any hole");
  --it;
  const std::uint64_t hole_start = it->first;
  const std::uint64_t hole_end = it->first + it->second;
  DSA_ASSERT(hole_start <= start && end <= hole_end, "range not inside a single hole");

  by_size_.erase({it->second, it->first});
  holes_.erase(it);
  if (hole_start < start) {
    holes_.emplace(hole_start, start - hole_start);
    by_size_.emplace(start - hole_start, hole_start);
  }
  if (end < hole_end) {
    holes_.emplace(end, hole_end - end);
    by_size_.emplace(hole_end - end, end);
  }
  total_free_ -= size;
}

bool FreeList::RangeIsFree(PhysicalAddress addr, WordCount size) const {
  if (size == 0) {
    return true;
  }
  auto it = holes_.upper_bound(addr.value);
  if (it == holes_.begin()) {
    return false;
  }
  --it;
  return it->first <= addr.value && addr.value + size <= it->first + it->second;
}

WordCount FreeList::largest_hole() const {
  return by_size_.empty() ? 0 : by_size_.rbegin()->first;
}

std::optional<PhysicalAddress> FreeList::SmallestHoleAtLeast(WordCount size) const {
  const auto it = by_size_.lower_bound({size, 0});
  if (it == by_size_.end()) {
    return std::nullopt;
  }
  return PhysicalAddress{it->second};
}

std::optional<PhysicalAddress> FreeList::LargestHoleAtLeast(WordCount size) const {
  if (by_size_.empty() || by_size_.rbegin()->first < size) {
    return std::nullopt;
  }
  // Lowest-addressed hole of the maximum size.
  const auto it = by_size_.lower_bound({by_size_.rbegin()->first, 0});
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
