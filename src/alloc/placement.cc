#include "src/alloc/placement.h"

#include <algorithm>

#include "src/core/assert.h"

namespace dsa {

std::optional<PhysicalAddress> FirstFitPlacement::Choose(const FreeList& holes, WordCount size) {
  std::uint64_t examined = 0;
  for (const auto& [start, hole_size] : holes) {
    ++examined;
    if (hole_size >= size) {
      CountSearch(examined);
      return PhysicalAddress{start};
    }
  }
  CountSearch(examined);
  return std::nullopt;
}

std::optional<PhysicalAddress> NextFitPlacement::Choose(const FreeList& holes, WordCount size) {
  std::uint64_t examined = 0;
  // Walk from the rover to the end, then wrap to the beginning.
  auto scan = [&](FreeList::const_iterator from,
                  FreeList::const_iterator to) -> std::optional<PhysicalAddress> {
    for (auto it = from; it != to; ++it) {
      ++examined;
      if (it->second >= size) {
        rover_ = it->first + size;  // advance past this allocation
        return PhysicalAddress{it->first};
      }
    }
    return std::nullopt;
  };
  // The first hole ending past the rover.  Hole ends rise with their starts,
  // so a binary search finds it; the search inspects no hole for fit and
  // counts none.
  const auto start_it =
      std::upper_bound(holes.begin(), holes.end(), rover_,
                       [](std::uint64_t rover, const FreeList::Hole& hole) {
                         return rover < hole.first + hole.second;
                       });
  if (auto found = scan(start_it, holes.end())) {
    CountSearch(examined);
    return found;
  }
  if (auto found = scan(holes.begin(), start_it)) {
    CountSearch(examined);
    return found;
  }
  CountSearch(examined);
  return std::nullopt;
}

void NextFitPlacement::NoteFree(PhysicalAddress addr, WordCount size) {
  (void)addr;
  (void)size;
  // The classic roving pointer is left in place on free; coalescing may have
  // removed the hole it pointed into, which the wrap-around scan tolerates.
}

std::optional<PhysicalAddress> BestFitPlacement::Choose(const FreeList& holes, WordCount size) {
  // One probe of the free list's size index (O(log holes)); ties on size
  // resolve to the lowest address, exactly as the former full scan did.
  CountSearch(1);
  return holes.SmallestHoleAtLeast(size);
}

std::optional<PhysicalAddress> WorstFitPlacement::Choose(const FreeList& holes, WordCount size) {
  // One probe of the size index for the largest hole (O(log holes)).
  CountSearch(1);
  return holes.LargestHoleAtLeast(size);
}

std::optional<PhysicalAddress> TwoEndedPlacement::Choose(const FreeList& holes, WordCount size) {
  std::uint64_t examined = 0;
  if (size >= large_threshold_) {
    // Large: first fit from the bottom of storage.
    for (const auto& [start, hole_size] : holes) {
      ++examined;
      if (hole_size >= size) {
        CountSearch(examined);
        return PhysicalAddress{start};
      }
    }
    CountSearch(examined);
    return std::nullopt;
  }
  // Small: carve from the top of the highest-addressed hole that fits, so
  // small blocks accumulate at the high end of storage.
  for (auto it = holes.end(); it != holes.begin();) {
    --it;
    ++examined;
    if (it->second >= size) {
      CountSearch(examined);
      return PhysicalAddress{it->first + it->second - size};
    }
  }
  CountSearch(examined);
  return std::nullopt;
}

bool IsPlacementPolicyKind(PlacementStrategyKind kind) {
  switch (kind) {
    case PlacementStrategyKind::kFirstFit:
    case PlacementStrategyKind::kNextFit:
    case PlacementStrategyKind::kBestFit:
    case PlacementStrategyKind::kWorstFit:
    case PlacementStrategyKind::kTwoEnded:
      return true;
    case PlacementStrategyKind::kBuddy:
    case PlacementStrategyKind::kRiceChain:
    case PlacementStrategyKind::kSegregatedFit:
    case PlacementStrategyKind::kSlabPool:
      return false;  // whole-allocator designs; see MakeAllocator in allocator_factory.h
  }
  return false;
}

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(PlacementStrategyKind kind,
                                                     WordCount large_threshold) {
  switch (kind) {
    case PlacementStrategyKind::kFirstFit:
      return std::make_unique<FirstFitPlacement>();
    case PlacementStrategyKind::kNextFit:
      return std::make_unique<NextFitPlacement>();
    case PlacementStrategyKind::kBestFit:
      return std::make_unique<BestFitPlacement>();
    case PlacementStrategyKind::kWorstFit:
      return std::make_unique<WorstFitPlacement>();
    case PlacementStrategyKind::kTwoEnded:
      return std::make_unique<TwoEndedPlacement>(large_threshold);
    case PlacementStrategyKind::kBuddy:
    case PlacementStrategyKind::kRiceChain:
    case PlacementStrategyKind::kSegregatedFit:
    case PlacementStrategyKind::kSlabPool:
      break;  // whole-allocator designs; see MakeAllocator in allocator_factory.h
  }
  DSA_ASSERT(false, "MakePlacementPolicy: kind is a whole-allocator design, not a policy");
  return nullptr;
}

}  // namespace dsa
