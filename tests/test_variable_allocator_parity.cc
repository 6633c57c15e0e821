// Parity of VariableAllocator (flat hole vectors, boundary size tags) with a
// std::map reference model kept here: the holes and the live blocks each in
// an address-ordered map, every placement policy a plain scan over the map.
// Under seeded allocate/free/relocate streams, for all five placement
// policies, the two must agree on every returned address, the hole
// inventory, the live blocks, the holes examined and the charged cycles.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "src/alloc/cost.h"
#include "src/alloc/variable_allocator.h"
#include "src/core/rng.h"

namespace dsa {
namespace {

constexpr WordCount kLargeThreshold = 24;  // two-ended: large requests from the bottom

class MapAllocatorModel {
 public:
  MapAllocatorModel(WordCount capacity, PlacementStrategyKind kind) : kind_(kind) {
    holes_.emplace(0, capacity);
  }

  std::optional<PhysicalAddress> Allocate(WordCount size) {
    std::uint64_t examined = 0;
    const std::optional<std::uint64_t> addr = Choose(size, &examined);
    holes_examined_ += examined;
    const bool indexed =
        kind_ == PlacementStrategyKind::kBestFit || kind_ == PlacementStrategyKind::kWorstFit;
    alloc_cycles_ +=
        indexed ? alloc_cost::TreeDescent(holes_.size()) : examined * alloc_cost::kProbe;
    if (!addr.has_value()) {
      return std::nullopt;
    }
    Take(*addr, size);
    alloc_cycles_ += alloc_cost::kCarve + alloc_cost::TreeDescent(holes_.size());
    live_.emplace(*addr, size);
    return PhysicalAddress{*addr};
  }

  void Free(std::uint64_t addr) {
    const auto it = live_.find(addr);
    ASSERT_NE(it, live_.end());
    const std::size_t before = holes_.size();
    Give(addr, it->second);
    live_.erase(it);
    free_cycles_ += alloc_cost::TreeDescent(holes_.size()) +
                    (before + 1 - holes_.size()) * alloc_cost::kMerge;
  }

  void Relocate(std::uint64_t from, std::uint64_t to) {
    const WordCount size = live_.at(from);
    live_.erase(from);
    Give(from, size);
    Take(to, size);
    live_.emplace(to, size);
  }

  // The holes as they would be with the block at `addr` freed.
  std::map<std::uint64_t, WordCount> HolesWithout(std::uint64_t addr) const {
    MapAllocatorModel copy = *this;
    copy.Give(addr, live_.at(addr));
    return copy.holes_;
  }

  static std::vector<Block> Blocks(const std::map<std::uint64_t, WordCount>& m) {
    std::vector<Block> blocks;
    for (const auto& [start, size] : m) {
      blocks.push_back(Block{PhysicalAddress{start}, size});
    }
    return blocks;
  }

  const std::map<std::uint64_t, WordCount>& holes() const { return holes_; }
  const std::map<std::uint64_t, WordCount>& live() const { return live_; }
  std::uint64_t holes_examined() const { return holes_examined_; }
  Cycles alloc_cycles() const { return alloc_cycles_; }
  Cycles free_cycles() const { return free_cycles_; }

 private:
  std::optional<std::uint64_t> Choose(WordCount size, std::uint64_t* examined) {
    switch (kind_) {
      case PlacementStrategyKind::kFirstFit:
        return FirstFitFrom(holes_.begin(), holes_.end(), size, examined);
      case PlacementStrategyKind::kNextFit: {
        auto from = holes_.begin();
        while (from != holes_.end() && from->first + from->second <= rover_) {
          ++from;
        }
        std::optional<std::uint64_t> found = FirstFitFrom(from, holes_.end(), size, examined);
        if (!found.has_value()) {
          found = FirstFitFrom(holes_.begin(), from, size, examined);
        }
        if (found.has_value()) {
          rover_ = *found + size;
        }
        return found;
      }
      case PlacementStrategyKind::kBestFit:
      case PlacementStrategyKind::kWorstFit: {
        *examined = 1;
        std::optional<std::pair<std::uint64_t, WordCount>> pick;
        for (const auto& [start, hole_size] : holes_) {
          if (kind_ == PlacementStrategyKind::kBestFit
                  ? hole_size >= size && (!pick || hole_size < pick->second)
                  : !pick || hole_size > pick->second) {
            pick = std::pair{start, hole_size};
          }
        }
        if (!pick || pick->second < size) {
          return std::nullopt;
        }
        return pick->first;
      }
      case PlacementStrategyKind::kTwoEnded:
        if (size >= kLargeThreshold) {
          return FirstFitFrom(holes_.begin(), holes_.end(), size, examined);
        }
        for (auto it = holes_.rbegin(); it != holes_.rend(); ++it) {
          ++*examined;
          if (it->second >= size) {
            return it->first + it->second - size;
          }
        }
        return std::nullopt;
      default:
        ADD_FAILURE() << "not a placement policy";
        return std::nullopt;
    }
  }

  static std::optional<std::uint64_t> FirstFitFrom(
      std::map<std::uint64_t, WordCount>::const_iterator from,
      std::map<std::uint64_t, WordCount>::const_iterator to, WordCount size,
      std::uint64_t* examined) {
    for (auto it = from; it != to; ++it) {
      ++*examined;
      if (it->second >= size) {
        return it->first;
      }
    }
    return std::nullopt;
  }

  void Take(std::uint64_t addr, WordCount size) {
    auto it = std::prev(holes_.upper_bound(addr));
    const std::uint64_t start = it->first;
    const std::uint64_t end = it->first + it->second;
    ASSERT_LE(addr + size, end);
    holes_.erase(it);
    if (start < addr) {
      holes_.emplace(start, addr - start);
    }
    if (addr + size < end) {
      holes_.emplace(addr + size, end - addr - size);
    }
  }

  void Give(std::uint64_t addr, WordCount size) {
    std::uint64_t start = addr;
    std::uint64_t end = addr + size;
    const auto after = holes_.lower_bound(addr);
    if (after != holes_.begin()) {
      const auto before = std::prev(after);
      if (before->first + before->second == start) {
        start = before->first;
        holes_.erase(before);
      }
    }
    if (const auto next = holes_.find(end); next != holes_.end()) {
      end += next->second;
      holes_.erase(next);
    }
    holes_.emplace(start, end - start);
  }

  PlacementStrategyKind kind_;
  std::map<std::uint64_t, WordCount> holes_;
  std::map<std::uint64_t, WordCount> live_;
  std::uint64_t rover_{0};
  std::uint64_t holes_examined_{0};
  Cycles alloc_cycles_{0};
  Cycles free_cycles_{0};
};

void ExpectSameState(const VariableAllocator& alloc, const MapAllocatorModel& model) {
  ASSERT_EQ(alloc.free_list().Holes(), MapAllocatorModel::Blocks(model.holes()));
  ASSERT_EQ(alloc.LiveBlocks(), MapAllocatorModel::Blocks(model.live()));
  for (const auto& [start, size] : model.live()) {
    ASSERT_EQ(alloc.LiveBlockSize(PhysicalAddress{start}), size);
  }
  ASSERT_EQ(alloc.policy().holes_examined(), model.holes_examined());
  ASSERT_EQ(alloc.stats().alloc_cycles, model.alloc_cycles());
  ASSERT_EQ(alloc.stats().free_cycles, model.free_cycles());
}

class VariableAllocatorParityTest : public ::testing::TestWithParam<PlacementStrategyKind> {};

TEST_P(VariableAllocatorParityTest, SeededStreamsMatchTheMapModel) {
  constexpr WordCount kCapacity = 768;
  const PlacementStrategyKind kind = GetParam();
  for (const std::uint64_t seed : {3u, 17u, 101u}) {
    Rng rng(seed);
    VariableAllocator alloc(kCapacity, MakePlacementPolicy(kind, kLargeThreshold));
    MapAllocatorModel model(kCapacity, kind);
    std::uint64_t relocations = 0;
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t roll = rng.Below(100);
      if (model.live().empty() || roll < 55) {
        const WordCount size = 1 + rng.Below(48);
        const std::optional<Block> got = alloc.Allocate(size);
        const std::optional<PhysicalAddress> want = model.Allocate(size);
        ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " step " << step;
        if (got.has_value()) {
          ASSERT_EQ(got->addr, *want) << "seed " << seed << " step " << step;
        }
      } else {
        auto victim = model.live().begin();
        std::advance(victim, rng.Below(model.live().size()));
        const std::uint64_t from = victim->first;
        const WordCount size = victim->second;
        if (roll < 85) {
          alloc.Free(PhysicalAddress{from});
          model.Free(from);
        } else {
          // Move the block to a random fitting spot of the storage it would
          // see with itself freed, overlapping its own extent or not.
          std::vector<std::pair<std::uint64_t, WordCount>> fits;
          for (const auto& [start, hole] : model.HolesWithout(from)) {
            if (hole >= size) {
              fits.emplace_back(start, hole);
            }
          }
          const auto& [start, hole] = fits[rng.Below(fits.size())];
          const std::uint64_t to = start + rng.Below(hole - size + 1);
          alloc.Relocate(PhysicalAddress{from}, PhysicalAddress{to});
          model.Relocate(from, to);
          ++relocations;
        }
      }
      ExpectSameState(alloc, model);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "parity broke at seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(relocations, 0u);
    EXPECT_GT(alloc.stats().failures, 0u) << "the stream never filled storage";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, VariableAllocatorParityTest,
                         ::testing::Values(PlacementStrategyKind::kFirstFit,
                                           PlacementStrategyKind::kNextFit,
                                           PlacementStrategyKind::kBestFit,
                                           PlacementStrategyKind::kWorstFit,
                                           PlacementStrategyKind::kTwoEnded),
                         [](const ::testing::TestParamInfo<PlacementStrategyKind>& info) {
                           switch (info.param) {
                             case PlacementStrategyKind::kFirstFit:
                               return "FirstFit";
                             case PlacementStrategyKind::kNextFit:
                               return "NextFit";
                             case PlacementStrategyKind::kBestFit:
                               return "BestFit";
                             case PlacementStrategyKind::kWorstFit:
                               return "WorstFit";
                             default:
                               return "TwoEnded";
                           }
                         });

TEST(VariableAllocatorTagDeathTest, DoubleFreeAborts) {
  VariableAllocator alloc(100, MakePlacementPolicy(PlacementStrategyKind::kFirstFit));
  const std::optional<Block> block = alloc.Allocate(10);
  ASSERT_TRUE(block.has_value());
  alloc.Free(block->addr);
  EXPECT_DEATH(alloc.Free(block->addr), "free of unknown block");
}

TEST(VariableAllocatorTagDeathTest, FreeAtAnInteriorAddressAborts) {
  VariableAllocator alloc(100, MakePlacementPolicy(PlacementStrategyKind::kFirstFit));
  const std::optional<Block> block = alloc.Allocate(10);
  ASSERT_TRUE(block.has_value());
  EXPECT_DEATH(alloc.Free(PhysicalAddress{block->addr.value + 3}), "free of unknown block");
}

TEST(VariableAllocatorTagDeathTest, RelocateOfAnUnknownBlockAborts) {
  VariableAllocator alloc(100, MakePlacementPolicy(PlacementStrategyKind::kFirstFit));
  ASSERT_TRUE(alloc.Allocate(10).has_value());
  EXPECT_DEATH(alloc.Relocate(PhysicalAddress{50}, PhysicalAddress{60}),
               "relocate of unknown block");
}

}  // namespace
}  // namespace dsa
