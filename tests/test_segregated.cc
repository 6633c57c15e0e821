// Unit tests for the segregated size-class allocator family: the size-class
// map, quick lists with deferred coalescing, the slab pool, the allocator
// factory, and compaction interop.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/alloc/allocator_factory.h"
#include "src/alloc/compaction.h"
#include "src/alloc/segregated_fit.h"
#include "src/alloc/slab_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace dsa {
namespace {

// ---------------------------------------------------------------- size map

TEST(SizeClassMapTest, LinearThenGeometricBounds) {
  const SizeClassMap map{SizeClassMapConfig{}};
  // Linear region: one class per 16-word step up to 256.
  EXPECT_EQ(map.ClassFor(1), map.ClassFor(16));
  EXPECT_NE(map.ClassFor(16), map.ClassFor(17));
  EXPECT_EQ(map.ClassFor(17), map.ClassFor(32));
  EXPECT_EQ(map.UpperBound(map.ClassFor(1)), 16u);
  EXPECT_EQ(map.UpperBound(map.ClassFor(255)), 256u);
  // Geometric region above 256: each (2^k, 2^(k+1)] range is cut into 4
  // equal bands, so (256, 512] yields bounds 320/384/448/512.
  EXPECT_EQ(map.UpperBound(map.ClassFor(257)), 320u);
  EXPECT_EQ(map.UpperBound(map.ClassFor(321)), 384u);
  EXPECT_EQ(map.UpperBound(map.ClassFor(512)), 512u);
  EXPECT_EQ(map.UpperBound(map.ClassFor(513)), 640u);
  EXPECT_EQ(map.UpperBound(map.ClassFor(65536)), 65536u);
}

TEST(SizeClassMapTest, EverySizeLandsInItsClass) {
  const SizeClassMap map{SizeClassMapConfig{}};
  for (WordCount size = 1; size <= 70000; ++size) {
    const std::size_t cls = map.ClassFor(size);
    ASSERT_LT(cls, map.size());
    ASSERT_LE(size, map.UpperBound(cls)) << "size " << size;
    if (cls > 0) {
      ASSERT_GT(size, map.UpperBound(cls - 1)) << "size " << size;
    }
  }
}

TEST(SizeClassMapTest, ClassesAreMonotone) {
  const SizeClassMap map{SizeClassMapConfig{}};
  std::size_t prev = 0;
  for (WordCount size = 1; size <= 70000; ++size) {
    const std::size_t cls = map.ClassFor(size);
    ASSERT_GE(cls, prev);
    prev = cls;
  }
}

TEST(SizeClassMapTest, SingleClassSpansEverything) {
  const SizeClassMap map = SizeClassMap::SingleClass();
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.ClassFor(1), 0u);
  EXPECT_EQ(map.ClassFor(1u << 30), 0u);
}

// ----------------------------------------------------------- segregated fit

TEST(SegregatedFitTest, AllocateFreeRoundTrip) {
  SegregatedFitAllocator alloc(4096);
  const auto a = alloc.Allocate(100);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->addr.value, 0u);
  EXPECT_EQ(a->size, 100u);
  EXPECT_EQ(alloc.live_words(), 100u);
  alloc.Free(a->addr);
  EXPECT_EQ(alloc.live_words(), 0u);
  alloc.DrainQuickLists();
  const auto holes = alloc.HoleSizes();
  ASSERT_EQ(holes.size(), 1u);
  EXPECT_EQ(holes[0], 4096u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(SegregatedFitTest, QuickListServesRepeatFreesInPlace) {
  SegregatedFitConfig config;
  config.quick_size_max = 64;          // park the test's 64-word frees
  config.park_watermark_words = 1024;  // and keep them parked
  SegregatedFitAllocator alloc(4096, config);
  const auto a = alloc.Allocate(64);
  const auto b = alloc.Allocate(64);
  ASSERT_TRUE(a && b);
  alloc.Free(b->addr);
  EXPECT_EQ(alloc.parked_blocks(), 1u);
  // Same class again: the parked block is handed back whole, same address.
  const auto c = alloc.Allocate(64);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->addr, b->addr);
  EXPECT_EQ(alloc.quick_stats().quick_hits, 1u);
  EXPECT_EQ(alloc.parked_blocks(), 0u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(SegregatedFitTest, QuickHitIsCheaperThanColdAllocation) {
  SegregatedFitConfig config;
  config.quick_size_max = 64;
  SegregatedFitAllocator alloc(1u << 16, config);
  // Cold path: carve from the wilderness.
  const auto a = alloc.Allocate(64);
  ASSERT_TRUE(a.has_value());
  const Cycles cold = alloc.stats().alloc_cycles;
  alloc.Free(a->addr);
  // Warm path: quick-list hit.
  const Cycles before = alloc.stats().alloc_cycles;
  ASSERT_TRUE(alloc.Allocate(64).has_value());
  const Cycles warm = alloc.stats().alloc_cycles - before;
  EXPECT_LT(warm, cold);
}

TEST(SegregatedFitTest, WatermarkTriggersFullDrain) {
  SegregatedFitConfig config;
  config.park_watermark_words = 100;
  config.quick_size_max = 64;
  SegregatedFitAllocator alloc(4096, config);
  std::vector<Block> blocks;
  for (int i = 0; i < 4; ++i) {
    blocks.push_back(*alloc.Allocate(40));
  }
  alloc.Free(blocks[0].addr);
  alloc.Free(blocks[1].addr);
  EXPECT_EQ(alloc.parked_words(), 80u);  // under the watermark: still parked
  alloc.Free(blocks[2].addr);            // 120 > 100: full drain
  EXPECT_EQ(alloc.parked_words(), 0u);
  EXPECT_GE(alloc.quick_stats().drains, 1u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(SegregatedFitTest, OverflowingQuickListFlushesThatClass) {
  SegregatedFitConfig config;
  config.quick_list_capacity = 2;
  config.quick_size_max = 64;
  SegregatedFitAllocator alloc(1u << 16, config);
  std::vector<Block> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(*alloc.Allocate(64));
  }
  alloc.Free(blocks[0].addr);
  alloc.Free(blocks[1].addr);
  EXPECT_EQ(alloc.parked_blocks(), 2u);
  alloc.Free(blocks[2].addr);  // overflow: the class flushes, then parks
  EXPECT_EQ(alloc.parked_blocks(), 1u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(SegregatedFitTest, ClassMissEmitsEventAndDrainsParked) {
  EventTracer tracer;
  SegregatedFitConfig config;
  config.quick_size_max = 128;       // park the test's 128-word frees
  config.park_watermark_words = 256;  // keep both parked until the miss
  SegregatedFitAllocator alloc(256, config);
  alloc.SetTracer(&tracer);
  // Fill storage with two blocks, free both (both park).
  const auto a = alloc.Allocate(128);
  const auto b = alloc.Allocate(128);
  ASSERT_TRUE(a && b);
  alloc.Free(a->addr);
  alloc.Free(b->addr);
  ASSERT_EQ(alloc.parked_words(), 256u);
  // A request larger than any parked block: class miss, deferred coalesce,
  // then the merged block satisfies it.
  const auto big = alloc.Allocate(200);
  ASSERT_TRUE(big.has_value());
  bool saw_miss = false;
  bool saw_coalesce = false;
  for (const TraceEvent& event : tracer.Snapshot()) {
    saw_miss = saw_miss || event.kind == EventKind::kSizeClassMiss;
    saw_coalesce = saw_coalesce || event.kind == EventKind::kDeferredCoalesce;
  }
  if (DSA_TRACE) {  // -DDSA_TRACE=0 compiles the emissions out
    EXPECT_TRUE(saw_miss);
    EXPECT_TRUE(saw_coalesce);
  }
  EXPECT_EQ(alloc.quick_stats().class_misses, 1u);
  EXPECT_TRUE(alloc.CheckInvariants());
}

TEST(SegregatedFitTest, EagerModeNeverParks) {
  SegregatedFitConfig config;
  config.quick_list_capacity = 0;
  SegregatedFitAllocator alloc(4096, config);
  EXPECT_EQ(alloc.name(), "segregated-fit/eager");
  const auto a = alloc.Allocate(64);
  const auto b = alloc.Allocate(64);
  ASSERT_TRUE(a && b);
  alloc.Free(a->addr);
  alloc.Free(b->addr);
  EXPECT_EQ(alloc.parked_words(), 0u);
  const auto holes = alloc.HoleSizes();
  ASSERT_EQ(holes.size(), 1u);  // eager coalescing merged everything
  EXPECT_EQ(holes[0], 4096u);
}

TEST(SegregatedFitTest, PublishesPerClassOccupancyMetrics) {
  MetricsRegistry registry;
  SegregatedFitConfig config;
  config.quick_size_max = 64;
  SegregatedFitAllocator alloc(1u << 16, config);
  const auto a = alloc.Allocate(64);
  ASSERT_TRUE(a.has_value());
  alloc.Free(a->addr);
  alloc.PublishMetrics(&registry, "alloc");
  EXPECT_EQ(registry.GetCounter("alloc.quick_parks")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("alloc.parked_words")->value(), 64u);
  const std::size_t cls = alloc.size_classes().ClassFor(64);
  const std::string base = "alloc.class" + std::string(cls < 10 ? "0" : "") +
                           std::to_string(cls) + ".parked_blocks";
  EXPECT_EQ(registry.GetCounter(base)->value(), 1u);
}

TEST(SegregatedFitTest, CompactionDrainsQuickListsAndPacks) {
  SegregatedFitConfig config;
  config.quick_size_max = 128;         // park the test's 100-word frees
  config.park_watermark_words = 1024;  // stay parked until compaction drains
  SegregatedFitAllocator alloc(4096, config);
  std::vector<Block> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(*alloc.Allocate(100));
  }
  for (int i = 0; i < 8; i += 2) {
    alloc.Free(blocks[static_cast<std::size_t>(i)].addr);
  }
  ASSERT_GT(alloc.parked_words(), 0u);
  CompactionEngine engine(CpuPackingChannel());
  const CompactionResult result = engine.Compact(&alloc, nullptr);
  EXPECT_EQ(alloc.parked_words(), 0u);  // PrepareForCompaction drained
  EXPECT_EQ(result.holes_after, 1u);
  // Live blocks are packed from address 0 upward.
  WordCount next = 0;
  for (const Block& block : alloc.LiveBlocks()) {
    EXPECT_EQ(block.addr.value, next);
    next += block.size;
  }
  EXPECT_EQ(next, alloc.reserved_words());
  EXPECT_TRUE(alloc.CheckInvariants());
}

// ------------------------------------------------------------------- slab

TEST(SlabPoolTest, GrantsWholeChunks) {
  SlabPoolAllocator alloc(1024, SlabPoolConfig{64});
  const auto a = alloc.Allocate(10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->addr.value, 0u);
  EXPECT_EQ(a->size, 64u);  // whole chunk, internal waste included
  EXPECT_EQ(alloc.live_words(), 10u);
  EXPECT_EQ(alloc.reserved_words(), 64u);
}

TEST(SlabPoolTest, OversizedRequestsFail) {
  SlabPoolAllocator alloc(1024, SlabPoolConfig{64});
  EXPECT_FALSE(alloc.Allocate(65).has_value());
  EXPECT_EQ(alloc.stats().failures, 1u);
}

TEST(SlabPoolTest, FreedChunkIsReusedLifo) {
  SlabPoolAllocator alloc(1024, SlabPoolConfig{64});
  const auto a = alloc.Allocate(64);
  const auto b = alloc.Allocate(64);
  ASSERT_TRUE(a && b);
  alloc.Free(a->addr);
  const auto c = alloc.Allocate(32);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->addr, a->addr);  // most recently freed chunk first
}

TEST(SlabPoolTest, HolesMergeAcrossAdjacentFreeChunks) {
  SlabPoolAllocator alloc(256, SlabPoolConfig{64});
  const auto a = alloc.Allocate(64);
  const auto b = alloc.Allocate(64);
  const auto c = alloc.Allocate(64);
  ASSERT_TRUE(a && b && c);
  // chunks 0,1,2 live; chunk 3 free.  Free chunks 0 and 1: holes are
  // [0,128) and [192,256).
  alloc.Free(a->addr);
  alloc.Free(b->addr);
  const auto holes = alloc.HoleSizes();
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0], 128u);
  EXPECT_EQ(holes[1], 64u);
}

TEST(SlabPoolTest, ExhaustionFailsCleanly) {
  SlabPoolAllocator alloc(128, SlabPoolConfig{64});
  ASSERT_TRUE(alloc.Allocate(64).has_value());
  ASSERT_TRUE(alloc.Allocate(64).has_value());
  EXPECT_FALSE(alloc.Allocate(1).has_value());
}

// ---------------------------------------------------------------- factory

TEST(AllocatorFactoryTest, BuildsEveryKind) {
  const struct {
    PlacementStrategyKind kind;
    const char* name;
  } cases[] = {
      {PlacementStrategyKind::kFirstFit, "variable/first-fit"},
      {PlacementStrategyKind::kNextFit, "variable/next-fit"},
      {PlacementStrategyKind::kBestFit, "variable/best-fit"},
      {PlacementStrategyKind::kWorstFit, "variable/worst-fit"},
      {PlacementStrategyKind::kTwoEnded, "variable/two-ended"},
      {PlacementStrategyKind::kBuddy, "buddy"},
      {PlacementStrategyKind::kRiceChain, "rice-chain"},
      {PlacementStrategyKind::kSegregatedFit, "segregated-fit"},
      {PlacementStrategyKind::kSlabPool, "slab-pool/64"},
  };
  for (const auto& c : cases) {
    const std::unique_ptr<Allocator> alloc = MakeAllocator(c.kind, 1u << 16);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->name(), c.name);
    EXPECT_EQ(alloc->capacity(), 1u << 16);
    // Every design satisfies a small request and accounts for it.
    const auto block = alloc->Allocate(8);
    ASSERT_TRUE(block.has_value()) << c.name;
    EXPECT_EQ(alloc->live_words(), 8u) << c.name;
    EXPECT_GE(alloc->stats().alloc_cycles, 1u) << c.name;  // the tariff is charged
  }
}

TEST(AllocatorFactoryTest, SegregatedOptionsReachTheAllocator) {
  AllocatorBuildOptions options;
  options.segregated.quick_list_capacity = 0;
  const auto alloc = MakeAllocator(PlacementStrategyKind::kSegregatedFit, 4096, options);
  EXPECT_EQ(alloc->name(), "segregated-fit/eager");
}

}  // namespace
}  // namespace dsa
