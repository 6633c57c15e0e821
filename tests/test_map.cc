// Unit tests for src/map: every mapping mechanism in the paper's catalogue,
// plus the associative memory that makes them affordable.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/map/associative_memory.h"
#include "src/map/block_table.h"
#include "src/map/mapper.h"
#include "src/map/page_table.h"
#include "src/map/relocation_limit.h"
#include "src/map/two_level.h"

namespace dsa {
namespace {

// --- IdentityMapper -------------------------------------------------------------

TEST(IdentityMapperTest, NamesAreAddresses) {
  IdentityMapper mapper(100);
  const auto t = mapper.Translate(Name{42}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{42});
  EXPECT_EQ(t->cost, 0u);
}

TEST(IdentityMapperTest, OutOfExtentFaults) {
  IdentityMapper mapper(100);
  const auto t = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
  EXPECT_EQ(mapper.faults(), 1u);
}

// --- RelocationLimitMapper --------------------------------------------------------

TEST(RelocationLimitTest, AddsRelocationAfterLimitCheck) {
  RelocationLimitMapper mapper(PhysicalAddress{5000}, 100);
  const auto t = mapper.Translate(Name{42}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5042});
  EXPECT_EQ(t->cost, 2u);  // limit check + relocation add
}

TEST(RelocationLimitTest, LimitViolationTrapped) {
  RelocationLimitMapper mapper(PhysicalAddress{5000}, 100);
  const auto t = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST(RelocationLimitTest, ReloadMovesTheProgram) {
  RelocationLimitMapper mapper(PhysicalAddress{0}, 100);
  mapper.Load(PhysicalAddress{900}, 50);
  const auto t = mapper.Translate(Name{10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{910});
  EXPECT_FALSE(mapper.Translate(Name{60}, AccessKind::kRead, 0).has_value());
}

TEST(RelocationLimitTest, MeanCostIsTwoRegisterOps) {
  RelocationLimitMapper mapper(PhysicalAddress{0}, 100);
  for (int i = 0; i < 10; ++i) {
    mapper.Translate(Name{static_cast<std::uint64_t>(i)}, AccessKind::kRead, 0);
  }
  EXPECT_DOUBLE_EQ(mapper.MeanTranslationCost(), 2.0);
}

// --- BlockTableMapper (Fig. 2) -----------------------------------------------------

TEST(BlockTableTest, HighBitsIndexTheTable) {
  BlockTableMapper mapper(/*block_words=*/256, /*blocks=*/8);
  mapper.SetBlock(0, PhysicalAddress{1024});
  mapper.SetBlock(1, PhysicalAddress{0});
  const auto t0 = mapper.Translate(Name{10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t0.has_value());
  EXPECT_EQ(t0->address, PhysicalAddress{1034});
  const auto t1 = mapper.Translate(Name{256 + 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->address, PhysicalAddress{10});
}

TEST(BlockTableTest, ScatteredBlocksAppearContiguous) {
  // The Fig. 1 picture: name-contiguous blocks at scattered addresses.
  BlockTableMapper mapper(128, 4);
  mapper.SetBlock(0, PhysicalAddress{896});
  mapper.SetBlock(1, PhysicalAddress{128});
  mapper.SetBlock(2, PhysicalAddress{640});
  mapper.SetBlock(3, PhysicalAddress{0});
  // A sweep over names 0..511 never faults although no two blocks abut.
  for (std::uint64_t n = 0; n < 512; ++n) {
    EXPECT_TRUE(mapper.Translate(Name{n}, AccessKind::kRead, 0).has_value());
  }
}

TEST(BlockTableTest, UnmappedBlockFaults) {
  BlockTableMapper mapper(256, 8);
  const auto t = mapper.Translate(Name{300}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{1});
}

TEST(BlockTableTest, NameBeyondTableFaults) {
  BlockTableMapper mapper(256, 4);
  const auto t = mapper.Translate(Name{4 * 256}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
}

TEST(BlockTableTest, CostIsTableReferencePlusAdd) {
  BlockTableMapper mapper(256, 8);
  mapper.SetBlock(0, PhysicalAddress{0});
  const auto t = mapper.Translate(Name{1}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cost, 3u);  // core_reference(2) + register_op(1)
  EXPECT_EQ(mapper.TableWords(), 8u);
}

TEST(BlockTableTest, ClearBlockRevokesMapping) {
  BlockTableMapper mapper(256, 8);
  mapper.SetBlock(0, PhysicalAddress{0});
  mapper.ClearBlock(0);
  EXPECT_FALSE(mapper.Translate(Name{0}, AccessKind::kRead, 0).has_value());
}

// --- AssociativeMemory --------------------------------------------------------------

TEST(AssociativeMemoryTest, HitsAfterInsert) {
  AssociativeMemory memory(4);
  memory.Insert(7, 70, 0);
  EXPECT_EQ(memory.Lookup(7, 1), std::optional<std::uint64_t>{70});
  EXPECT_EQ(memory.hits(), 1u);
  EXPECT_EQ(memory.misses(), 0u);
}

TEST(AssociativeMemoryTest, MissesOnUnknownKey) {
  AssociativeMemory memory(4);
  EXPECT_FALSE(memory.Lookup(9, 0).has_value());
  EXPECT_EQ(memory.misses(), 1u);
}

TEST(AssociativeMemoryTest, LruEvictionOnOverflow) {
  AssociativeMemory memory(2);
  memory.Insert(1, 10, 0);
  memory.Insert(2, 20, 1);
  memory.Lookup(1, 2);       // refresh key 1
  memory.Insert(3, 30, 3);   // evicts key 2 (least recently used)
  EXPECT_TRUE(memory.Lookup(1, 4).has_value());
  EXPECT_FALSE(memory.Lookup(2, 5).has_value());
  EXPECT_TRUE(memory.Lookup(3, 6).has_value());
}

TEST(AssociativeMemoryTest, InsertRefreshesExistingKey) {
  AssociativeMemory memory(2);
  memory.Insert(1, 10, 0);
  memory.Insert(1, 11, 1);
  EXPECT_EQ(memory.size(), 1u);
  EXPECT_EQ(memory.Lookup(1, 2), std::optional<std::uint64_t>{11});
}

TEST(AssociativeMemoryTest, InvalidateRemovesOneKey) {
  AssociativeMemory memory(4);
  memory.Insert(1, 10, 0);
  memory.Insert(2, 20, 0);
  memory.Invalidate(1);
  EXPECT_FALSE(memory.Lookup(1, 1).has_value());
  EXPECT_TRUE(memory.Lookup(2, 1).has_value());
}

TEST(AssociativeMemoryTest, ZeroCapacityAlwaysMisses) {
  AssociativeMemory memory(0);
  memory.Insert(1, 10, 0);
  EXPECT_FALSE(memory.Lookup(1, 1).has_value());
  EXPECT_EQ(memory.HitRate(), 0.0);
}

TEST(AssociativeMemoryTest, LoadRejectsOneKeyInTwoSlots) {
  AssociativeMemory memory(4);
  memory.Insert(5, 50, 1);
  SnapshotWriter w;
  w.U64(2);
  for (int i = 0; i < 2; ++i) {
    w.U64(9);  // the same key twice
    w.U64(90 + i);
    w.U64(i);
  }
  w.U64(0);
  w.U64(0);
  const std::string sealed = w.Seal();
  SnapshotReader r(sealed);
  memory.LoadState(&r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
  EXPECT_EQ(memory.size(), 1u);
  EXPECT_EQ(memory.Lookup(5, 2), std::optional<std::uint64_t>{50});
}

// Pins the memory's observable behaviour over a seeded stream of every
// operation, with keys that mostly repeat the previous one (the case the
// recent-slot probe serves) and LoadState rewinds that leave the probe's
// slot holding another key.  After each step the SaveState bytes and the
// hit/miss counters are folded into one digest; the pinned value was
// recorded with the plain linear scan, before Lookup probed the recent slot
// first.
TEST(AssociativeMemoryTest, SeededStreamKeepsItsPinnedDigest) {
  AssociativeMemory memory(8);
  Rng rng(0xa550c);
  SnapshotWriter trail;
  std::string checkpoint;
  std::uint64_t key = 0;
  for (Cycles now = 1; now <= 40000; ++now) {
    if (rng.Below(10) >= 6) {
      key = rng.Below(14);
    }
    const std::uint64_t op = rng.Below(100);
    if (op < 60) {
      const std::optional<std::uint64_t> hit = memory.Lookup(key, now);
      trail.U64(hit.value_or(~std::uint64_t{0}));
      if (!hit.has_value() && rng.Below(4) != 0) {
        memory.Insert(key, key * 7 + now, now);  // the fill after a table walk
      }
    } else if (op < 78) {
      memory.Insert(key, rng.Below(1000), now);
    } else if (op < 92) {
      memory.Invalidate(key);
    } else if (op < 93) {
      memory.InvalidateAll();
    } else if (op < 97) {
      SnapshotWriter w;
      memory.SaveState(&w);
      checkpoint = w.TakePayload();
    } else if (!checkpoint.empty()) {
      SnapshotReader r = SnapshotReader::ForPayload(checkpoint);
      memory.LoadState(&r);
      ASSERT_TRUE(r.ok() && r.AtEnd());
    }
    SnapshotWriter state;
    memory.SaveState(&state);
    trail.U64(Fnv64(state.TakePayload()));
    trail.U64(memory.hits());
    trail.U64(memory.misses());
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv64(trail.TakePayload())));
  EXPECT_STREQ(digest, "f8b9c7a725435906");
}

// --- PageTableMapper ------------------------------------------------------------------

TEST(PageTableMapperTest, MissThenHitCostDifference) {
  PageTableMapper mapper(/*page_words=*/512, /*pages=*/16, /*tlb_entries=*/4);
  mapper.Map(PageId{0}, FrameId{3});
  // First access: TLB probe (1) + table reference (2).
  const auto miss = mapper.Translate(Name{100}, AccessKind::kRead, 0);
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->cost, 3u);
  EXPECT_FALSE(miss->associative_hit);
  // Second access: TLB hit (1).
  const auto hit = mapper.Translate(Name{101}, AccessKind::kRead, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 1u);
  EXPECT_TRUE(hit->associative_hit);
  EXPECT_EQ(hit->address, PhysicalAddress{3 * 512 + 101});
}

TEST(PageTableMapperTest, NoTlbAlwaysPaysTableReference) {
  PageTableMapper mapper(512, 16, 0);
  mapper.Map(PageId{0}, FrameId{0});
  for (int i = 0; i < 3; ++i) {
    const auto t = mapper.Translate(Name{0}, AccessKind::kRead, 0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->cost, 2u);
  }
}

TEST(PageTableMapperTest, AbsentPageFaultsWithPageId) {
  PageTableMapper mapper(512, 16, 4);
  const auto t = mapper.Translate(Name{512 * 5 + 7}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{5});
}

TEST(PageTableMapperTest, UnmapShootsDownTlb) {
  PageTableMapper mapper(512, 16, 4);
  mapper.Map(PageId{0}, FrameId{1});
  mapper.Translate(Name{0}, AccessKind::kRead, 0);  // fills the TLB
  mapper.Unmap(PageId{0});
  const auto t = mapper.Translate(Name{0}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value()) << "stale TLB entry survived the unmap";
}

TEST(PageTableMapperTest, NameBeyondTableIsInvalid) {
  PageTableMapper mapper(512, 4, 0);
  const auto t = mapper.Translate(Name{512 * 4}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidName);
}

// --- PageTable present counts and strict loads ------------------------------------------

constexpr std::size_t kChunk = PageTable::kChunkEntries;

std::vector<std::size_t> PresentCounts(const PageTable& table) {
  std::vector<std::size_t> counts;
  for (std::size_t k = 0; k < table.ChunkCount(); ++k) {
    counts.push_back(table.chunk_present(k));
  }
  return counts;
}

TEST(PageTablePresentCountTest, RemapAndAbsentUnmapDoNotMoveTheCount) {
  PageTable table(2 * kChunk + 10);
  ASSERT_EQ(table.ChunkCount(), 3u);
  EXPECT_EQ(table.chunk_entries(1), kChunk);
  EXPECT_EQ(table.chunk_entries(2), 10u);
  table.Map(PageId{5}, FrameId{1});
  table.Map(PageId{5}, FrameId{2});  // already present: a new frame, not a new entry
  table.Unmap(PageId{6});            // already absent
  EXPECT_EQ(PresentCounts(table), (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(table.entry(PageId{5}).frame, FrameId{2});
}

TEST(PageTablePresentCountTest, ChunkGoesPresentEmptyPresent) {
  PageTable table(2 * kChunk);
  table.Map(PageId{kChunk + 1}, FrameId{3});
  table.Map(PageId{kChunk + 2}, FrameId{4});
  EXPECT_EQ(PresentCounts(table), (std::vector<std::size_t>{0, 2}));
  table.Unmap(PageId{kChunk + 1});
  table.Unmap(PageId{kChunk + 2});
  EXPECT_EQ(PresentCounts(table), (std::vector<std::size_t>{0, 0}));
  table.Map(PageId{kChunk + 3}, FrameId{5});
  EXPECT_EQ(PresentCounts(table), (std::vector<std::size_t>{0, 1}));
}

PageTable SourceTable() {
  PageTable table(2 * kChunk + 10);
  table.Map(PageId{0}, FrameId{1});
  table.Map(PageId{9}, FrameId{2});
  table.Map(PageId{kChunk - 1}, FrameId{3});
  table.Map(PageId{2 * kChunk + 9}, FrameId{4});
  return table;
}

TEST(PageTablePresentCountTest, LoadChunkAndLoadStateRecount) {
  const PageTable source = SourceTable();
  const std::vector<std::size_t> expected{3, 0, 1};
  ASSERT_EQ(PresentCounts(source), expected);

  PageTable by_chunk(2 * kChunk + 10);
  by_chunk.Map(PageId{kChunk + 4}, FrameId{7});  // source leaves chunk 1 empty
  for (std::size_t k = 0; k < source.ChunkCount(); ++k) {
    SnapshotWriter w;
    source.SaveChunk(k, &w);
    const std::string body = w.TakePayload();
    SnapshotReader r = SnapshotReader::ForPayload(body);
    by_chunk.LoadChunk(k, &r);
    ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  }
  EXPECT_EQ(PresentCounts(by_chunk), expected);
}

TEST(PageTableStrictLoadTest, AbsentEntryWithAFrameIsABadValue) {
  // Unmap always leaves frame 0 behind, so an absent entry with any other
  // frame can only come from a damaged or forged snapshot; accepting it
  // would re-serialize to different bytes.
  PageTable table = SourceTable();
  const std::vector<std::size_t> before = PresentCounts(table);

  SnapshotWriter chunk;
  for (std::size_t i = 0; i < kChunk; ++i) {
    chunk.Bool(false);
    chunk.U64(i == 17 ? 5 : 0);
  }
  const std::string body = chunk.TakePayload();
  SnapshotReader r = SnapshotReader::ForPayload(body);
  table.LoadChunk(0, &r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
  EXPECT_EQ(PresentCounts(table), before);
  EXPECT_EQ(table.entry(PageId{0}).frame, FrameId{1});
}

// The per-entry encoder SaveChunk replaced, kept as its byte oracle.
std::string PerEntryChunkBytes(const PageTable& table, std::size_t chunk) {
  SnapshotWriter w;
  const std::size_t begin = chunk * kChunk;
  for (std::size_t i = begin; i < begin + table.chunk_entries(chunk); ++i) {
    w.Bool(table.entry(PageId{i}).present);
    w.U64(table.entry(PageId{i}).frame.value);
  }
  return w.TakePayload();
}

void ExpectChunksMatchTheOracle(const PageTable& table) {
  for (std::size_t k = 0; k < table.ChunkCount(); ++k) {
    SnapshotWriter w;
    w.U8(0x5a);  // a prefix, so the chunk lands at an unaligned offset
    table.SaveChunk(k, &w);
    std::string expected(1, '\x5a');
    expected += PerEntryChunkBytes(table, k);
    EXPECT_EQ(w.TakePayload(), expected) << "chunk " << k;
  }
}

TEST(PageTableChunkEncodingTest, PresentFrameZeroAndAShortTailMatchTheOracle) {
  PageTable table(2 * kChunk + 10);
  ExpectChunksMatchTheOracle(table);
  table.Map(PageId{0}, FrameId{0});  // present with frame 0: only the flag is non-zero
  table.Map(PageId{kChunk - 1}, FrameId{~std::uint64_t{0}});
  table.Map(PageId{2 * kChunk + 9}, FrameId{1});  // last entry of the 10-entry tail
  ExpectChunksMatchTheOracle(table);
  table.Unmap(PageId{0});
  ExpectChunksMatchTheOracle(table);
}

TEST(PageTableChunkEncodingTest, SeededPresencePatternsMatchTheOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    PageTable table(3 * kChunk + 77);
    Rng rng(seed);
    // Densities from sparse to nearly full, each map/unmap mix re-encoded.
    for (const std::uint64_t per_mille : {5u, 250u, 900u}) {
      for (int step = 0; step < 4000; ++step) {
        const PageId page{rng.Below(table.page_count())};
        if (rng.Below(1000) < per_mille) {
          table.Map(page, FrameId{rng.Below(3) == 0 ? 0 : rng.Next()});
        } else {
          table.Unmap(page);
        }
      }
      ExpectChunksMatchTheOracle(table);
    }
  }
}

// --- AtlasPageRegisterMapper -------------------------------------------------------------

TEST(AtlasMapperTest, AssociativeSearchMapsDirectly) {
  AtlasPageRegisterMapper mapper(512, /*frames=*/4);
  mapper.LoadFrame(FrameId{2}, PageId{7});
  const auto t = mapper.Translate(Name{7 * 512 + 9}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{2 * 512 + 9});
  EXPECT_EQ(t->cost, 1u);  // one parallel associative search
  EXPECT_TRUE(t->associative_hit);
}

TEST(AtlasMapperTest, MissIsThePageFault) {
  AtlasPageRegisterMapper mapper(512, 4);
  const auto t = mapper.Translate(Name{3 * 512}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{3});
}

TEST(AtlasMapperTest, ClearFrameRevokes) {
  AtlasPageRegisterMapper mapper(512, 4);
  mapper.LoadFrame(FrameId{0}, PageId{1});
  mapper.ClearFrame(FrameId{0});
  EXPECT_FALSE(mapper.Translate(Name{512}, AccessKind::kRead, 0).has_value());
}

// `payload` (an Atlas SaveState) with register `f` rewritten in place.
std::string WithRegister(std::string payload, std::size_t f, bool loaded, std::uint64_t page) {
  const std::size_t at = 8 + f * 9;  // register count, then (bool, u64) per register
  payload[at] = loaded ? 1 : 0;
  for (int i = 0; i < 8; ++i) {
    payload[at + 1 + i] = static_cast<char>((page >> (8 * i)) & 0xff);
  }
  return payload;
}

// Loading a page another register holds moves it: the old register empties,
// so clearing that register later cannot unmap the page it no longer holds.
TEST(AtlasMapperTest, LoadingAHeldPageMovesItOutOfItsOldRegister) {
  AtlasPageRegisterMapper mapper(512, 4);
  mapper.LoadFrame(FrameId{0}, PageId{7});
  mapper.LoadFrame(FrameId{1}, PageId{7});

  // One page, one register: the file saves with register 0 empty and
  // reloads strictly (a page in two registers would be rejected).
  SnapshotWriter saved;
  mapper.SaveState(&saved);
  const std::string bytes = saved.TakePayload();
  EXPECT_EQ(bytes, WithRegister(WithRegister(bytes, 0, false, 0), 1, true, 7));
  AtlasPageRegisterMapper restored(512, 4);
  SnapshotReader r = SnapshotReader::ForPayload(bytes);
  restored.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();

  mapper.ClearFrame(FrameId{0});
  const auto t = mapper.Translate(Name{7 * 512 + 3}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{1 * 512 + 3});
  // Reloading a page into its own register changes nothing.
  mapper.LoadFrame(FrameId{1}, PageId{7});
  EXPECT_EQ(mapper.Translate(Name{7 * 512}, AccessKind::kRead, 0)->address,
            PhysicalAddress{1 * 512});
  mapper.ClearFrame(FrameId{1});
  EXPECT_FALSE(mapper.Translate(Name{7 * 512}, AccessKind::kRead, 0).has_value());
}

TEST(AtlasMapperTest, StrictLoadRoundTripsAndRejectsAnEmptyRegisterWithAPage) {
  AtlasPageRegisterMapper mapper(512, 4);
  mapper.LoadFrame(FrameId{1}, PageId{9});
  mapper.LoadFrame(FrameId{3}, PageId{0});

  SnapshotWriter saved;
  mapper.SaveState(&saved);
  const std::string good = saved.TakePayload();
  AtlasPageRegisterMapper restored(512, 4);
  {
    SnapshotReader r = SnapshotReader::ForPayload(good);
    restored.LoadState(&r);
    ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  }
  SnapshotWriter resaved;
  restored.SaveState(&resaved);
  EXPECT_EQ(resaved.TakePayload(), good);

  // Register 0 is empty: with page 6 it would re-serialize as page 0.  Then
  // register 0 loaded with register 1's page: one page in two registers.
  for (const std::string& bad : {WithRegister(good, 0, false, 6), WithRegister(good, 0, true, 9)}) {
    SnapshotReader r = SnapshotReader::ForPayload(bad);
    restored.LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
  }
  // A failed load leaves the registers and their index as they were.
  SnapshotWriter after;
  restored.SaveState(&after);
  EXPECT_EQ(after.TakePayload(), good);
  EXPECT_EQ(restored.Translate(Name{9 * 512 + 1}, AccessKind::kRead, 0)->address,
            PhysicalAddress{1 * 512 + 1});
  EXPECT_EQ(restored.Translate(Name{5}, AccessKind::kRead, 0)->address,
            PhysicalAddress{3 * 512 + 5});
  EXPECT_FALSE(restored.Translate(Name{6 * 512}, AccessKind::kRead, 0).has_value());
}

// --- SegmentPageMapper (Fig. 4) -------------------------------------------------------------

class SegmentPageMapperTest : public ::testing::Test {
 protected:
  SegmentPageMapperTest() : mapper_(4, 12, 256, 4) {
    mapper_.DefineSegment(SegmentId{1}, 1000);
    mapper_.MapPage(SegmentId{1}, PageId{0}, FrameId{5});
  }
  SegmentPageMapper mapper_;
};

TEST_F(SegmentPageMapperTest, TwoLevelTranslationResolves) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
  // TLB probe (1) + segment table (2) + page table (2).
  EXPECT_EQ(t->cost, 5u);
}

TEST_F(SegmentPageMapperTest, TlbHitSkipsBothTables) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 20}, AccessKind::kRead, 1);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->cost, 1u);
  EXPECT_TRUE(t->associative_hit);
}

TEST_F(SegmentPageMapperTest, BoundsViolationInterceptsBadSubscript) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 1000}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST_F(SegmentPageMapperTest, UndefinedSegmentIsInvalid) {
  const auto t = mapper_.TranslateSegmented({SegmentId{2}, 0}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidSegment);
}

TEST_F(SegmentPageMapperTest, AbsentPageFaults) {
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 300}, AccessKind::kRead, 0);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kPageNotPresent);
  EXPECT_EQ(t.error().page, PageId{1});
}

TEST_F(SegmentPageMapperTest, LinearViewUnpacksHighBits) {
  // Linear name = (segment << offset_bits) | offset.
  const auto t =
      mapper_.Translate(Name{(std::uint64_t{1} << 12) | 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
}

TEST_F(SegmentPageMapperTest, ResizeGrowKeepsMappings) {
  mapper_.ResizeSegment(SegmentId{1}, 2000);
  EXPECT_EQ(mapper_.SegmentExtent(SegmentId{1}), 2000u);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->address, PhysicalAddress{5 * 256 + 10});
  // The new tail pages exist but are absent.
  const auto tail = mapper_.TranslateSegmented({SegmentId{1}, 1500}, AccessKind::kRead, 0);
  ASSERT_FALSE(tail.has_value());
  EXPECT_EQ(tail.error().kind, FaultKind::kPageNotPresent);
}

TEST_F(SegmentPageMapperTest, ResizeShrinkInvalidatesTail) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);  // TLB fill
  mapper_.ResizeSegment(SegmentId{1}, 5);
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kBoundsViolation);
}

TEST_F(SegmentPageMapperTest, DestroySegmentInvalidatesEverything) {
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);  // TLB fill
  mapper_.DestroySegment(SegmentId{1});
  EXPECT_FALSE(mapper_.SegmentIsDefined(SegmentId{1}));
  const auto t = mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 1);
  ASSERT_FALSE(t.has_value());
  EXPECT_EQ(t.error().kind, FaultKind::kInvalidSegment);
}

TEST_F(SegmentPageMapperTest, TableWordsCountSegmentAndPageTables) {
  // 16 segment entries + ceil(1000/256)=4 page entries.
  EXPECT_EQ(mapper_.TableWords(), 16u + 4u);
  mapper_.DefineSegment(SegmentId{2}, 256);
  EXPECT_EQ(mapper_.TableWords(), 16u + 4u + 1u);
}

TEST_F(SegmentPageMapperTest, UnmapPageInvalidatesItsTlbEntryOnly) {
  mapper_.DefineSegment(SegmentId{2}, 512);
  mapper_.MapPage(SegmentId{2}, PageId{0}, FrameId{6});
  mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 0);
  mapper_.TranslateSegmented({SegmentId{2}, 10}, AccessKind::kRead, 1);
  mapper_.UnmapPage(SegmentId{1}, PageId{0});
  EXPECT_FALSE(mapper_.TranslateSegmented({SegmentId{1}, 10}, AccessKind::kRead, 2).has_value());
  const auto still = mapper_.TranslateSegmented({SegmentId{2}, 10}, AccessKind::kRead, 3);
  EXPECT_TRUE(still.has_value());
  EXPECT_TRUE(still->associative_hit);
}

// --- Mapper accounting -----------------------------------------------------------------------

TEST(MapperAccountingTest, MeanCostAveragesOverTranslations) {
  PageTableMapper mapper(512, 4, 2);
  mapper.Map(PageId{0}, FrameId{0});
  mapper.Translate(Name{0}, AccessKind::kRead, 0);  // cost 3 (probe+table)
  mapper.Translate(Name{1}, AccessKind::kRead, 1);  // cost 1 (hit)
  EXPECT_EQ(mapper.translations(), 2u);
  EXPECT_DOUBLE_EQ(mapper.MeanTranslationCost(), 2.0);
}

}  // namespace
}  // namespace dsa
