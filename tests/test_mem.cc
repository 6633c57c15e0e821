// Unit tests for src/mem: storage levels, the core store, backing stores,
// and channels.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/core_store.h"
#include "src/mem/storage_level.h"

namespace dsa {
namespace {

// --- StorageLevel ---------------------------------------------------------------

TEST(StorageLevelTest, TransferTimeIsLatencyPlusWords) {
  const StorageLevel drum = MakeDrumLevel("drum", 1000, /*word_time=*/4,
                                          /*rotational_delay=*/6000);
  EXPECT_EQ(drum.TransferTime(0), 6000u);
  EXPECT_EQ(drum.TransferTime(512), 6000u + 4 * 512);
}

TEST(StorageLevelTest, CoreHasNoStartupLatency) {
  const StorageLevel core = MakeCoreLevel("core", 1000, 1);
  EXPECT_EQ(core.TransferTime(100), 100u);
  EXPECT_EQ(core.kind, StorageLevelKind::kCore);
}

TEST(StorageLevelTest, FactoriesSetKinds) {
  EXPECT_EQ(MakeDiskLevel("d", 1, 1, 1).kind, StorageLevelKind::kDisk);
  EXPECT_EQ(MakeTapeLevel("t", 1, 1, 1).kind, StorageLevelKind::kTape);
  EXPECT_STREQ(ToString(StorageLevelKind::kDrum), "drum");
}

// --- CoreStore ------------------------------------------------------------------

TEST(CoreStoreTest, ReadsBackWrites) {
  CoreStore store(64);
  store.Write(PhysicalAddress{10}, 0xdeadbeef);
  EXPECT_EQ(store.Read(PhysicalAddress{10}), 0xdeadbeefu);
  EXPECT_EQ(store.Read(PhysicalAddress{11}), 0u);  // zero-initialised
}

TEST(CoreStoreTest, MoveCopiesAndCharges) {
  CoreStore store(64);
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.Write(PhysicalAddress{i}, i + 100);
  }
  const Cycles cost = store.Move(PhysicalAddress{0}, PhysicalAddress{32}, 8, 4);
  EXPECT_EQ(cost, 32u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(store.Read(PhysicalAddress{32 + i}), i + 100);
  }
}

TEST(CoreStoreTest, OverlappingSlideDownPreservesContents) {
  CoreStore store(64);
  for (std::uint64_t i = 0; i < 16; ++i) {
    store.Write(PhysicalAddress{8 + i}, i + 1);
  }
  // Slide a 16-word block down by 4: destination overlaps source.
  store.Move(PhysicalAddress{8}, PhysicalAddress{4}, 16, 1);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(store.Read(PhysicalAddress{4 + i}), i + 1);
  }
}

TEST(CoreStoreTest, RangeReadWriteRoundTrip) {
  CoreStore store(32);
  std::vector<Word> data{1, 2, 3, 4};
  store.WriteRange(PhysicalAddress{5}, data);
  std::vector<Word> out;
  store.ReadRange(PhysicalAddress{5}, 4, &out);
  EXPECT_EQ(out, data);
}

TEST(CoreStoreTest, FillSetsRange) {
  CoreStore store(16);
  store.Fill(PhysicalAddress{2}, 3, 9);
  EXPECT_EQ(store.Read(PhysicalAddress{2}), 9u);
  EXPECT_EQ(store.Read(PhysicalAddress{4}), 9u);
  EXPECT_EQ(store.Read(PhysicalAddress{5}), 0u);
}

TEST(CoreStoreDeathTest, OutOfBoundsAccessAborts) {
  CoreStore store(8);
  EXPECT_DEATH(store.Read(PhysicalAddress{8}), "out of bounds");
  EXPECT_DEATH(store.Write(PhysicalAddress{100}, 1), "out of bounds");
  EXPECT_DEATH(store.Move(PhysicalAddress{4}, PhysicalAddress{6}, 4, 1), "out of bounds");
}

// --- BackingStore ----------------------------------------------------------------

TEST(BackingStoreTest, FetchOfUnstoredSlotZeroFills) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  std::vector<Word> out;
  const Cycles cost = store.Fetch(7, 16, &out);
  EXPECT_EQ(cost, 100u + 16 * 4);
  ASSERT_EQ(out.size(), 16u);
  for (Word w : out) {
    EXPECT_EQ(w, 0u);
  }
  EXPECT_FALSE(store.Contains(7));
}

TEST(BackingStoreTest, StoreFetchRoundTrip) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(3, {11, 22, 33});
  std::vector<Word> out;
  store.Fetch(3, 3, &out);
  EXPECT_EQ(out, (std::vector<Word>{11, 22, 33}));
  EXPECT_TRUE(store.Contains(3));
}

TEST(BackingStoreTest, FetchPadsShortSlots) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, {5});
  std::vector<Word> out;
  store.Fetch(1, 3, &out);
  EXPECT_EQ(out, (std::vector<Word>{5, 0, 0}));
}

// A null `out` models the transfer only: same cycles, same counters, no copy.
TEST(BackingStoreTest, NullOutFetchChargesLikeBufferedFetch) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(3, {11, 22, 33});
  for (const BackingStore::SlotId slot : {BackingStore::SlotId{3}, BackingStore::SlotId{9}}) {
    for (const WordCount words : {WordCount{3}, WordCount{16}}) {
      std::vector<Word> out;
      const std::uint64_t fetches0 = store.fetches();
      const Cycles busy0 = store.busy_cycles();
      const Cycles buffered = store.Fetch(slot, words, &out);
      const std::uint64_t fetches1 = store.fetches();
      const Cycles busy1 = store.busy_cycles();
      const Cycles unbuffered = store.Fetch(slot, words, nullptr);
      EXPECT_EQ(unbuffered, buffered) << "slot " << slot << " words " << words;
      EXPECT_EQ(store.fetches() - fetches1, fetches1 - fetches0);
      EXPECT_EQ(store.busy_cycles() - busy1, busy1 - busy0);
    }
  }
  EXPECT_EQ(store.fetches(), 8u);
  EXPECT_FALSE(store.Contains(9));
  std::vector<Word> out;
  store.Fetch(3, 3, &out);
  EXPECT_EQ(out, (std::vector<Word>{11, 22, 33}));
}

TEST(BackingStoreTest, DiscardRemovesSlot) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, {5});
  store.Discard(1);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_EQ(store.OccupiedWords(), 0u);
}

TEST(BackingStoreTest, AccountingCountersAdvance) {
  BackingStore store(MakeDrumLevel("drum", 4096, 4, 100));
  store.Store(1, {1, 2});
  std::vector<Word> out;
  store.Fetch(1, 2, &out);
  EXPECT_EQ(store.stores(), 1u);
  EXPECT_EQ(store.fetches(), 1u);
  EXPECT_EQ(store.busy_cycles(), (100u + 8) * 2);
  EXPECT_EQ(store.OccupiedWords(), 2u);
  EXPECT_EQ(store.slot_count(), 1u);
}

// The per-word encoder BackingStore::SaveState replaced, kept as its byte
// oracle.  It encodes the contents a test tracked through the public API,
// plus the store's own counters.
struct BackingModel {
  std::map<BackingStore::SlotId, std::vector<Word>> slots;
  std::set<BackingStore::SlotId> bad;
  BackingStore::SlotId next_spare{BackingStore::kSpareSlotBase};
};

std::string PerWordBackingBytes(const BackingModel& model, const BackingStore& store) {
  SnapshotWriter w;
  w.U64(model.slots.size());
  WordCount occupied = 0;
  for (const auto& [id, words] : model.slots) {
    w.U64(id);
    w.U64(words.size());
    for (const Word word : words) {
      w.U64(word);
    }
    occupied += words.size();
  }
  w.U64(model.bad.size());
  for (const BackingStore::SlotId id : model.bad) {
    w.U64(id);
  }
  w.U64(model.next_spare);
  w.U64(occupied);
  w.U64(store.stores());
  w.U64(store.fetches());
  w.U64(store.busy_cycles());
  return w.TakePayload();
}

std::string SavedBytes(const BackingStore& store) {
  SnapshotWriter w;
  store.SaveState(&w);
  return w.TakePayload();
}

void ExpectSaveMatchesTheOracleAndRoundTrips(const BackingModel& model,
                                            const BackingStore& store) {
  const std::string bytes = SavedBytes(store);
  EXPECT_EQ(bytes, PerWordBackingBytes(model, store));
  BackingStore reloaded(store.level());
  SnapshotReader r = SnapshotReader::ForPayload(bytes);
  reloaded.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  EXPECT_EQ(SavedBytes(reloaded), bytes);
}

TEST(BackingStoreSaveTest, BulkSaveMatchesThePerWordOracle) {
  BackingStore store(MakeDrumLevel("drum", 1u << 16, 4, 100));
  BackingModel model;
  ExpectSaveMatchesTheOracleAndRoundTrips(model, store);

  Rng rng(42);
  for (const BackingStore::SlotId id : {BackingStore::SlotId{9}, BackingStore::SlotId{2},
                                        BackingStore::SlotId{1000}, ~BackingStore::SlotId{0}}) {
    std::vector<Word> words(1 + rng.Below(300));
    for (Word& word : words) {
      word = rng.Below(4) == 0 ? 0 : rng.Next();
    }
    words.back() = ~Word{0};
    store.Store(id, words);
    model.slots[id] = words;
  }
  store.Store(5, {});  // a slot that holds no words
  model.slots[5] = {};
  store.StoreZeros(6, 32);
  model.slots[6] = std::vector<Word>(32, Word{0});
  store.Store(9, {1, 2, 3});  // a rewrite that shrinks the slot
  model.slots[9] = {1, 2, 3};
  ExpectSaveMatchesTheOracleAndRoundTrips(model, store);

  for (const BackingStore::SlotId id : {BackingStore::SlotId{2}, BackingStore::SlotId{77}}) {
    store.MarkBad(id);  // one held content, one never stored
    model.slots.erase(id);
    model.bad.insert(id);
  }
  for (int i = 0; i < 3; ++i) {
    const auto spare = store.AllocateSpareSlot(16);
    ASSERT_TRUE(spare.has_value());
    model.next_spare = *spare + 1;
  }
  store.StoreZeros(model.next_spare - 1, 16);
  model.slots[model.next_spare - 1] = std::vector<Word>(16, Word{0});
  std::vector<Word> out;
  store.Fetch(1000, 8, &out);
  store.Discard(6);
  model.slots.erase(6);
  ExpectSaveMatchesTheOracleAndRoundTrips(model, store);
}

// StoreZeros is Store of a zero vector: same cycles, counters, content and
// saved bytes, whether the slot is new, grows, shrinks or held data.
TEST(BackingStoreSaveTest, StoreZerosMatchesStoringAZeroVector) {
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  BackingStore by_vector(drum);
  BackingStore in_place(drum);
  by_vector.Store(3, {11, 22, 33});
  in_place.Store(3, {11, 22, 33});
  for (const auto& [slot, words] : std::vector<std::pair<BackingStore::SlotId, WordCount>>{
           {3, 3}, {3, 64}, {3, 8}, {4, 0}, {4, 16}, {3, 64}}) {
    EXPECT_EQ(in_place.StoreZeros(slot, words),
              by_vector.Store(slot, std::vector<Word>(words, Word{0})));
    EXPECT_EQ(in_place.OccupiedWords(), by_vector.OccupiedWords());
    EXPECT_EQ(SavedBytes(in_place), SavedBytes(by_vector));
    std::vector<Word> out;
    in_place.Fetch(slot, words + 2, &out);
    EXPECT_EQ(out, std::vector<Word>(words + 2, Word{0}));
    by_vector.Fetch(slot, words + 2, nullptr);
  }
  EXPECT_EQ(in_place.stores(), 7u);
  EXPECT_EQ(in_place.busy_cycles(), by_vector.busy_cycles());
}

// --- TransferChannel --------------------------------------------------------------

TEST(TransferChannelTest, IdleChannelStartsImmediately) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto done = channel.Schedule(drum, 10, /*now=*/50);
  EXPECT_EQ(done.start, 50u);
  EXPECT_EQ(done.finish, 50u + 100 + 40);
}

TEST(TransferChannelTest, BusyChannelQueues) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto first = channel.Schedule(drum, 10, 0);
  const auto second = channel.Schedule(drum, 10, 0);
  EXPECT_EQ(second.start, first.finish);
  EXPECT_EQ(channel.queueing_cycles(), first.finish);
  EXPECT_EQ(channel.transfers(), 2u);
}

TEST(TransferChannelTest, LaterRequestAfterDrainDoesNotQueue) {
  TransferChannel channel;
  const StorageLevel drum = MakeDrumLevel("drum", 4096, 4, 100);
  const auto first = channel.Schedule(drum, 10, 0);
  const auto second = channel.Schedule(drum, 10, first.finish + 5);
  EXPECT_EQ(second.start, first.finish + 5);
}

TEST(TransferChannelTest, ResetClearsState) {
  TransferChannel channel;
  channel.Schedule(MakeDrumLevel("drum", 4096, 4, 100), 10, 0);
  channel.Reset();
  EXPECT_EQ(channel.busy_until(), 0u);
  EXPECT_EQ(channel.transfers(), 0u);
}

// --- PackingChannel ----------------------------------------------------------------

TEST(PackingChannelTest, CpuCopyScalesPerWord) {
  const PackingChannel cpu = CpuPackingChannel();
  EXPECT_FALSE(cpu.autonomous);
  EXPECT_EQ(cpu.MoveCost(0), 0u);
  EXPECT_EQ(cpu.MoveCost(100), 400u);
}

TEST(PackingChannelTest, AutonomousChannelHasSetupButCheaperWords) {
  const PackingChannel channel = AutonomousPackingChannel();
  EXPECT_TRUE(channel.autonomous);
  EXPECT_EQ(channel.MoveCost(100), 64u + 100);
  // Crossover: for large moves the autonomous channel wins.
  EXPECT_LT(channel.MoveCost(1000), CpuPackingChannel().MoveCost(1000));
}

TEST(BackingStoreTest, MarkBadRetiresSlotAndDropsContent) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.Store(3, std::vector<Word>(16, Word{7}));
  ASSERT_TRUE(store.Contains(3));
  ASSERT_EQ(store.OccupiedWords(), 16u);

  store.MarkBad(3);
  EXPECT_TRUE(store.IsBad(3));
  EXPECT_FALSE(store.Contains(3));   // the content went with the sector
  EXPECT_EQ(store.OccupiedWords(), 0u);
  EXPECT_EQ(store.bad_slot_count(), 1u);
  EXPECT_FALSE(store.IsBad(4));
}

TEST(BackingStoreTest, SpareSlotsAllocateAboveCallerRange) {
  BackingStore store(MakeDrumLevel("drum", 128, 2, 100));
  const auto first = store.AllocateSpareSlot(16);
  const auto second = store.AllocateSpareSlot(16);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_GE(*first, BackingStore::kSpareSlotBase);
  EXPECT_NE(*first, *second);
}

TEST(BackingStoreTest, SpareSlotAllocationRespectsCapacity) {
  BackingStore store(MakeDrumLevel("drum", 128, 2, 100));
  store.Store(0, std::vector<Word>(100, Word{1}));
  EXPECT_TRUE(store.HasRoomFor(28));
  EXPECT_FALSE(store.HasRoomFor(29));
  EXPECT_FALSE(store.AllocateSpareSlot(64).has_value());  // would overflow
  EXPECT_TRUE(store.AllocateSpareSlot(16).has_value());
}

// Transfers against a retired slot must remain hard aborts: the resilience
// layer is required to relocate first, never to retry a dead sector.
TEST(BackingStoreDeathTest, StoreToBadSlotAborts) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.MarkBad(5);
  EXPECT_DEATH(store.Store(5, std::vector<Word>(4, Word{0})), "retired");
}

TEST(BackingStoreDeathTest, StoreZerosToBadSlotAborts) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.MarkBad(5);
  EXPECT_DEATH(store.StoreZeros(5, 4), "retired");
}

TEST(BackingStoreDeathTest, FetchFromBadSlotAborts) {
  BackingStore store(MakeDrumLevel("drum", 1024, 2, 100));
  store.MarkBad(5);
  std::vector<Word> out;
  EXPECT_DEATH(store.Fetch(5, 4, &out), "retired");
  EXPECT_DEATH(store.Fetch(5, 4, nullptr), "retired");
}

}  // namespace
}  // namespace dsa
