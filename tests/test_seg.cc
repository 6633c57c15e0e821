// Unit tests for src/seg: the segment manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/mem/channel.h"
#include "src/seg/segment_manager.h"

namespace dsa {
namespace {

// --- SegmentManager ------------------------------------------------------------------

class SegmentManagerTest : public ::testing::Test {
 protected:
  SegmentManagerTest() { Rebuild({}); }

  void Rebuild(SegmentManagerConfig config) {
    if (config.core_words == 24000) {
      config.core_words = 2048;  // small core so eviction is reachable
      config.max_segment_extent = 1024;
    }
    backing_ = std::make_unique<BackingStore>(
        MakeDrumLevel("drum", 1u << 20, /*word_time=*/2, /*rotational_delay=*/100));
    manager_ = std::make_unique<SegmentManager>(config, backing_.get(), nullptr);
  }

  std::unique_ptr<BackingStore> backing_;
  std::unique_ptr<SegmentManager> manager_;
};

TEST_F(SegmentManagerTest, FetchOnFirstReference) {
  const SegmentId seg = manager_->Create(100);
  EXPECT_FALSE(manager_->IsResident(seg));
  const auto outcome = manager_->Access(seg, 0, AccessKind::kRead, 0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->segment_fault);
  EXPECT_GT(outcome->wait_cycles, 0u);
  EXPECT_TRUE(manager_->IsResident(seg));
  // Second access is a hit with no wait.
  const auto again = manager_->Access(seg, 50, AccessKind::kRead, 1000);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->segment_fault);
  EXPECT_EQ(again->address, PhysicalAddress{outcome->address.value + 50});
}

TEST_F(SegmentManagerTest, BoundsViolationIntercepted) {
  const SegmentId seg = manager_->Create(100);
  const auto outcome = manager_->Access(seg, 100, AccessKind::kRead, 0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, FaultKind::kBoundsViolation);
}

TEST_F(SegmentManagerTest, UnknownSegmentIsInvalid) {
  const auto outcome = manager_->Access(SegmentId{99}, 0, AccessKind::kRead, 0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, FaultKind::kInvalidSegment);
}

TEST_F(SegmentManagerTest, EvictionMakesRoom) {
  // Core is 2048 words; three 1000-word segments cannot coexist.
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  const SegmentId c = manager_->Create(1000);
  Cycles now = 0;
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, now).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, now).has_value());
  const auto outcome = manager_->Access(c, 0, AccessKind::kRead, now);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(manager_->IsResident(c));
  EXPECT_EQ(manager_->stats().evictions, 1u);
  EXPECT_FALSE(manager_->IsResident(a) && manager_->IsResident(b));
}

TEST_F(SegmentManagerTest, ModifiedSegmentWrittenBackOnEviction) {
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  const SegmentId c = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kWrite, 0).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 1).has_value());
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 2).has_value());
  EXPECT_GE(manager_->stats().writebacks, 1u);
}

TEST_F(SegmentManagerTest, RoundTripPreservesResidencyAccounting) {
  const SegmentId a = manager_->Create(500);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
  EXPECT_EQ(manager_->ResidentWords(), 500u);
  manager_->AdviseWontNeed(a, 10);
  EXPECT_EQ(manager_->ResidentWords(), 0u);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 20).has_value());
  EXPECT_EQ(manager_->ResidentWords(), 500u);
}

TEST_F(SegmentManagerTest, WillNeedFetchesOnlyIntoExistingRoom) {
  const SegmentId a = manager_->Create(1000);
  const Cycles cost = manager_->AdviseWillNeed(a, 0);
  EXPECT_GT(cost, 0u);
  EXPECT_TRUE(manager_->IsResident(a));
  // Fill the rest of core, then advise another: no eviction for advice.
  const SegmentId b = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 1).has_value());
  const SegmentId c = manager_->Create(1000);
  EXPECT_EQ(manager_->AdviseWillNeed(c, 2), 0u);
  EXPECT_FALSE(manager_->IsResident(c));
  EXPECT_EQ(manager_->stats().evictions, 0u);
}

TEST_F(SegmentManagerTest, DestroyReleasesCoreAndBacking) {
  const SegmentId a = manager_->Create(500);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kWrite, 0).has_value());
  manager_->AdviseWontNeed(a, 1);  // forces a write-back copy
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 2).has_value());
  manager_->Destroy(a);
  EXPECT_FALSE(manager_->Exists(a));
  EXPECT_EQ(manager_->ResidentWords(), 0u);
  EXPECT_EQ(backing_->slot_count(), 0u);
}

TEST_F(SegmentManagerTest, CompactionRescuesFragmentedCore) {
  SegmentManagerConfig config;
  config.core_words = 2048;
  config.max_segment_extent = 1024;
  config.compact_on_fragmentation = true;
  Rebuild(config);
  // Fill core with four 512-word segments, release two alternating ones:
  // 1024 words free but the largest hole is 512.
  SegmentId segs[4];
  for (auto& seg : segs) {
    seg = manager_->Create(512);
    ASSERT_TRUE(manager_->Access(seg, 0, AccessKind::kRead, 0).has_value());
  }
  manager_->AdviseWontNeed(segs[0], 1);
  manager_->AdviseWontNeed(segs[2], 1);
  // A 1024-word segment now requires compaction rather than eviction.
  const SegmentId big = manager_->Create(1024);
  ASSERT_TRUE(manager_->Access(big, 0, AccessKind::kRead, 2).has_value());
  EXPECT_EQ(manager_->stats().compactions, 1u);
  EXPECT_EQ(manager_->stats().evictions, 2u);  // only the advised releases
  // The surviving segments must still be accessible at their new homes.
  EXPECT_TRUE(manager_->Access(segs[1], 100, AccessKind::kRead, 3).has_value());
  EXPECT_TRUE(manager_->Access(segs[3], 100, AccessKind::kRead, 3).has_value());
  // Each segment still owns exactly its own block.
  manager_->Destroy(segs[1]);
  EXPECT_EQ(manager_->ResidentWords(), 1024u + 512u);
  manager_->Destroy(segs[3]);
  EXPECT_EQ(manager_->ResidentWords(), 1024u);
}

TEST_F(SegmentManagerTest, RiceSecondChancePrefersCleanBackedSegments) {
  SegmentManagerConfig config;
  config.core_words = 2048;
  config.max_segment_extent = 1024;
  config.replacement = SegmentReplacementKind::kRiceSecondChance;
  Rebuild(config);
  const SegmentId clean = manager_->Create(1000);
  const SegmentId dirty = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(clean, 0, AccessKind::kRead, 0).has_value());
  // Give `clean` a backing copy by evicting and refetching it.
  manager_->AdviseWontNeed(clean, 1);
  ASSERT_TRUE(manager_->Access(clean, 0, AccessKind::kRead, 2).has_value());
  ASSERT_TRUE(manager_->Access(dirty, 0, AccessKind::kWrite, 3).has_value());
  const std::uint64_t writebacks_before = manager_->stats().writebacks;
  // Pressure: the clean, backed segment should be the victim (free discard).
  const SegmentId incoming = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(incoming, 0, AccessKind::kRead, 4).has_value());
  EXPECT_FALSE(manager_->IsResident(clean));
  EXPECT_TRUE(manager_->IsResident(dirty));
  EXPECT_EQ(manager_->stats().writebacks, writebacks_before);
}

TEST_F(SegmentManagerTest, CyclicReplacementSweepsSegments) {
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 1).has_value());
  const SegmentId c = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 2).has_value());
  EXPECT_FALSE(manager_->IsResident(a));  // cursor starts at the lowest id
  const SegmentId d = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(d, 0, AccessKind::kRead, 3).has_value());
  EXPECT_FALSE(manager_->IsResident(b));  // sweep continues, not LRU/restart
}

// --- Victim choice pins --------------------------------------------------------------

// Drives a seeded stream of every operation that changes residency (create,
// access, destroy and wont-need, over mixed extents so holes differ in size)
// and folds the residency of each live
// segment plus the manager's and backing store's counters after every step
// into `fold`.  Any change to which segment a policy overlays changes them.
void DriveVictimChoiceStream(SegmentReplacementKind kind, bool compact, bool with_channel,
                             SnapshotWriter* fold) {
  BackingStore backing(
      MakeDrumLevel("drum", 1u << 22, /*word_time=*/2, /*rotational_delay=*/100));
  TransferChannel channel;
  SegmentManagerConfig config;
  config.core_words = 4096;
  config.max_segment_extent = 1024;
  config.replacement = kind;
  config.compact_on_fragmentation = compact;
  SegmentManager manager(config, &backing, with_channel ? &channel : nullptr);

  Rng rng(0x5e9'0000 + static_cast<std::uint64_t>(kind) * 2 + (compact ? 1 : 0));
  auto random_extent = [&rng]() -> WordCount {
    switch (rng.Below(3)) {
      case 0:
        return rng.Between(8, 96);
      case 1:
        return rng.Between(200, 600);
      default:
        return rng.Between(700, 1024);
    }
  };
  std::vector<SegmentId> live;  // ascending ids: Create hands them out in order

  Cycles now = 0;
  for (int step = 0; step < 3000; ++step) {
    // The clock often stands still, so hits tie on last use and LRU's
    // lowest-id tie-break decides.
    if (rng.Below(3) == 0) {
      now += 1 + rng.Below(50);
    }
    const std::uint64_t op = rng.Below(100);
    fold->U64(op);
    if (live.size() < 4 || (op < 8 && live.size() < 48)) {
      live.push_back(manager.Create(random_extent()));
    } else if (op < 86) {
      const SegmentId s = live[rng.Below(live.size())];
      const AccessKind access = rng.Chance(0.3) ? AccessKind::kWrite : AccessKind::kRead;
      const auto outcome = manager.Access(s, rng.Below(manager.ExtentOf(s)), access, now);
      ASSERT_TRUE(outcome.has_value());
      fold->U64(outcome->address.value);
      fold->U64(outcome->segment_fault ? 1 : 0);
      fold->U64(outcome->wait_cycles);
      now += outcome->wait_cycles;
    } else if (op < 92) {
      std::vector<SegmentId> resident;
      for (SegmentId s : live) {
        if (manager.IsResident(s)) {
          resident.push_back(s);
        }
      }
      if (!resident.empty()) {
        const SegmentId s = resident[rng.Below(resident.size())];
        manager.Destroy(s);
        live.erase(std::find(live.begin(), live.end(), s));
      }
    } else {
      manager.AdviseWontNeed(live[rng.Below(live.size())], now);
    }

    for (SegmentId s : live) {
      fold->U64(manager.IsResident(s) ? 1 : 0);
    }
    const SegmentManagerStats& stats = manager.stats();
    for (std::uint64_t v : {stats.accesses, stats.segment_faults, stats.evictions,
                            stats.writebacks, stats.compactions, stats.words_compacted,
                            stats.wait_cycles, stats.compaction_cycles}) {
      fold->U64(v);
    }
    fold->U64(manager.ResidentWords());
    fold->U64(backing.fetches());
    fold->U64(backing.stores());
    fold->U64(backing.busy_cycles());
  }
  if (compact) {
    EXPECT_GT(manager.stats().compactions, 0u);
  }
}

std::uint64_t VictimChoiceFingerprint(SegmentReplacementKind kind) {
  SnapshotWriter fold;
  DriveVictimChoiceStream(kind, /*compact=*/false, /*with_channel=*/false, &fold);
  DriveVictimChoiceStream(kind, /*compact=*/true, /*with_channel=*/true, &fold);
  return Fnv64(fold.TakePayload());
}

// Recorded with the segment manager's pinning and resize paths still in
// place, so their removal is held to the same victim choices.
TEST(SegmentVictimChoiceTest, PinnedPerPolicy) {
  for (const auto& [kind, expected] :
       {std::pair{SegmentReplacementKind::kCyclic, 0xbd459943b11ef76eULL},
        std::pair{SegmentReplacementKind::kLru, 0x494f3574e36879d3ULL},
        std::pair{SegmentReplacementKind::kRiceSecondChance, 0x21ec18c5e5dc8b96ULL}}) {
    EXPECT_EQ(VictimChoiceFingerprint(kind), expected)
        << "kind " << static_cast<int>(kind) << std::hex << " got 0x"
        << VictimChoiceFingerprint(kind);
  }
}

TEST_F(SegmentManagerTest, CyclicCursorWrapsPastHighestResident) {
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  const SegmentId c = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 1).has_value());
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 2).has_value());  // evicts a
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 3).has_value());  // evicts b
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 4).has_value());  // evicts c
  EXPECT_TRUE(manager_->IsResident(a));
  EXPECT_TRUE(manager_->IsResident(b));
  EXPECT_FALSE(manager_->IsResident(c));
  // The cursor now sits past the highest resident id: the sweep wraps to a.
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 5).has_value());
  EXPECT_FALSE(manager_->IsResident(a));
  EXPECT_TRUE(manager_->IsResident(b));
  EXPECT_TRUE(manager_->IsResident(c));
  EXPECT_EQ(manager_->stats().evictions, 4u);
}

TEST_F(SegmentManagerTest, CyclicWrapReachesTheIdJustBelowTheCursor) {
  SegmentManagerConfig config;
  config.core_words = 2000;
  config.max_segment_extent = 1024;
  Rebuild(config);
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  const SegmentId c = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 1).has_value());
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 2).has_value());  // evicts a
  manager_->Destroy(c);
  // a returns into c's hole without an eviction, so the cursor still sits
  // just past it.  With b released, a is the only resident segment, and a
  // 1024-word segment does not fit beside it: the wrap must reach a.
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 3).has_value());
  manager_->AdviseWontNeed(b, 4);
  const SegmentId d = manager_->Create(1024);
  ASSERT_TRUE(manager_->Access(d, 0, AccessKind::kRead, 5).has_value());
  EXPECT_FALSE(manager_->IsResident(a));
  EXPECT_TRUE(manager_->IsResident(d));
  EXPECT_EQ(manager_->stats().evictions, 3u);
}

TEST_F(SegmentManagerTest, LruBreaksTiesTowardLowestId) {
  SegmentManagerConfig config;
  config.core_words = 2048;
  config.max_segment_extent = 1024;
  config.replacement = SegmentReplacementKind::kLru;
  Rebuild(config);
  const SegmentId a = manager_->Create(1000);
  const SegmentId b = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
  ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kRead, 0).has_value());
  // Both hit at the same time, b first: equal last use.
  ASSERT_TRUE(manager_->Access(b, 1, AccessKind::kRead, 5000).has_value());
  ASSERT_TRUE(manager_->Access(a, 1, AccessKind::kRead, 5000).has_value());
  const SegmentId c = manager_->Create(1000);
  ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 5001).has_value());
  EXPECT_FALSE(manager_->IsResident(a));
  EXPECT_TRUE(manager_->IsResident(b));
}

TEST_F(SegmentManagerTest, DestroyedIdStaysInvalidAndIsNeverAVictim) {
  for (SegmentReplacementKind kind :
       {SegmentReplacementKind::kCyclic, SegmentReplacementKind::kLru,
        SegmentReplacementKind::kRiceSecondChance}) {
    SegmentManagerConfig config;
    config.core_words = 2048;
    config.max_segment_extent = 1024;
    config.replacement = kind;
    Rebuild(config);
    // `a` has the lowest id and the oldest use: every policy would pick it
    // first if its residency outlived it.
    const SegmentId a = manager_->Create(1000);
    const SegmentId b = manager_->Create(1000);
    ASSERT_TRUE(manager_->Access(a, 0, AccessKind::kRead, 0).has_value());
    ASSERT_TRUE(manager_->Access(b, 0, AccessKind::kWrite, 1).has_value());
    ASSERT_EQ(manager_->segment_count(), 2u);
    manager_->Destroy(a);
    EXPECT_FALSE(manager_->Exists(a));
    EXPECT_EQ(manager_->segment_count(), 1u);
    const auto gone = manager_->Access(a, 0, AccessKind::kRead, 2);
    ASSERT_FALSE(gone.has_value());
    EXPECT_EQ(gone.error().kind, FaultKind::kInvalidSegment);
    EXPECT_EQ(gone.error().segment, a);

    const SegmentId c = manager_->Create(1000);
    EXPECT_NE(c, a);
    EXPECT_GT(c.value, b.value);
    EXPECT_EQ(manager_->segment_count(), 2u);
    ASSERT_TRUE(manager_->Access(c, 0, AccessKind::kRead, 3).has_value());  // a's hole
    EXPECT_EQ(manager_->stats().evictions, 0u);

    // Core is full: the next fault must evict a live segment, never `a`.
    const SegmentId d = manager_->Create(1000);
    ASSERT_TRUE(manager_->Access(d, 0, AccessKind::kRead, 4).has_value());
    EXPECT_EQ(manager_->stats().evictions, 1u);
    EXPECT_FALSE(manager_->Exists(a));
    EXPECT_TRUE(manager_->IsResident(d));
    EXPECT_NE(manager_->IsResident(b), manager_->IsResident(c));
    EXPECT_EQ(manager_->segment_count(), 3u);
    EXPECT_EQ(manager_->ResidentWords(), 2000u);
  }
}

TEST(SegmentManagerDeathTest, OversizedCreateAborts) {
  BackingStore backing(MakeDrumLevel("drum", 1u << 20, 2, 100));
  SegmentManagerConfig config;
  config.core_words = 2048;
  config.max_segment_extent = 1024;
  SegmentManager manager(config, &backing, nullptr);
  EXPECT_DEATH(manager.Create(2000), "maximum extent");
}

}  // namespace
}  // namespace dsa
