// Tests for paging over a drum+disk backing hierarchy.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/mem/fault_injection.h"
#include "src/obs/export.h"
#include "src/obs/tracer.h"
#include "tests/drum_disk_rig.h"

namespace dsa {
namespace {

constexpr PagerConfig kCore{.page_words = 64, .frames = 4};

DrumDiskConfig SmallConfig() {
  DrumDiskConfig config;
  config.drum_pages = 8;
  config.drum_level = MakeDrumLevel("drum", 1u << 16, /*word_time=*/2,
                                    /*rotational_delay=*/200);
  config.disk_level = MakeDiskLevel("disk", 1u << 20, /*word_time=*/4,
                                    /*seek_plus_rotation=*/5000);
  return config;
}

// One reference; the stall the program sees.
Cycles Read(Pager& pager, std::uint64_t page, Cycles now) {
  return pager.Access(PageId{page}, AccessKind::kRead, now)->wait_cycles;
}

TEST(HierarchyPagerTest, FirstTouchIsZeroFillWithNoTransfer) {
  DrumDiskRig rig(kCore, SmallConfig());
  const Cycles wait = Read(rig.pager, 1, 0);
  EXPECT_EQ(wait, 0u);
  EXPECT_EQ(rig.tiers.stats().zero_fills, 1u);
  EXPECT_EQ(rig.tiers.stats().drum_hits, 0u);
  EXPECT_TRUE(rig.pager.IsResident(PageId{1}));
}

TEST(HierarchyPagerTest, EvictedPageLandsOnDrumAndComesBackFast) {
  DrumDiskRig rig(kCore, SmallConfig());
  Cycles now = 0;
  // Fill the 4 frames, then push page 0 out.
  for (std::uint64_t p = 0; p <= 4; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  EXPECT_FALSE(rig.pager.IsResident(PageId{0}));
  EXPECT_EQ(rig.tiers.drum_page_count(), 1u);
  // Refetch once the drum channel is quiet.  The fault must first write the
  // LRU victim to the drum, then read page 0 behind it on the same channel:
  // two drum transfers of (200 + 64*2) = 328 cycles each — still far below
  // the disk's 5000-cycle start-up.
  const Cycles wait = Read(rig.pager, 0, now + 100000);
  EXPECT_EQ(rig.tiers.stats().drum_hits, 1u);
  EXPECT_EQ(wait, 2 * (200u + 64 * 2));
}

TEST(HierarchyPagerTest, DrumOverflowDemotesToDisk) {
  DrumDiskConfig config = SmallConfig();
  config.drum_pages = 2;  // tiny drum: the third eviction demotes
  DrumDiskRig rig(kCore, config);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 12; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  EXPECT_GT(rig.tiers.stats().demotions, 0u);
  EXPECT_LE(rig.tiers.drum_page_count(), 2u);
}

TEST(HierarchyPagerTest, DiskFaultCostsMoreThanDrumFault) {
  DrumDiskConfig config = SmallConfig();
  config.drum_pages = 1;
  DrumDiskRig rig(kCore, config);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 8; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  // Pages 0..2 have been demoted to disk; page 6 sits on the drum (page 7's
  // eviction may vary) — fetch the definitely-disk page 0.
  const Cycles disk_wait = Read(rig.pager, 0, now + 100000);
  EXPECT_GE(disk_wait, 5000u);
  EXPECT_GT(rig.tiers.stats().disk_hits, 0u);
}

TEST(HierarchyPagerTest, PromotionStagesDiskFaultedPagesOnDrum) {
  DrumDiskConfig config = SmallConfig();
  config.drum_pages = 1;
  config.demotion = DemotionPolicy::kAlwaysDisk;
  config.promote_on_disk_fault = true;
  DrumDiskRig rig(kCore, config);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 8; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  // Fault page 0 back from disk (promotion evidence), then evict it again.
  now += Read(rig.pager, 0, now) + 1;
  for (std::uint64_t p = 20; p < 24; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  // The re-eviction staged page 0 on the drum despite kAlwaysDisk.
  EXPECT_EQ(rig.tiers.drum_page_count(), 1u);
  const Cycles wait = Read(rig.pager, 0, now + 100000);
  EXPECT_EQ(rig.tiers.stats().drum_hits, 1u);
  EXPECT_LT(wait, 5000u);
}

TEST(HierarchyPagerTest, AlwaysDiskPolicySkipsTheDrum) {
  DrumDiskConfig config = SmallConfig();
  config.demotion = DemotionPolicy::kAlwaysDisk;
  config.promote_on_disk_fault = false;
  DrumDiskRig rig(kCore, config);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 12; ++p) {
    now += Read(rig.pager, p, now) + 1;
  }
  EXPECT_EQ(rig.tiers.drum_page_count(), 0u);
  EXPECT_EQ(rig.tiers.stats().demotions, 0u);
}

TEST(HierarchyPagerTest, DrumServiceFractionSummarises) {
  DrumDiskRig rig(kCore, SmallConfig());
  Cycles now = 0;
  // Loop over 6 pages with 4 frames: steady re-faulting, all served by drum.
  for (int lap = 0; lap < 10; ++lap) {
    for (std::uint64_t p = 0; p < 6; ++p) {
      now += Read(rig.pager, p, now) + 1;
    }
  }
  EXPECT_GT(rig.tiers.stats().drum_hits, 0u);
  EXPECT_DOUBLE_EQ(rig.tiers.stats().DrumServiceFraction(), 1.0);
}

TEST(HierarchyPagerTest, StatsAccumulateConsistently) {
  DrumDiskRig rig(kCore, SmallConfig());
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 20; ++p) {
    now += rig.pager.Access(PageId{p % 7}, AccessKind::kWrite, now)->wait_cycles + 1;
  }
  const PagerStats& stats = rig.pager.stats();
  const DrumDiskStats& tiers = rig.tiers.stats();
  EXPECT_EQ(stats.accesses, 20u);
  EXPECT_EQ(stats.faults, tiers.drum_hits + tiers.disk_hits + tiers.zero_fills);
  EXPECT_GE(stats.writebacks, tiers.demotions);
}

// Pins every recovery path of the drum+disk pager at once: transient and
// permanent transfer faults on both levels, drum spare slots running out
// (spills to disk), and core parity retiring frames.  The digests cover the
// tracer's event JSONL and every stats field, so any change to the fault
// loop's order of draws, charges or events shows here.  They were re-pinned
// when a transient retry after a relocation began rewriting the spare it had
// just tried instead of taking a second one.
TEST(HierarchyPagerTest, SeededFaultStreamKeepsItsPinnedDigest) {
  DrumDiskConfig config = SmallConfig();
  // Room for six pages: with the drum near its eight-page limit a bad drum
  // slot finds no spare and the page spills to disk.
  config.drum_level = MakeDrumLevel("drum", 6 * 64, /*word_time=*/2, /*rotational_delay=*/200);
  FaultInjectorConfig faults;
  faults.seed = 0x41e5;
  faults.rates.frame_failure = 0.002;
  faults.level_rates[0] = FaultRates{0.05, 0.02, 0.0};
  faults.level_rates[1] = FaultRates{0.04, 0.01, 0.0};
  FaultInjector injector(faults);
  EventTracer tracer(/*capacity=*/0);
  DrumDiskRig rig(PagerConfig{.page_words = 64, .frames = 8}, config, &injector);
  Pager& pager = rig.pager;
  pager.SetTracer(&tracer);

  Rng rng(0x41e);
  SnapshotWriter trail;
  std::uint64_t page = 0;
  Cycles now = 0;
  for (int step = 0; step < 6000; ++step) {
    if (rng.Below(8) == 0) {
      page = rng.Below(40);
    } else if (rng.Below(10) < 4) {
      page = (page + 1) % 40;
    }
    const AccessKind kind = rng.Below(4) == 0 ? AccessKind::kWrite : AccessKind::kRead;
    const PageAccessResult outcome = pager.Access(PageId{page}, kind, now);
    const Cycles wait =
        outcome.has_value() ? outcome->wait_cycles : outcome.error().wait_cycles;
    trail.U64(outcome.has_value() ? 0 : 1 + static_cast<std::uint64_t>(outcome.error().kind));
    trail.U64(wait);
    now += wait + 1 + rng.Below(3);
  }
  const PagerStats& stats = pager.stats();
  const DrumDiskStats& tiers = rig.tiers.stats();
  const ReliabilityStats& rel = stats.reliability;
  for (const std::uint64_t field :
       {stats.accesses, stats.faults, tiers.drum_hits, tiers.disk_hits, tiers.zero_fills,
        tiers.demotions, stats.writebacks, stats.wait_cycles, rel.transient_errors, rel.retries,
        rel.retry_cycles, rel.slot_failures, rel.relocations, rel.spill_relocations,
        rel.frame_failures, rel.retired_frames, rel.residual_frames, rel.failed_accesses,
        rel.lost_pages, static_cast<std::uint64_t>(rig.tiers.drum_page_count()),
        static_cast<std::uint64_t>(pager.frames().retired_count())}) {
    trail.U64(field);
  }
  // Every recovery path ran, so the digest guards each of them.
  EXPECT_GT(tiers.drum_hits, 0u);
  EXPECT_GT(tiers.disk_hits, 0u);
  EXPECT_GT(tiers.demotions, 0u);
  EXPECT_GT(rel.retries, 0u);
  EXPECT_GT(rel.relocations, 0u);
  EXPECT_GT(rel.spill_relocations, 0u);
  EXPECT_GT(rel.frame_failures, 0u);
  EXPECT_GT(rel.lost_pages, 0u);
  EXPECT_GT(rel.failed_accesses, 0u);

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv64(trail.TakePayload())));
  EXPECT_STREQ(digest, "e2c3d15136bd04c1");
  if (DSA_TRACE) {
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv64(EventsToJsonl(tracer.Snapshot()))));
    EXPECT_STREQ(digest, "6e0c6365bf339f9b");
  }
}

}  // namespace
}  // namespace dsa
