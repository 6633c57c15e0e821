// Fault-injection and resilience tests.
//
//   * The fault-parity guarantee: a zero-rate FaultInjector is bit-identical
//     in observable behaviour to no injector at all — victim sequences,
//     fault counts, every PagerStats field, and the backing store's transfer
//     counters all agree.
//   * Determinism: same injector seed + same trace => identical
//     ReliabilityStats.
//   * Recovery paths, scripted fault by fault: transient retries (with fresh
//     latency charges), retry exhaustion, permanent-slot relocation
//     round-trips, frame-failure retirement, and the all-pinned
//     kNoUsableFrames error.
//   * The same guarantees for the HierarchyPager.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/core/rng.h"
#include "src/mem/fault_injection.h"
#include "src/paging/hierarchy_pager.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_simple.h"
#include "tests/replacement_naive.h"

namespace dsa {
namespace {

// --- scripted injector -------------------------------------------------------

// Replays an exact fault schedule instead of drawing randomly; unscripted
// draws are clean.  Rates stay zero so the base class never consumes RNG.
class ScriptedInjector : public FaultInjector {
 public:
  explicit ScriptedInjector(int max_retries = 3) : FaultInjector(MakeConfig(max_retries)) {}

  TransferFaultKind DrawTransferFault(std::size_t level) override {
    (void)level;
    if (transfer_script_.empty()) {
      return TransferFaultKind::kNone;
    }
    const TransferFaultKind next = transfer_script_.front();
    transfer_script_.pop_front();
    return next;
  }

  bool DrawFrameFailure() override {
    if (frame_script_.empty()) {
      return false;
    }
    const bool next = frame_script_.front();
    frame_script_.pop_front();
    return next;
  }

  void ScriptTransfer(TransferFaultKind kind) { transfer_script_.push_back(kind); }
  void ScriptFrameFailure(bool fails) { frame_script_.push_back(fails); }

 private:
  static FaultInjectorConfig MakeConfig(int max_retries) {
    FaultInjectorConfig config;
    config.max_retries = max_retries;
    return config;
  }

  std::deque<TransferFaultKind> transfer_script_;
  std::deque<bool> frame_script_;
};

// --- injector unit behaviour -------------------------------------------------

TEST(FaultInjectorTest, ZeroRatesDrawNothing) {
  FaultInjector injector{FaultInjectorConfig{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(injector.DrawTransferFault(0), TransferFaultKind::kNone);
    EXPECT_FALSE(injector.DrawFrameFailure());
  }
}

TEST(FaultInjectorTest, CertainRatesAlwaysFire) {
  FaultInjectorConfig config;
  config.rates.transient_transfer = 1.0;
  config.rates.frame_failure = 1.0;
  FaultInjector injector(config);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.DrawTransferFault(0), TransferFaultKind::kTransient);
    EXPECT_TRUE(injector.DrawFrameFailure());
  }
}

TEST(FaultInjectorTest, PerLevelOverridesApply) {
  FaultInjectorConfig config;
  config.rates.transient_transfer = 1.0;   // default: always transient
  config.level_rates[1] = FaultRates{};    // level 1: quiet
  FaultInjector injector(config);
  EXPECT_EQ(injector.DrawTransferFault(0), TransferFaultKind::kTransient);
  EXPECT_EQ(injector.DrawTransferFault(1), TransferFaultKind::kNone);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjectorConfig config;
  config.seed = 77;
  config.rates.transient_transfer = 0.3;
  config.rates.permanent_slot = 0.1;
  config.rates.frame_failure = 0.2;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.DrawTransferFault(0), b.DrawTransferFault(0)) << "draw " << i;
    ASSERT_EQ(a.DrawFrameFailure(), b.DrawFrameFailure()) << "draw " << i;
  }
}

// --- pager-level parity ------------------------------------------------------

// Records every victim a wrapped policy chooses.
class RecordingPolicy : public ReplacementPolicy {
 public:
  RecordingPolicy(std::unique_ptr<ReplacementPolicy> inner, std::vector<FrameId>* victims)
      : inner_(std::move(inner)), victims_(victims) {}

  void OnLoad(FrameId frame, PageId page, Cycles now) override {
    inner_->OnLoad(frame, page, now);
  }
  void OnAccess(FrameId frame, PageId page, Cycles now, bool write) override {
    inner_->OnAccess(frame, page, now, write);
  }
  void OnEvict(FrameId frame, PageId page) override { inner_->OnEvict(frame, page); }
  FrameId ChooseVictim(FrameTable* frames, Cycles now) override {
    const FrameId victim = inner_->ChooseVictim(frames, now);
    victims_->push_back(victim);
    return victim;
  }
  std::vector<FrameId> FramesToRelease(FrameTable* frames, Cycles now) override {
    return inner_->FramesToRelease(frames, now);
  }
  ReplacementStrategyKind kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
  std::vector<FrameId>* victims_;
};

std::vector<PageId> MixedPageTrace(std::uint64_t seed, std::size_t length,
                                   std::uint64_t pages) {
  Rng rng(seed);
  std::vector<PageId> refs;
  refs.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    // Mix a hot region with uniform spray so hits and faults interleave.
    if (rng.Below(100) < 60) {
      refs.push_back(PageId{rng.Below(pages / 8)});
    } else {
      refs.push_back(PageId{rng.Below(pages)});
    }
  }
  return refs;
}

struct Replay {
  PagerStats stats;
  std::vector<FrameId> victims;
  std::uint64_t backing_stores{0};
  std::uint64_t backing_fetches{0};
  Cycles end_time{0};
};

// Replays a trace (every third reference writes, so dirty evictions exercise
// the write-back paths) and snapshots everything observable.
Replay ReplayTrace(const std::vector<PageId>& refs, std::size_t frames,
                   std::unique_ptr<ReplacementPolicy> policy, FaultInjector* injector) {
  Replay replay;
  BackingStore backing(MakeDrumLevel("drum", 1u << 20, /*word_time=*/2,
                                     /*rotational_delay=*/100));
  TransferChannel channel;
  PagerConfig config;
  config.page_words = 16;
  config.frames = frames;
  Pager pager(config, &backing, &channel,
              std::make_unique<RecordingPolicy>(std::move(policy), &replay.victims),
              std::make_unique<DemandFetch>(), /*advice=*/nullptr, injector);
  Cycles now = 0;
  std::size_t i = 0;
  for (const PageId page : refs) {
    const AccessKind kind = (i++ % 3 == 0) ? AccessKind::kWrite : AccessKind::kRead;
    const auto outcome = pager.Access(page, kind, now);
    now += 1 + (outcome.has_value() ? outcome->wait_cycles : outcome.error().wait_cycles);
  }
  replay.stats = pager.stats();
  replay.backing_stores = backing.stores();
  replay.backing_fetches = backing.fetches();
  replay.end_time = now;
  return replay;
}

void ExpectStatsEqual(const PagerStats& a, const PagerStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.demand_fetches, b.demand_fetches);
  EXPECT_EQ(a.extra_fetches, b.extra_fetches);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.advised_releases, b.advised_releases);
  EXPECT_EQ(a.policy_releases, b.policy_releases);
  EXPECT_EQ(a.wait_cycles, b.wait_cycles);
  EXPECT_EQ(a.transfer_cycles, b.transfer_cycles);
}

void ExpectReliabilityEqual(const ReliabilityStats& a, const ReliabilityStats& b) {
  EXPECT_EQ(a.transient_errors, b.transient_errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_cycles, b.retry_cycles);
  EXPECT_EQ(a.slot_failures, b.slot_failures);
  EXPECT_EQ(a.relocations, b.relocations);
  EXPECT_EQ(a.spill_relocations, b.spill_relocations);
  EXPECT_EQ(a.frame_failures, b.frame_failures);
  EXPECT_EQ(a.retired_frames, b.retired_frames);
  EXPECT_EQ(a.residual_frames, b.residual_frames);
  EXPECT_EQ(a.failed_accesses, b.failed_accesses);
  EXPECT_EQ(a.lost_pages, b.lost_pages);
}

TEST(FaultParityTest, ZeroRateInjectorIsBitIdenticalToNoInjector) {
  for (std::uint64_t seed : {17u, 170u, 1700u}) {
    const auto refs = MixedPageTrace(seed, 20000, 256);
    FaultInjector zero_rate{FaultInjectorConfig{}};
    const Replay without =
        ReplayTrace(refs, 64, std::make_unique<LruReplacement>(), nullptr);
    const Replay with =
        ReplayTrace(refs, 64, std::make_unique<LruReplacement>(), &zero_rate);
    ExpectStatsEqual(without.stats, with.stats);
    ASSERT_EQ(without.victims, with.victims) << "seed " << seed;
    EXPECT_EQ(without.backing_stores, with.backing_stores);
    EXPECT_EQ(without.backing_fetches, with.backing_fetches);
    EXPECT_EQ(without.end_time, with.end_time);
    EXPECT_TRUE(with.stats.reliability.Quiet());
    EXPECT_EQ(with.stats.reliability.residual_frames, 64u);
  }
}

// The O(1) intrusive-list engines and the naive scan engines must stay in
// lockstep when frames retire mid-trace: retired frames are out of every
// victim scan by construction, whichever engine runs.
TEST(FaultParityTest, ScanEnginesAgreeUnderFrameRetirement) {
  const auto refs = MixedPageTrace(29, 12000, 256);
  FaultInjectorConfig config;
  config.seed = 5150;
  config.rates.frame_failure = 0.01;
  FaultInjector injector_fast(config);
  FaultInjector injector_scan(config);
  const Replay fast =
      ReplayTrace(refs, 48, std::make_unique<LruReplacement>(), &injector_fast);
  const Replay scan =
      ReplayTrace(refs, 48, std::make_unique<ScanLruReplacement>(), &injector_scan);
  EXPECT_GT(fast.stats.reliability.frame_failures, 0u);
  ExpectStatsEqual(fast.stats, scan.stats);
  ExpectReliabilityEqual(fast.stats.reliability, scan.stats.reliability);
  ASSERT_EQ(fast.victims, scan.victims);
  EXPECT_EQ(fast.end_time, scan.end_time);
}

TEST(FaultParityTest, SameSeedSameTraceSameReliabilityStats) {
  const auto refs = MixedPageTrace(3, 15000, 256);
  FaultInjectorConfig config;
  config.seed = 424242;
  config.rates.transient_transfer = 0.01;
  config.rates.permanent_slot = 0.002;
  config.rates.frame_failure = 0.0005;
  Replay a, b;
  {
    FaultInjector injector(config);
    a = ReplayTrace(refs, 64, std::make_unique<LruReplacement>(), &injector);
  }
  {
    FaultInjector injector(config);
    b = ReplayTrace(refs, 64, std::make_unique<LruReplacement>(), &injector);
  }
  ExpectStatsEqual(a.stats, b.stats);
  ExpectReliabilityEqual(a.stats.reliability, b.stats.reliability);
  ASSERT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_FALSE(a.stats.reliability.Quiet());  // the rates are high enough to fire
}

// --- scripted recovery paths -------------------------------------------------

constexpr WordCount kPage = 64;
constexpr std::size_t kFrames = 3;

// Bundles a pager with the stores it points at, so several rigs can coexist
// in one test without dangling pointers.
struct PagerRig {
  std::unique_ptr<BackingStore> backing;
  std::unique_ptr<TransferChannel> channel;
  std::unique_ptr<AdviceRegistry> advice;
  std::unique_ptr<Pager> pager;
};

PagerRig MakeRig(FaultInjector* injector, bool with_advice = false) {
  PagerRig rig;
  rig.backing = std::make_unique<BackingStore>(
      MakeDrumLevel("drum", 1u << 16, /*word_time=*/2, /*rotational_delay=*/100));
  rig.channel = std::make_unique<TransferChannel>();
  if (with_advice) {
    rig.advice = std::make_unique<AdviceRegistry>();
  }
  PagerConfig config;
  config.page_words = kPage;
  config.frames = kFrames;
  rig.pager = std::make_unique<Pager>(config, rig.backing.get(), rig.channel.get(),
                                      std::make_unique<LruReplacement>(),
                                      std::make_unique<DemandFetch>(), rig.advice.get(),
                                      injector);
  return rig;
}

TEST(ResilientPagerTest, TransientErrorRetriesWithFreshLatencyCharge) {
  ScriptedInjector clean;
  PagerRig reference = MakeRig(&clean);
  const Cycles clean_wait =
      reference.pager->Access(PageId{0}, AccessKind::kRead, 0)->wait_cycles;

  ScriptedInjector faulty;
  faulty.ScriptTransfer(TransferFaultKind::kTransient);  // fetch attempt 1 fails
  PagerRig rig = MakeRig(&faulty);                       // attempt 2 is clean
  const auto outcome = rig.pager->Access(PageId{0}, AccessKind::kRead, 0);
  ASSERT_TRUE(outcome.has_value());
  // The retry re-ran the whole transfer: rotational latency + words, twice.
  EXPECT_EQ(outcome->wait_cycles, 2 * clean_wait);
  const ReliabilityStats& rel = rig.pager->stats().reliability;
  EXPECT_EQ(rel.transient_errors, 1u);
  EXPECT_EQ(rel.retries, 1u);
  EXPECT_EQ(rel.retry_cycles, clean_wait);
  EXPECT_EQ(rel.failed_accesses, 0u);
  EXPECT_TRUE(rig.pager->IsResident(PageId{0}));
}

TEST(ResilientPagerTest, RetryExhaustionReturnsTransferFailed) {
  FaultInjectorConfig config;
  config.max_retries = 2;
  config.rates.transient_transfer = 1.0;
  FaultInjector injector(config);
  PagerRig rig = MakeRig(&injector);
  const auto outcome = rig.pager->Access(PageId{0}, AccessKind::kRead, 0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, PageAccessErrorKind::kTransferFailed);
  EXPECT_GT(outcome.error().wait_cycles, 0u);  // the failed attempts cost time
  const ReliabilityStats& rel = rig.pager->stats().reliability;
  EXPECT_EQ(rel.transient_errors, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(rel.retries, 2u);
  EXPECT_EQ(rel.failed_accesses, 1u);
  EXPECT_FALSE(rig.pager->IsResident(PageId{0}));
  // The frame went back to the free pool; the pager runs on at capacity.
  EXPECT_EQ(rig.pager->frames().free_count(), kFrames);
}

TEST(ResilientPagerTest, PermanentWriteFailureRelocatesAndRoundTrips) {
  ScriptedInjector injector;
  PagerRig rig = MakeRig(&injector);
  Pager& pager = *rig.pager;
  Cycles now = 0;
  now += pager.Access(PageId{0}, AccessKind::kWrite, now)->wait_cycles + 1;  // dirty
  for (std::uint64_t p = 1; p < kFrames; ++p) {
    now += pager.Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  // The next fault evicts dirty page 0.  Script its write-back: the first
  // store's write-check finds a bad sector, the retry relocates to a spare.
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);  // write-back try 1
  injector.ScriptTransfer(TransferFaultKind::kNone);           // write-back try 2
  now += pager.Access(PageId{3}, AccessKind::kRead, now)->wait_cycles + 1;

  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.relocations, 1u);
  EXPECT_EQ(rel.lost_pages, 0u);
  EXPECT_TRUE(rig.backing->IsBad(0));  // page 0's identity slot is retired
  EXPECT_EQ(rig.backing->bad_slot_count(), 1u);

  // Fetching page 0 back must read the spare slot, not the bad one.
  const auto again = pager.Access(PageId{0}, AccessKind::kRead, now);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->faulted);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
  EXPECT_EQ(rel.failed_accesses, 0u);
}

TEST(ResilientPagerTest, PermanentReadFailureLosesOnlyCopy) {
  ScriptedInjector injector;
  PagerRig rig = MakeRig(&injector);
  Pager& pager = *rig.pager;
  Cycles now = 0;
  now += pager.Access(PageId{0}, AccessKind::kWrite, now)->wait_cycles + 1;  // dirty
  for (std::uint64_t p = 1; p <= kFrames; ++p) {  // evicts page 0, writes it back
    now += pager.Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  ASSERT_TRUE(rig.backing->Contains(0));

  // The drum copy is the page's only copy; reading it hits a bad sector.
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);
  const auto outcome = pager.Access(PageId{0}, AccessKind::kRead, now);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, PageAccessErrorKind::kSlotUnreadable);
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.lost_pages, 1u);
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.failed_accesses, 1u);

  // The page is gone but the pager is not: re-touching it zero-fills.
  const auto retry = pager.Access(PageId{0}, AccessKind::kRead, now + 1000000);
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

TEST(ResilientPagerTest, FrameFailureRetiresAndPagerKeepsRunning) {
  ScriptedInjector clean;
  PagerRig reference = MakeRig(&clean);
  const Cycles clean_wait =
      reference.pager->Access(PageId{0}, AccessKind::kRead, 0)->wait_cycles;

  ScriptedInjector injector;
  injector.ScriptFrameFailure(true);  // the first landing takes a parity hit
  PagerRig rig = MakeRig(&injector);
  Pager& pager = *rig.pager;
  const auto outcome = pager.Access(PageId{0}, AccessKind::kRead, 0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(pager.IsResident(PageId{0}));

  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.frame_failures, 1u);
  EXPECT_EQ(rel.retired_frames, 1u);
  EXPECT_EQ(rel.residual_frames, kFrames - 1);
  EXPECT_EQ(pager.frames().usable_frame_count(), kFrames - 1);
  // The failed landing's transfer ran before the parity hit: its time is
  // charged on top of the good landing's.
  EXPECT_EQ(outcome->wait_cycles, 2 * clean_wait);

  // The pager keeps serving with the shrunken frame pool.
  Cycles now = outcome->wait_cycles + 1;
  for (std::uint64_t p = 1; p < 4; ++p) {
    const auto next = pager.Access(PageId{p}, AccessKind::kRead, now);
    ASSERT_TRUE(next.has_value());
    now += next->wait_cycles + 1;
  }
  EXPECT_EQ(pager.frames().usable_frame_count(), kFrames - 1);
}

TEST(ResilientPagerTest, RetireFramePublicApi) {
  ScriptedInjector injector;
  PagerRig rig = MakeRig(&injector);
  Pager& pager = *rig.pager;
  Cycles now = 0;
  now += pager.Access(PageId{0}, AccessKind::kWrite, now)->wait_cycles + 1;
  const FrameId frame = *pager.FrameOf(PageId{0});

  // Retiring an occupied frame evicts (and writes back) first.
  EXPECT_TRUE(pager.RetireFrame(frame, now));
  EXPECT_FALSE(pager.IsResident(PageId{0}));
  EXPECT_EQ(pager.stats().writebacks, 1u);
  EXPECT_EQ(pager.frames().usable_frame_count(), kFrames - 1);
  EXPECT_EQ(pager.stats().reliability.retired_frames, 1u);

  // Already retired, out of range: refused.
  EXPECT_FALSE(pager.RetireFrame(frame, now));
  EXPECT_FALSE(pager.RetireFrame(FrameId{kFrames + 7}, now));

  // The last usable frame can never be retired.
  std::size_t retired = 0;
  for (std::size_t f = 0; f < kFrames; ++f) {
    if (pager.RetireFrame(FrameId{f}, now)) {
      ++retired;
    }
  }
  EXPECT_EQ(retired, 1u);
  EXPECT_EQ(pager.frames().usable_frame_count(), 1u);
  const auto outcome = pager.Access(PageId{9}, AccessKind::kRead, now);
  ASSERT_TRUE(outcome.has_value());  // one frame still pages
}

TEST(ResilientPagerTest, AllFramesPinnedReturnsNoUsableFrames) {
  PagerRig rig = MakeRig(nullptr, /*with_advice=*/true);
  Pager& pager = *rig.pager;
  Cycles now = 0;
  for (std::uint64_t p = 0; p < kFrames; ++p) {
    now += pager.Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
    pager.AdviseKeepResident(PageId{p});
  }
  const auto outcome = pager.Access(PageId{9}, AccessKind::kRead, now);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, PageAccessErrorKind::kNoUsableFrames);
  EXPECT_EQ(pager.stats().reliability.failed_accesses, 1u);
}

// --- hierarchy pager ---------------------------------------------------------

HierarchyPagerConfig SmallHierarchy() {
  HierarchyPagerConfig config;
  config.page_words = 64;
  config.frames = 3;
  config.drum_pages = 2;
  return config;
}

struct HierarchyReplay {
  HierarchyPagerStats stats;
  Cycles end_time{0};
};

HierarchyReplay ReplayHierarchy(const std::vector<PageId>& refs, FaultInjector* injector) {
  HierarchyPager pager(SmallHierarchy(), std::make_unique<LruReplacement>(), injector);
  Cycles now = 0;
  for (const PageId page : refs) {
    const auto outcome = pager.Access(page, AccessKind::kRead, now);
    now += 1 + (outcome.has_value() ? *outcome : outcome.error().wait_cycles);
  }
  return HierarchyReplay{pager.stats(), now};
}

TEST(HierarchyFaultTest, ZeroRateInjectorMatchesNoInjector) {
  const auto refs = MixedPageTrace(8, 5000, 32);
  FaultInjector zero_rate{FaultInjectorConfig{}};
  const HierarchyReplay without = ReplayHierarchy(refs, nullptr);
  const HierarchyReplay with = ReplayHierarchy(refs, &zero_rate);
  EXPECT_EQ(without.stats.accesses, with.stats.accesses);
  EXPECT_EQ(without.stats.faults, with.stats.faults);
  EXPECT_EQ(without.stats.drum_hits, with.stats.drum_hits);
  EXPECT_EQ(without.stats.disk_hits, with.stats.disk_hits);
  EXPECT_EQ(without.stats.zero_fills, with.stats.zero_fills);
  EXPECT_EQ(without.stats.demotions, with.stats.demotions);
  EXPECT_EQ(without.stats.writebacks, with.stats.writebacks);
  EXPECT_EQ(without.stats.wait_cycles, with.stats.wait_cycles);
  EXPECT_EQ(without.end_time, with.end_time);
  EXPECT_TRUE(with.stats.reliability.Quiet());
}

TEST(HierarchyFaultTest, TransientDrumFetchRetries) {
  // Reference run: fill three frames, spill page 0 to the drum, re-fault it.
  ScriptedInjector clean;
  HierarchyPager reference(SmallHierarchy(), std::make_unique<LruReplacement>(), &clean);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {  // p=3 evicts page 0 to the drum
    now += *reference.Access(PageId{p}, AccessKind::kRead, now) + 1;
  }
  const Cycles clean_wait = *reference.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_GT(clean_wait, 0u);

  ScriptedInjector faulty;
  HierarchyPager pager(SmallHierarchy(), std::make_unique<LruReplacement>(), &faulty);
  now = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {
    now += *pager.Access(PageId{p}, AccessKind::kRead, now) + 1;
  }
  // Re-faulting page 0 first evicts the LRU frame to the drum (one clean
  // store draw), then fetches page 0 — whose first attempt glitches.
  faulty.ScriptTransfer(TransferFaultKind::kNone);       // eviction's drum store
  faulty.ScriptTransfer(TransferFaultKind::kTransient);  // drum fetch attempt 1
  const auto outcome = pager.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_TRUE(outcome.has_value());
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.transient_errors, 1u);
  EXPECT_EQ(rel.retries, 1u);
  // The retry's full transfer time is exactly the extra stall over the
  // clean run.
  EXPECT_GT(*outcome, clean_wait);
  EXPECT_EQ(rel.retry_cycles, *outcome - clean_wait);
  EXPECT_EQ(pager.stats().drum_hits, reference.stats().drum_hits);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

TEST(HierarchyFaultTest, PermanentDrumStoreFailureRelocates) {
  ScriptedInjector injector;
  HierarchyPager pager(SmallHierarchy(), std::make_unique<LruReplacement>(), &injector);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 3; ++p) {
    now += *pager.Access(PageId{p}, AccessKind::kRead, now) + 1;
  }
  // Page 3 evicts page 0 to the drum; the first landing's write-check finds
  // a bad sector and the retry relocates within the drum.
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);  // drum store try 1
  injector.ScriptTransfer(TransferFaultKind::kNone);           // drum store try 2
  now += *pager.Access(PageId{3}, AccessKind::kRead, now) + 1;
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.relocations, 1u);
  EXPECT_EQ(rel.lost_pages, 0u);

  // Page 0 still fetches back fine — from its spare drum slot.
  const auto again = pager.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(pager.stats().drum_hits, 1u);
  EXPECT_EQ(rel.failed_accesses, 0u);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

}  // namespace
}  // namespace dsa
