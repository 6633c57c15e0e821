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
//     kNoUsableFrames error; and all of them at once in a dense seeded fault
//     stream whose checkpoint bytes and events are pinned by digest.
//   * The same guarantees for a pager over a drum+disk home (DrumDiskBacking),
//     plus its own paths: zero-cost parity landings of pages with no copy,
//     lost disk copies, and drum-to-disk spills.

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/mem/fault_injection.h"
#include "src/obs/export.h"
#include "src/obs/tracer.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_simple.h"
#include "tests/drum_disk_rig.h"
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

// Pins the single-store pager's recovery paths under a dense seeded fault
// stream: transient retries, relocations, spare slots running out (lost
// pages), permanent read faults and frame parity.  Each step folds in the
// pager's and the backing store's checkpoint bytes, so the relocation map,
// the bad-slot set and every counter are covered, and the event JSONL is
// pinned alongside.
TEST(ResilientPagerTest, SeededFaultStreamKeepsItsPinnedDigest) {
  // Room for 40 pages of 16 words: relocations past that find no spare.
  BackingStore backing(MakeDrumLevel("drum", 40 * 16, /*word_time=*/2,
                                     /*rotational_delay=*/100));
  TransferChannel channel;
  FaultInjectorConfig faults;
  faults.seed = 0x5107;
  faults.rates = FaultRates{0.06, 0.03, 0.002};
  FaultInjector injector(faults);
  EventTracer tracer(/*capacity=*/0);
  PagerConfig config;
  config.page_words = 16;
  config.frames = 8;
  Pager pager(config, &backing, &channel, std::make_unique<LruReplacement>(),
              std::make_unique<DemandFetch>(), /*advice=*/nullptr, &injector);
  pager.SetTracer(&tracer);

  Rng rng(0x5107);
  SnapshotWriter trail;
  Cycles now = 0;
  for (int step = 0; step < 4000; ++step) {
    const PageId page{rng.Below(10) < 6 ? rng.Below(6) : rng.Below(32)};
    const AccessKind kind = rng.Below(3) == 0 ? AccessKind::kWrite : AccessKind::kRead;
    const PageAccessResult outcome = pager.Access(page, kind, now);
    const Cycles wait =
        outcome.has_value() ? outcome->wait_cycles : outcome.error().wait_cycles;
    trail.U64(outcome.has_value() ? 0 : 1 + static_cast<std::uint64_t>(outcome.error().kind));
    trail.U64(wait);
    SnapshotWriter state;
    pager.SaveState(&state);
    backing.SaveState(&state);
    trail.U64(Fnv64(state.TakePayload()));
    now += wait + 1;
  }
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_GT(rel.retries, 0u);
  EXPECT_GT(rel.relocations, 0u);
  EXPECT_GT(rel.frame_failures, 0u);
  EXPECT_GT(rel.lost_pages, 0u);
  EXPECT_GT(rel.failed_accesses, 0u);

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv64(trail.TakePayload())));
  EXPECT_STREQ(digest, "428ee1ba198ac5b5");
  if (DSA_TRACE) {
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv64(EventsToJsonl(tracer.Snapshot()))));
    EXPECT_STREQ(digest, "1a53e2e82fc3ed05");
  }
}

// --- drum+disk home ----------------------------------------------------------

constexpr PagerConfig kHierarchyCore{.page_words = 64, .frames = 3};

DrumDiskConfig SmallHierarchy() {
  DrumDiskConfig config;
  config.drum_pages = 2;
  return config;
}

// One read on a drum+disk pager that must complete; the stall it cost.
Cycles ReadPage(Pager& pager, std::uint64_t page, Cycles now) {
  return pager.Access(PageId{page}, AccessKind::kRead, now)->wait_cycles;
}

struct HierarchyReplay {
  PagerStats stats;
  DrumDiskStats tiers;
  Cycles end_time{0};
};

HierarchyReplay ReplayHierarchy(const std::vector<PageId>& refs, FaultInjector* injector) {
  DrumDiskRig rig(kHierarchyCore, SmallHierarchy(), injector);
  Cycles now = 0;
  for (const PageId page : refs) {
    const auto outcome = rig.pager.Access(page, AccessKind::kRead, now);
    now += 1 + (outcome.has_value() ? outcome->wait_cycles : outcome.error().wait_cycles);
  }
  return HierarchyReplay{rig.pager.stats(), rig.tiers.stats(), now};
}

TEST(HierarchyFaultTest, ZeroRateInjectorMatchesNoInjector) {
  const auto refs = MixedPageTrace(8, 5000, 32);
  FaultInjector zero_rate{FaultInjectorConfig{}};
  const HierarchyReplay without = ReplayHierarchy(refs, nullptr);
  const HierarchyReplay with = ReplayHierarchy(refs, &zero_rate);
  EXPECT_EQ(without.stats.accesses, with.stats.accesses);
  EXPECT_EQ(without.stats.faults, with.stats.faults);
  EXPECT_EQ(without.tiers.drum_hits, with.tiers.drum_hits);
  EXPECT_EQ(without.tiers.disk_hits, with.tiers.disk_hits);
  EXPECT_EQ(without.tiers.zero_fills, with.tiers.zero_fills);
  EXPECT_EQ(without.tiers.demotions, with.tiers.demotions);
  EXPECT_EQ(without.stats.writebacks, with.stats.writebacks);
  EXPECT_EQ(without.stats.wait_cycles, with.stats.wait_cycles);
  EXPECT_EQ(without.end_time, with.end_time);
  EXPECT_TRUE(with.stats.reliability.Quiet());
}

TEST(HierarchyFaultTest, TransientDrumFetchRetries) {
  // Reference run: fill three frames, spill page 0 to the drum, re-fault it.
  ScriptedInjector clean;
  DrumDiskRig reference(kHierarchyCore, SmallHierarchy(), &clean);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {  // p=3 evicts page 0 to the drum
    now += ReadPage(reference.pager, p, now) + 1;
  }
  const Cycles clean_wait = ReadPage(reference.pager, 0, now + 500000);
  ASSERT_GT(clean_wait, 0u);

  ScriptedInjector faulty;
  DrumDiskRig rig(kHierarchyCore, SmallHierarchy(), &faulty);
  Pager& pager = rig.pager;
  now = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {
    now += ReadPage(pager, p, now) + 1;
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
  EXPECT_GT(outcome->wait_cycles, clean_wait);
  EXPECT_EQ(rel.retry_cycles, outcome->wait_cycles - clean_wait);
  EXPECT_EQ(rig.tiers.stats().drum_hits, reference.tiers.stats().drum_hits);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

TEST(HierarchyFaultTest, PermanentDrumStoreFailureRelocates) {
  ScriptedInjector injector;
  DrumDiskRig rig(kHierarchyCore, SmallHierarchy(), &injector);
  Pager& pager = rig.pager;
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 3; ++p) {
    now += ReadPage(pager, p, now) + 1;
  }
  // Page 3 evicts page 0 to the drum; the first landing's write-check finds
  // a bad sector and the retry relocates within the drum.
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);  // drum store try 1
  injector.ScriptTransfer(TransferFaultKind::kNone);           // drum store try 2
  now += ReadPage(pager, 3, now) + 1;
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.relocations, 1u);
  EXPECT_EQ(rel.lost_pages, 0u);

  // Page 0 still fetches back fine — from its spare drum slot.
  const auto again = pager.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(rig.tiers.stats().drum_hits, 1u);
  EXPECT_EQ(rel.failed_accesses, 0u);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

TEST(HierarchyFaultTest, TransientRetryAfterRelocationRewritesTheSameSpare) {
  ScriptedInjector injector;
  DrumDiskRig rig(kHierarchyCore, SmallHierarchy(), &injector);
  Pager& pager = rig.pager;
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 3; ++p) {
    now += ReadPage(pager, p, now) + 1;
  }
  // Page 3 evicts page 0 to the drum: its own slot goes bad, the retry
  // relocates to a spare and glitches, and the next retry lands.
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);  // drum store try 1
  injector.ScriptTransfer(TransferFaultKind::kTransient);      // try 2, on the spare
  injector.ScriptTransfer(TransferFaultKind::kNone);           // try 3
  now += ReadPage(pager, 3, now) + 1;
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.transient_errors, 1u);
  EXPECT_EQ(rel.retries, 2u);
  // The transient retry rewrote the spare it had just tried: one relocation,
  // and the drum holds exactly one copy of the page.
  EXPECT_EQ(rel.relocations, 1u);
  EXPECT_EQ(rig.tiers.drum().slot_count(), 1u);
  EXPECT_EQ(rig.tiers.drum().OccupiedWords(), kHierarchyCore.page_words);

  // Fetching the page back gives that copy up; nothing is left behind.
  const auto again = pager.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(rig.tiers.stats().drum_hits, 1u);
  EXPECT_EQ(rig.tiers.drum_page_count(), 1u);  // the victim, page 1, on its own slot
  EXPECT_EQ(rig.tiers.drum().slot_count(), 1u);
  EXPECT_TRUE(rig.tiers.drum().Contains(1));
}

TEST(HierarchyFaultTest, ParityFailedFirstTouchLandingChargesNothing) {
  ScriptedInjector injector;
  DrumDiskRig rig(kHierarchyCore, SmallHierarchy(), &injector);
  Pager& pager = rig.pager;
  // A first-touch page has no backing copy: the landing that parity-fails
  // moved no data, so it costs no time; the page zero-fills in the next frame.
  injector.ScriptFrameFailure(true);
  const auto outcome = pager.Access(PageId{5}, AccessKind::kRead, 0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->wait_cycles, 0u);
  EXPECT_EQ(pager.stats().reliability.frame_failures, 1u);
  EXPECT_EQ(pager.stats().reliability.retired_frames, 1u);
  EXPECT_EQ(rig.tiers.stats().zero_fills, 1u);
  EXPECT_EQ(pager.stats().wait_cycles, 0u);
  EXPECT_TRUE(pager.IsResident(PageId{5}));
}

TEST(HierarchyFaultTest, PermanentDiskFetchFaultLosesThePage) {
  DrumDiskConfig config = SmallHierarchy();
  config.demotion = DemotionPolicy::kAlwaysDisk;
  config.promote_on_disk_fault = false;
  ScriptedInjector injector;
  DrumDiskRig rig(kHierarchyCore, config, &injector);
  Pager& pager = rig.pager;
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 4; ++p) {  // p=3 evicts page 0 to disk
    now += ReadPage(pager, p, now) + 1;
  }
  // Re-faulting page 0 stores the LRU victim on disk (clean), then reads
  // page 0 from a sector that just went bad: its only copy is gone.
  injector.ScriptTransfer(TransferFaultKind::kNone);
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);
  const auto lost = pager.Access(PageId{0}, AccessKind::kRead, now + 500000);
  ASSERT_FALSE(lost.has_value());
  EXPECT_EQ(lost.error().kind, PageAccessErrorKind::kSlotUnreadable);
  EXPECT_GE(lost.error().wait_cycles, 5000u);  // the disk read ran before the check
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.lost_pages, 1u);
  EXPECT_EQ(rel.failed_accesses, 1u);
  EXPECT_FALSE(pager.IsResident(PageId{0}));

  // The page has no home left: the next touch zero-fills into the frame the
  // failed access gave back, with no transfer and no eviction.
  const std::uint64_t zero_fills = rig.tiers.stats().zero_fills;
  const std::uint64_t writebacks = pager.stats().writebacks;
  const auto again = pager.Access(PageId{0}, AccessKind::kRead, now + 1000000);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->wait_cycles, 0u);
  EXPECT_EQ(rig.tiers.stats().zero_fills, zero_fills + 1);
  EXPECT_EQ(pager.stats().writebacks, writebacks);
  EXPECT_EQ(rig.tiers.stats().disk_hits, 0u);
  EXPECT_TRUE(pager.IsResident(PageId{0}));
}

TEST(HierarchyFaultTest, DrumWithoutSpareSlotsSpillsToDisk) {
  DrumDiskConfig config = SmallHierarchy();
  // Half a page of drum: once page 0's drum slot goes bad there is no room
  // for a spare, so the page falls through to disk instead of being lost.
  config.drum_level = MakeDrumLevel("drum", 32, /*word_time=*/2, /*rotational_delay=*/3000);
  ScriptedInjector injector;
  DrumDiskRig rig(kHierarchyCore, config, &injector);
  Pager& pager = rig.pager;
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 3; ++p) {
    now += ReadPage(pager, p, now) + 1;
  }
  injector.ScriptTransfer(TransferFaultKind::kPermanentSlot);  // drum store of page 0
  injector.ScriptTransfer(TransferFaultKind::kNone);           // its disk store
  now += ReadPage(pager, 3, now) + 1;
  const ReliabilityStats& rel = pager.stats().reliability;
  EXPECT_EQ(rel.slot_failures, 1u);
  EXPECT_EQ(rel.relocations, 0u);
  EXPECT_EQ(rel.spill_relocations, 1u);
  EXPECT_EQ(rel.lost_pages, 0u);
  EXPECT_EQ(rig.tiers.drum_page_count(), 0u);

  // Page 0 comes back from disk.
  const Cycles again = ReadPage(pager, 0, now + 500000);
  EXPECT_GE(again, 40000u);
  EXPECT_EQ(rig.tiers.stats().disk_hits, 1u);
  EXPECT_EQ(rig.tiers.stats().drum_hits, 0u);
}

}  // namespace
}  // namespace dsa
