// Unit tests for the pager: fault handling, eviction, write-back, advice,
// prefetch, the ATLAS vacant-frame discipline, and the hit entry
// (AccessResident) against Access.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/obs/tracer.h"
#include "src/paging/atlas_learning.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_simple.h"

namespace dsa {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  static constexpr WordCount kPage = 64;
  static constexpr std::size_t kFrames = 3;

  std::unique_ptr<Pager> MakePager(PagerConfig config,
                                   std::unique_ptr<FetchPolicy> fetch = nullptr,
                                   bool with_advice = false) {
    backing_ = std::make_unique<BackingStore>(
        MakeDrumLevel("drum", 1u << 16, /*word_time=*/2, /*rotational_delay=*/100));
    channel_ = std::make_unique<TransferChannel>();
    advice_ = with_advice ? std::make_unique<AdviceRegistry>() : nullptr;
    if (fetch == nullptr) {
      fetch = std::make_unique<DemandFetch>();
    }
    return std::make_unique<Pager>(config, backing_.get(), channel_.get(),
                                   std::make_unique<LruReplacement>(), std::move(fetch),
                                   advice_.get());
  }

  PagerConfig DefaultConfig() const {
    PagerConfig config;
    config.page_words = kPage;
    config.frames = kFrames;
    return config;
  }

  std::unique_ptr<BackingStore> backing_;
  std::unique_ptr<TransferChannel> channel_;
  std::unique_ptr<AdviceRegistry> advice_;
};

TEST_F(PagerTest, FirstTouchFaultsSecondHits) {
  auto pager = MakePager(DefaultConfig());
  const auto first = pager->Access(PageId{1}, AccessKind::kRead, 0);
  EXPECT_TRUE(first->faulted);
  EXPECT_GT(first->wait_cycles, 0u);
  const auto second = pager->Access(PageId{1}, AccessKind::kRead, first->wait_cycles + 1);
  EXPECT_FALSE(second->faulted);
  EXPECT_EQ(second->wait_cycles, 0u);
  EXPECT_EQ(pager->stats().accesses, 2u);
  EXPECT_EQ(pager->stats().faults, 1u);
}

TEST_F(PagerTest, WaitMatchesDrumTiming) {
  auto pager = MakePager(DefaultConfig());
  const auto outcome = pager->Access(PageId{0}, AccessKind::kRead, 0);
  EXPECT_EQ(outcome->wait_cycles, 100u + 2 * kPage);  // rotation + words
}

TEST_F(PagerTest, EvictionHappensWhenFramesExhausted) {
  auto pager = MakePager(DefaultConfig());
  Cycles now = 0;
  for (std::uint64_t p = 0; p < kFrames; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  EXPECT_EQ(pager->frames().free_count(), 0u);
  // Page 3 evicts the LRU page 0.
  now += pager->Access(PageId{3}, AccessKind::kRead, now)->wait_cycles + 1;
  EXPECT_FALSE(pager->IsResident(PageId{0}));
  EXPECT_TRUE(pager->IsResident(PageId{3}));
  EXPECT_EQ(pager->stats().evictions, 1u);
}

TEST_F(PagerTest, DirtyEvictionWritesBack) {
  auto pager = MakePager(DefaultConfig());
  Cycles now = 0;
  now += pager->Access(PageId{0}, AccessKind::kWrite, now)->wait_cycles + 1;
  for (std::uint64_t p = 1; p <= kFrames; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  EXPECT_EQ(pager->stats().writebacks, 1u);
  EXPECT_TRUE(backing_->Contains(0));  // page 0's dirty copy reached the drum
}

TEST_F(PagerTest, CleanEvictionSkipsWriteBack) {
  auto pager = MakePager(DefaultConfig());
  Cycles now = 0;
  for (std::uint64_t p = 0; p <= kFrames; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  EXPECT_EQ(pager->stats().writebacks, 0u);
}

TEST_F(PagerTest, KeepOneFrameVacantRestoresReserve) {
  PagerConfig config = DefaultConfig();
  config.keep_one_frame_vacant = true;
  auto pager = MakePager(config);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < 5; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
    EXPECT_GE(pager->frames().free_count(), 1u)
        << "vacant frame not maintained after page " << p;
  }
}

TEST_F(PagerTest, PrefetchFillsOnlyFreeFrames) {
  PagerConfig config = DefaultConfig();
  auto pager = MakePager(config, std::make_unique<PrefetchFetch>(8, 1u << 20));
  const auto outcome = pager->Access(PageId{0}, AccessKind::kRead, 0);
  EXPECT_TRUE(outcome->faulted);
  // 3 frames: the demanded page plus at most 2 prefetched neighbours.
  EXPECT_EQ(outcome->extra_fetches, kFrames - 1);
  EXPECT_TRUE(pager->IsResident(PageId{1}));
  EXPECT_TRUE(pager->IsResident(PageId{2}));
  EXPECT_FALSE(pager->IsResident(PageId{3}));
  EXPECT_EQ(pager->stats().extra_fetches, kFrames - 1);
}

TEST_F(PagerTest, PrefetchNeverEvicts) {
  auto pager = MakePager(DefaultConfig(), std::make_unique<PrefetchFetch>(8, 1u << 20));
  Cycles now = 0;
  now += pager->Access(PageId{0}, AccessKind::kRead, now)->wait_cycles + 1;  // fills 0,1,2
  const std::uint64_t evictions_before = pager->stats().evictions;
  now += pager->Access(PageId{10}, AccessKind::kRead, now)->wait_cycles + 1;
  // The demand eviction is allowed; prefetch found no free frame and stopped.
  EXPECT_EQ(pager->stats().evictions, evictions_before + 1);
  EXPECT_FALSE(pager->IsResident(PageId{11}));
}

TEST_F(PagerTest, PageValidatorFiltersSpeculation) {
  auto pager = MakePager(DefaultConfig(), std::make_unique<PrefetchFetch>(8, 1u << 20));
  pager->SetPageValidator([](PageId page) { return page.value != 1; });
  pager->Access(PageId{0}, AccessKind::kRead, 0);
  EXPECT_FALSE(pager->IsResident(PageId{1}));
  EXPECT_TRUE(pager->IsResident(PageId{2}));
}

TEST_F(PagerTest, WontNeedAdviceReleasesAtNextFault) {
  auto pager = MakePager(DefaultConfig(), nullptr, /*with_advice=*/true);
  Cycles now = 0;
  for (std::uint64_t p = 0; p < kFrames; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  pager->AdviseWontNeed(PageId{1});
  now += pager->Access(PageId{9}, AccessKind::kRead, now)->wait_cycles + 1;
  EXPECT_FALSE(pager->IsResident(PageId{1}));
  EXPECT_EQ(pager->stats().advised_releases, 1u);
  // The advised release supplied the frame: no policy eviction was needed.
  EXPECT_TRUE(pager->IsResident(PageId{0}));
  EXPECT_TRUE(pager->IsResident(PageId{2}));
}

TEST_F(PagerTest, AccessSupersedesWontNeed) {
  auto pager = MakePager(DefaultConfig(), nullptr, /*with_advice=*/true);
  Cycles now = 0;
  now += pager->Access(PageId{1}, AccessKind::kRead, now)->wait_cycles + 1;
  pager->AdviseWontNeed(PageId{1});
  now += pager->Access(PageId{1}, AccessKind::kRead, now)->wait_cycles + 1;  // re-touch
  now += pager->Access(PageId{2}, AccessKind::kRead, now)->wait_cycles + 1;
  EXPECT_TRUE(pager->IsResident(PageId{1})) << "advice outlived a contradicting access";
}

TEST_F(PagerTest, KeepResidentPinsAgainstReplacement) {
  auto pager = MakePager(DefaultConfig(), nullptr, /*with_advice=*/true);
  Cycles now = 0;
  now += pager->Access(PageId{0}, AccessKind::kRead, now)->wait_cycles + 1;
  pager->AdviseKeepResident(PageId{0});
  for (std::uint64_t p = 1; p < 10; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  EXPECT_TRUE(pager->IsResident(PageId{0}));
}

TEST_F(PagerTest, ReleaseEvictsImmediately) {
  auto pager = MakePager(DefaultConfig());
  Cycles now = 0;
  now += pager->Access(PageId{0}, AccessKind::kWrite, now)->wait_cycles + 1;
  pager->Release(PageId{0}, now);
  EXPECT_FALSE(pager->IsResident(PageId{0}));
  EXPECT_EQ(pager->stats().writebacks, 1u);  // dirty release still writes back
}

TEST_F(PagerTest, ResidentWordsTracksOccupancy) {
  auto pager = MakePager(DefaultConfig());
  EXPECT_EQ(pager->ResidentWords(), 0u);
  Cycles now = 0;
  now += pager->Access(PageId{0}, AccessKind::kRead, now)->wait_cycles + 1;
  EXPECT_EQ(pager->ResidentWords(), kPage);
  now += pager->Access(PageId{1}, AccessKind::kRead, now)->wait_cycles + 1;
  EXPECT_EQ(pager->ResidentWords(), 2 * kPage);
}

TEST_F(PagerTest, ChannelQueueingLengthensWaits) {
  auto pager = MakePager(DefaultConfig());
  // Two faults issued at the same instant: the second transfer queues.
  const auto first = pager->Access(PageId{0}, AccessKind::kRead, 0);
  const auto second = pager->Access(PageId{1}, AccessKind::kRead, 0);
  EXPECT_GT(second->wait_cycles, first->wait_cycles);
}

TEST_F(PagerTest, FrameOfReportsMapping) {
  auto pager = MakePager(DefaultConfig());
  EXPECT_FALSE(pager->FrameOf(PageId{3}).has_value());
  pager->Access(PageId{3}, AccessKind::kRead, 0);
  ASSERT_TRUE(pager->FrameOf(PageId{3}).has_value());
}

TEST_F(PagerTest, ResidencyCallbacksFire) {
  auto pager = MakePager(DefaultConfig());
  std::vector<std::pair<std::uint64_t, bool>> events;  // (page, loaded)
  pager->SetResidencyCallbacks(
      [&events](PageId page, FrameId) { events.emplace_back(page.value, true); },
      [&events](PageId page, FrameId) { events.emplace_back(page.value, false); });
  Cycles now = 0;
  for (std::uint64_t p = 0; p <= kFrames; ++p) {
    now += pager->Access(PageId{p}, AccessKind::kRead, now)->wait_cycles + 1;
  }
  ASSERT_EQ(events.size(), kFrames + 2);  // 4 loads + 1 evict
  EXPECT_EQ(events.back().second, true);
  EXPECT_EQ(events[kFrames], (std::pair<std::uint64_t, bool>{0, false}));
}

// --- Pager::LoadState -------------------------------------------------------------

// A pager's SaveState payload split around its residency map, so a test can
// substitute its own map and keep every other byte.
struct SplitPagerState {
  std::string before;  // frame table + replacement state
  std::string after;   // relocation map + stats
  std::vector<std::pair<std::uint64_t, std::uint64_t>> resident;  // (page, frame), sorted
};

SplitPagerState SplitState(const Pager& pager) {
  SnapshotWriter prefix;
  pager.frames().SaveState(&prefix);
  pager.replacement().SaveState(&prefix);
  SplitPagerState split;
  split.before = prefix.TakePayload();
  SnapshotWriter whole;
  pager.SaveState(&whole);
  const std::string payload = whole.TakePayload();
  SnapshotReader r =
      SnapshotReader::ForPayload(std::string_view(payload).substr(split.before.size()));
  const std::uint64_t count = r.U64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t page = r.U64();
    split.resident.emplace_back(page, r.U64());
  }
  split.after = payload.substr(split.before.size() + 8 + 16 * count);
  return split;
}

std::string Join(const SplitPagerState& split, std::uint64_t count,
                 const std::vector<std::pair<std::uint64_t, std::uint64_t>>& resident) {
  SnapshotWriter w;
  w.U64(count);
  for (const auto& [page, frame] : resident) {
    w.U64(page);
    w.U64(frame);
  }
  return split.before + w.TakePayload() + split.after;
}

TEST_F(PagerTest, LoadStateRejectsADuplicatePageAndAnOversizedResidencyMap) {
  auto pager = MakePager(DefaultConfig());
  Cycles now = 0;
  for (std::uint64_t p : {4, 9, 2, 9, 7}) {
    now += pager->Access(PageId{p}, AccessKind::kWrite, now)->wait_cycles + 1;
  }
  const SplitPagerState split = SplitState(*pager);
  ASSERT_EQ(split.resident.size(), kFrames);
  SnapshotWriter whole;
  pager->SaveState(&whole);
  const std::string good = whole.TakePayload();
  ASSERT_EQ(Join(split, split.resident.size(), split.resident), good);

  auto duplicate = split.resident;
  duplicate[1] = duplicate[0];
  auto oversized = split.resident;
  oversized.emplace_back(100, 0);
  for (const std::string& bad :
       {Join(split, duplicate.size(), duplicate), Join(split, kFrames + 1, oversized)}) {
    SnapshotReader r = SnapshotReader::ForPayload(bad);
    pager->LoadState(&r);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue) << r.error().Describe();
  }
  // The failed loads changed nothing: the pager re-serializes identically
  // and still finds every page it held.
  SnapshotWriter after;
  pager->SaveState(&after);
  EXPECT_EQ(after.TakePayload(), good);
  for (const auto& [page, frame] : split.resident) {
    EXPECT_EQ(pager->FrameOf(PageId{page}), FrameId{frame});
  }
  SnapshotReader r = SnapshotReader::ForPayload(good);
  pager->LoadState(&r);
  EXPECT_TRUE(r.ok() && r.AtEnd());
}

// Pins the pager's observable behaviour under LRU over a seeded stream in
// which most references repeat the page just used (whose frame is already
// the LRU tail) and the rest scatter over more pages than there are frames.
// After each access the SaveState bytes and the access/fault counters are
// folded into one digest; the pinned value was recorded before Touch skipped
// the relink of a frame already at the tail and before residency moved to a
// flat index.
TEST_F(PagerTest, SeededLruStreamKeepsItsPinnedDigest) {
  PagerConfig config = DefaultConfig();
  config.frames = 8;
  auto pager = MakePager(config);
  Rng rng(0x1a0);
  SnapshotWriter trail;
  std::uint64_t page = 0;
  Cycles now = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.Below(10) == 0) {
      page = rng.Below(20);
    } else if (rng.Below(10) < 3) {
      page = (page + 1) % 20;
    }
    const AccessKind kind = rng.Below(4) == 0 ? AccessKind::kWrite : AccessKind::kRead;
    const PageAccessResult outcome = pager->Access(PageId{page}, kind, now);
    ASSERT_TRUE(outcome.has_value());
    now += outcome->wait_cycles + 1 + rng.Below(3);
    SnapshotWriter state;
    pager->SaveState(&state);
    trail.U64(Fnv64(state.TakePayload()));
    trail.U64(outcome->frame.value);
    trail.U64(pager->stats().accesses);
    trail.U64(pager->stats().faults);
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv64(trail.TakePayload())));
  EXPECT_STREQ(digest, "9cd48ec62aaadfd5");
}

// --- Pager::AccessResident ---------------------------------------------------------

// ATLAS learning, checking at every OnAccess that the frame table already
// holds the access: the hit sequence touches the frame before the policy
// hears of it.  No policy in the library reads the frame table there, so
// without this check the order would go unobserved.
class TouchFirstAtlas final : public AtlasLearningReplacement {
 public:
  void Watch(const FrameTable* frames) { frames_ = frames; }

  void OnAccess(FrameId frame, PageId page, Cycles now, bool write) override {
    const FrameInfo& info = frames_->info(frame);
    ++checked_;
    if (info.last_use != now || !info.use || (write && !info.modified)) {
      ++touched_late_;
    }
    AtlasLearningReplacement::OnAccess(frame, page, now, write);
  }

  std::uint64_t checked() const { return checked_; }
  std::uint64_t touched_late() const { return touched_late_; }

 private:
  const FrameTable* frames_{nullptr};
  std::uint64_t checked_{0};
  std::uint64_t touched_late_{0};
};

// One pager of an Access-vs-AccessResident pair, with its own backing store,
// advice registry and tracer (whose every event is kept).
struct HitEntrySide {
  explicit HitEntrySide(std::unique_ptr<ReplacementPolicy> replacement)
      : backing(MakeDrumLevel("drum", 1u << 16, /*word_time=*/2, /*rotational_delay=*/100)),
        tracer(/*capacity=*/0),
        policy(replacement.get()),
        pager(PagerConfig{.page_words = 64, .frames = 8}, &backing, &channel,
              std::move(replacement), std::make_unique<DemandFetch>(), &advice) {
    tracer.SetSink([this](const TraceEvent& event) { events.push_back(event); });
    pager.SetTracer(&tracer);
    if (auto* probe = dynamic_cast<TouchFirstAtlas*>(policy)) {
      probe->Watch(&pager.frames());
    }
  }

  // The pager's and the advice registry's checkpoint bytes.
  std::string State() const {
    SnapshotWriter w;
    pager.SaveState(&w);
    advice.SaveState(&w);
    return w.TakePayload();
  }

  BackingStore backing;
  TransferChannel channel;
  AdviceRegistry advice;
  EventTracer tracer;
  std::vector<TraceEvent> events;
  ReplacementPolicy* policy;  // owned by the pager
  Pager pager;
};

// Drives `via_access` through Access only and `via_hit` through
// AccessResident whenever FrameOf finds the page, over a seeded stream of
// reads and writes with keep-resident, wont-need and will-need advice.
// After every step the two must agree on state bytes, stats and events; the
// per-step trail of the Access side is folded into the returned digest.
std::string HitEntryStreamDigest(std::unique_ptr<ReplacementPolicy> access_policy,
                                 std::unique_ptr<ReplacementPolicy> hit_policy) {
  HitEntrySide via_access(std::move(access_policy));
  HitEntrySide via_hit(std::move(hit_policy));
  Rng rng(0x417);
  SnapshotWriter trail;
  std::uint64_t page = 0;
  Cycles now = 0;
  std::size_t hits = 0;
  for (int step = 0; step < 6000; ++step) {
    if (rng.Below(8) == 0) {
      page = rng.Below(24);
    } else if (rng.Below(10) < 3) {
      page = (page + 1) % 24;
    }
    const AccessKind kind = rng.Below(4) == 0 ? AccessKind::kWrite : AccessKind::kRead;
    // Pages 0-2 are the only keep-resident candidates, so at most three of
    // the eight frames are ever pinned.
    const std::uint64_t advice = rng.Below(64);
    const PageId keep{rng.Below(3)};
    for (Pager* pager : {&via_access.pager, &via_hit.pager}) {
      if (advice == 0) {
        pager->AdviseKeepResident(keep);
      } else if (advice == 1) {
        pager->AdviseWontNeed(PageId{page + 1});
      } else if (advice == 2) {
        pager->AdviseWillNeed(PageId{page + 2});
      }
    }

    const PageAccessResult by_access = via_access.pager.Access(PageId{page}, kind, now);
    const PageAccessResult by_hit = [&]() -> PageAccessResult {
      if (const std::optional<FrameId> frame = via_hit.pager.FrameOf(PageId{page})) {
        ++hits;
        return via_hit.pager.AccessResident(PageId{page}, *frame, kind, now);
      }
      return via_hit.pager.Access(PageId{page}, kind, now);
    }();
    if (!by_access.has_value() || !by_hit.has_value()) {
      ADD_FAILURE() << "step " << step << ": an access failed";
      return "";
    }
    EXPECT_EQ(by_access->faulted, by_hit->faulted) << "step " << step;
    EXPECT_EQ(by_access->frame, by_hit->frame) << "step " << step;
    EXPECT_EQ(by_access->wait_cycles, by_hit->wait_cycles) << "step " << step;

    const std::string state = via_access.State();
    EXPECT_EQ(state, via_hit.State()) << "step " << step;
    const PagerStats& a = via_access.pager.stats();
    const PagerStats& b = via_hit.pager.stats();
    EXPECT_EQ(a.accesses, b.accesses) << "step " << step;
    EXPECT_EQ(a.faults, b.faults) << "step " << step;
    EXPECT_EQ(a.writebacks, b.writebacks) << "step " << step;
    EXPECT_EQ(a.advised_releases, b.advised_releases) << "step " << step;
    EXPECT_EQ(a.wait_cycles, b.wait_cycles) << "step " << step;
    EXPECT_EQ(via_access.events, via_hit.events) << "step " << step;
    if (::testing::Test::HasFailure()) {
      return "";
    }

    now += by_access->wait_cycles + 1 + rng.Below(40);
    trail.U64(Fnv64(state));
    trail.U64(by_access->frame.value);
    trail.U64(by_access->faulted ? 1 : 0);
  }
  // The stream exercises both entries and every kind of advice.
  EXPECT_GT(hits, 3000u);
  EXPECT_LT(hits, 5800u);
  EXPECT_GT(via_access.pager.frames().pinned_count(), 0u);
  EXPECT_GT(via_access.pager.stats().advised_releases, 0u);
  EXPECT_GT(via_access.pager.stats().writebacks, 0u);
  for (const HitEntrySide* side : {&via_access, &via_hit}) {
    if (const auto* probe = dynamic_cast<const TouchFirstAtlas*>(side->policy)) {
      EXPECT_EQ(probe->checked(), 6000u);
      EXPECT_EQ(probe->touched_late(), 0u);
    }
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv64(trail.TakePayload())));
  return digest;
}

// The pinned digests were recorded with both sides calling Access before
// AccessResident existed, so they also pin the hit sequence itself.  The
// ATLAS case overrides OnAccess and checks that Touch has already run.
TEST(PagerHitEntryTest, AccessResidentMatchesAccessUnderLru) {
  const std::string digest = HitEntryStreamDigest(std::make_unique<LruReplacement>(),
                                                  std::make_unique<LruReplacement>());
  EXPECT_EQ(digest, "008badfe1226f342");
}

TEST(PagerHitEntryTest, AccessResidentMatchesAccessUnderAtlasLearning) {
  const std::string digest = HitEntryStreamDigest(
      std::make_unique<TouchFirstAtlas>(), std::make_unique<TouchFirstAtlas>());
  EXPECT_EQ(digest, "8f2769ed00c522de");
}

}  // namespace
}  // namespace dsa
