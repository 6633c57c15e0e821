// Golden parity tests: the O(1)/O(log n) hot-path engines must be
// behaviourally indistinguishable from the naive scan implementations they
// replaced.
//
//   * LRU / FIFO: the intrusive-list policies (replacement_simple.h) against
//     the full-scan references (replacement_naive.h), both at the policy
//     level over randomized frame-table histories and at the pager level
//     over randomized reference traces — identical victim sequences and
//     fault counts.
//   * Best fit / worst fit: the size-indexed FreeList queries against a
//     literal scan of the address-ordered hole map, over randomized
//     allocate/free histories.
//   * Stack distances: the Fenwick-tree engine against the explicit
//     LRU-stack walk.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/alloc/free_list.h"
#include "src/core/rng.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_simple.h"
#include "src/paging/stack_distance.h"
#include "tests/replacement_naive.h"

namespace dsa {
namespace {

// --- policy-level parity ----------------------------------------------------

// Drives a random load/touch/evict/pin history (strictly increasing clock,
// as the pager guarantees) and checks that every victim decision agrees
// with the scan reference.
template <typename Optimized, typename Naive>
void PolicyParityOnRandomHistory(std::uint64_t seed) {
  constexpr std::size_t kFrames = 48;
  FrameTable table(kFrames);
  Optimized optimized;
  Naive naive;
  Rng rng(seed);
  Cycles now = 1;
  std::uint64_t next_page = 0;

  for (int step = 0; step < 4000; ++step) {
    now += 1 + rng.Below(3);
    const std::uint64_t op = rng.Below(100);
    if (op < 45) {  // load into a free frame if any
      if (auto frame = table.TakeFreeFrame()) {
        table.Load(*frame, PageId{next_page++}, now);
      }
    } else if (op < 80) {  // touch a random occupied frame
      const FrameId frame{rng.Below(kFrames)};
      if (table.info(frame).occupied) {
        table.Touch(frame, now, rng.Below(2) == 0, /*idle_threshold=*/64);
      }
    } else if (op < 90) {  // evict a random candidate
      const FrameId frame{rng.Below(kFrames)};
      if (table.info(frame).occupied && !table.info(frame).pinned) {
        table.Evict(frame);
      }
    } else if (op < 95) {  // pin
      const FrameId frame{rng.Below(kFrames)};
      if (table.info(frame).occupied) {
        table.Pin(frame);
      }
    } else {  // unpin
      const FrameId frame{rng.Below(kFrames)};
      if (table.info(frame).occupied) {
        table.Unpin(frame);
      }
    }

    if (table.HasEvictionCandidates()) {
      ASSERT_EQ(optimized.ChooseVictim(&table, now), naive.ChooseVictim(&table, now))
          << "divergence at step " << step << " (seed " << seed << ")";
    }
    ASSERT_EQ(table.HasEvictionCandidates(), !table.EvictionCandidates().empty());
  }
}

TEST(ReplacementParityTest, LruMatchesScanOnRandomHistories) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    PolicyParityOnRandomHistory<LruReplacement, ScanLruReplacement>(seed);
  }
}

TEST(ReplacementParityTest, FifoMatchesScanOnRandomHistories) {
  for (std::uint64_t seed : {55u, 66u, 77u, 88u}) {
    PolicyParityOnRandomHistory<FifoReplacement, ScanFifoReplacement>(seed);
  }
}

// --- pager-level parity -----------------------------------------------------

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

struct PagerReplay {
  std::uint64_t faults{0};
  std::vector<FrameId> victims;
};

PagerReplay ReplayTrace(const std::vector<PageId>& refs, std::size_t frames,
                        std::unique_ptr<ReplacementPolicy> policy) {
  PagerReplay replay;
  BackingStore backing(MakeDrumLevel("drum", 1u << 20, /*word_time=*/2,
                                     /*rotational_delay=*/100));
  PagerConfig config;
  config.page_words = 16;
  config.frames = frames;
  Pager pager(config, &backing, nullptr,
              std::make_unique<RecordingPolicy>(std::move(policy), &replay.victims),
              std::make_unique<DemandFetch>(), nullptr);
  Cycles now = 0;
  for (const PageId page : refs) {
    const auto outcome = pager.Access(page, AccessKind::kRead, now);
    now += 1 + outcome->wait_cycles;
  }
  replay.faults = pager.stats().faults;
  return replay;
}

std::vector<PageId> RandomPageTrace(std::uint64_t seed, std::size_t length,
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

TEST(ReplacementParityTest, PagerLruIdenticalFaultsAndVictims) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    const auto refs = RandomPageTrace(seed, 20000, 256);
    const PagerReplay fast = ReplayTrace(refs, 64, std::make_unique<LruReplacement>());
    const PagerReplay slow = ReplayTrace(refs, 64, std::make_unique<ScanLruReplacement>());
    EXPECT_EQ(fast.faults, slow.faults) << "seed " << seed;
    ASSERT_EQ(fast.victims, slow.victims) << "seed " << seed;
  }
}

TEST(ReplacementParityTest, PagerFifoIdenticalFaultsAndVictims) {
  for (std::uint64_t seed : {404u, 505u, 606u}) {
    const auto refs = RandomPageTrace(seed, 20000, 256);
    const PagerReplay fast = ReplayTrace(refs, 64, std::make_unique<FifoReplacement>());
    const PagerReplay slow = ReplayTrace(refs, 64, std::make_unique<ScanFifoReplacement>());
    EXPECT_EQ(fast.faults, slow.faults) << "seed " << seed;
    ASSERT_EQ(fast.victims, slow.victims) << "seed " << seed;
  }
}

// --- placement parity -------------------------------------------------------

// The original full-scan best fit: smallest sufficient hole, lowest address
// among equals, in address order.
std::optional<PhysicalAddress> NaiveBestFit(const FreeList& holes, WordCount size) {
  std::optional<PhysicalAddress> best;
  WordCount best_size = 0;
  for (const auto& [start, hole_size] : holes) {
    if (hole_size < size) {
      continue;
    }
    if (!best.has_value() || hole_size < best_size) {
      best = PhysicalAddress{start};
      best_size = hole_size;
    }
  }
  return best;
}

// The original full-scan worst fit: largest sufficient hole, lowest address
// among equals.
std::optional<PhysicalAddress> NaiveWorstFit(const FreeList& holes, WordCount size) {
  std::optional<PhysicalAddress> worst;
  WordCount worst_size = 0;
  for (const auto& [start, hole_size] : holes) {
    if (hole_size >= size && hole_size > worst_size) {
      worst = PhysicalAddress{start};
      worst_size = hole_size;
    }
  }
  return worst;
}

void PlacementParityOnRandomHistory(std::uint64_t seed) {
  constexpr WordCount kCapacity = 1 << 16;
  FreeList holes(kCapacity);
  std::map<std::uint64_t, WordCount> live;  // allocated start -> size
  Rng rng(seed);

  for (int step = 0; step < 3000; ++step) {
    const WordCount request = 1 + rng.Below(700);

    // Every probe agrees with the scans before any mutation.
    ASSERT_EQ(holes.SmallestHoleAtLeast(request), NaiveBestFit(holes, request))
        << "best-fit divergence at step " << step << " (seed " << seed << ")";
    ASSERT_EQ(holes.LargestHoleAtLeast(request), NaiveWorstFit(holes, request))
        << "worst-fit divergence at step " << step << " (seed " << seed << ")";
    WordCount largest = 0;
    for (const auto& [start, hole_size] : holes) {
      largest = std::max(largest, hole_size);
    }
    ASSERT_EQ(holes.largest_hole(), largest);

    if (rng.Below(100) < 60 || live.empty()) {  // allocate best-fit
      if (const auto addr = holes.SmallestHoleAtLeast(request)) {
        holes.TakeRange(*addr, request);
        live.emplace(addr->value, request);
      }
    } else {  // free a random live block
      auto it = live.begin();
      std::advance(it, rng.Below(live.size()));
      holes.Insert(Block{PhysicalAddress{it->first}, it->second});
      live.erase(it);
    }
  }
}

TEST(PlacementParityTest, IndexedFitsMatchScansOnRandomHistories) {
  for (std::uint64_t seed : {7u, 17u, 27u, 37u}) {
    PlacementParityOnRandomHistory(seed);
  }
}

// --- stack-distance parity --------------------------------------------------

// The original explicit-stack implementation: O(n * distinct), exact by
// construction.
StackDistanceProfile NaiveStackDistances(const std::vector<PageId>& refs) {
  StackDistanceProfile profile;
  profile.total_references = refs.size();
  std::list<std::uint64_t> stack;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> where;
  for (const PageId page : refs) {
    auto it = where.find(page.value);
    if (it == where.end()) {
      ++profile.cold_references;
    } else {
      std::size_t depth = 1;
      for (auto walk = stack.begin(); walk != it->second; ++walk) {
        ++depth;
      }
      if (profile.distance_counts.size() < depth) {
        profile.distance_counts.resize(depth, 0);
      }
      ++profile.distance_counts[depth - 1];
      stack.erase(it->second);
    }
    stack.push_front(page.value);
    where[page.value] = stack.begin();
  }
  return profile;
}

TEST(StackDistanceParityTest, FenwickMatchesExplicitStack) {
  for (std::uint64_t seed : {3u, 13u, 23u}) {
    const auto refs = RandomPageTrace(seed, 30000, 512);
    const StackDistanceProfile fast = ComputeStackDistances(refs);
    const StackDistanceProfile slow = NaiveStackDistances(refs);
    EXPECT_EQ(fast.cold_references, slow.cold_references) << "seed " << seed;
    EXPECT_EQ(fast.total_references, slow.total_references) << "seed " << seed;
    ASSERT_EQ(fast.distance_counts, slow.distance_counts) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dsa
