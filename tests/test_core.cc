// Unit tests for src/core: strong ids, Expected, Clock, Rng, and the
// taxonomy types.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/characteristics.h"
#include "src/core/clock.h"
#include "src/core/expected.h"
#include "src/core/hardware.h"
#include "src/core/resident_index.h"
#include "src/core/rng.h"
#include "src/core/strategy.h"
#include "src/core/types.h"

namespace dsa {
namespace {

// --- StrongId ---------------------------------------------------------------

TEST(StrongIdTest, DefaultIsZero) {
  PageId page;
  EXPECT_EQ(page.value, 0u);
}

TEST(StrongIdTest, ComparesByValue) {
  EXPECT_EQ(PageId{7}, PageId{7});
  EXPECT_NE(PageId{7}, PageId{8});
  EXPECT_LT(PageId{7}, PageId{8});
  EXPECT_GT(FrameId{9}, FrameId{1});
}

TEST(StrongIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<PageId, FrameId>);
  static_assert(!std::is_same_v<Name, PhysicalAddress>);
}

TEST(StrongIdTest, HashableInUnorderedContainers) {
  std::unordered_set<PageId> pages;
  pages.insert(PageId{1});
  pages.insert(PageId{2});
  pages.insert(PageId{1});
  EXPECT_EQ(pages.size(), 2u);
}

TEST(AccessKindTest, ToStringCoversAllKinds) {
  EXPECT_STREQ(ToString(AccessKind::kRead), "read");
  EXPECT_STREQ(ToString(AccessKind::kWrite), "write");
  EXPECT_STREQ(ToString(AccessKind::kExecute), "execute");
}

// --- Expected ---------------------------------------------------------------

TEST(ExpectedTest, HoldsValue) {
  Expected<int, std::string> e = 42;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(-1), 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int, std::string> e = MakeUnexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(ExpectedTest, BoolConversion) {
  Expected<int, int> good = 1;
  Expected<int, int> bad = MakeUnexpected(2);
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_FALSE(static_cast<bool>(bad));
}

TEST(ExpectedTest, ArrowOperator) {
  struct Payload {
    int x;
  };
  Expected<Payload, int> e = Payload{5};
  EXPECT_EQ(e->x, 5);
}

TEST(ExpectedTest, RvalueValueOrMovesInsteadOfCopying) {
  Expected<std::unique_ptr<int>, int> good = std::make_unique<int>(7);
  std::unique_ptr<int> taken = std::move(good).value_or(nullptr);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);

  Expected<std::unique_ptr<int>, int> bad = MakeUnexpected(1);
  std::unique_ptr<int> fallback = std::move(bad).value_or(std::make_unique<int>(9));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(*fallback, 9);
}

TEST(ExpectedTest, StatusCarriesOkOrError) {
  Status<std::string> ok = Ok();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, Monostate{});

  Status<std::string> failed = MakeUnexpected(std::string("write-back lost"));
  ASSERT_FALSE(failed.has_value());
  EXPECT_EQ(failed.error(), "write-back lost");
  EXPECT_FALSE(static_cast<bool>(failed));
}

TEST(ExpectedDeathTest, ValueOnErrorAborts) {
  Expected<int, int> e = MakeUnexpected(3);
  EXPECT_DEATH(e.value(), "Expected::value");
}

TEST(ExpectedDeathTest, ErrorOnValueAborts) {
  Expected<int, int> e = 3;
  EXPECT_DEATH(e.error(), "Expected::error");
}

// --- Clock ------------------------------------------------------------------

TEST(ClockTest, StartsAtZeroAndAdvances) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5);
  clock.Advance(7);
  EXPECT_EQ(clock.now(), 12u);
}

TEST(ClockTest, AdvanceToMovesForward) {
  Clock clock;
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(100);  // no-op allowed
  EXPECT_EQ(clock.now(), 100u);
}

TEST(ClockTest, ResetReturnsToZero) {
  Clock clock;
  clock.Advance(9);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(ClockDeathTest, CannotMoveBackwards) {
  Clock clock;
  clock.Advance(10);
  EXPECT_DEATH(clock.AdvanceTo(5), "backwards");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.Between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(15);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Chance(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(RngTest, ExponentialSizeBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t s = rng.ExponentialSize(64.0, 1000);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 1000u);
  }
}

TEST(RngTest, ExponentialSizeMeanRoughlyMatches) {
  Rng rng(19);
  double sum = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.ExponentialSize(100.0, 1u << 30));
  }
  // Mean of 1 + Exp(100) is ~101; allow generous tolerance.
  EXPECT_NEAR(sum / trials, 101.0, 5.0);
}

TEST(RngTest, ReseedReproduces) {
  Rng rng(21);
  const std::uint64_t first = rng.Next();
  rng.Next();
  rng.Seed(21);
  EXPECT_EQ(rng.Next(), first);
}

TEST(RngTest, ForkIsPureFunctionOfSeedAndStream) {
  // Forking neither draws from nor perturbs the parent, so forks taken
  // before and after heavy parent use — or from a fresh generator with the
  // same seed — are the same stream.  This is what makes per-cell forks
  // independent of sweep scheduling order.
  Rng parent(1967);
  Rng early = parent.Fork(5);
  for (int i = 0; i < 1000; ++i) {
    parent.Next();
  }
  Rng late = parent.Fork(5);
  Rng fresh = Rng(1967).Fork(5);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t expected = fresh.Next();
    EXPECT_EQ(early.Next(), expected);
    EXPECT_EQ(late.Next(), expected);
  }
}

TEST(RngTest, ForkedStreamsAreMutuallyDistinct) {
  Rng parent(7);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  Rng c = parent.Fork(2);
  int disagreements = 0;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t va = a.Next();
    const std::uint64_t vb = b.Next();
    const std::uint64_t vc = c.Next();
    disagreements += (va != vb) + (vb != vc) + (va != vc);
  }
  // Independent 64-bit streams should essentially never collide pointwise.
  EXPECT_GE(disagreements, 3 * 256 - 3);
}

TEST(RngTest, ForkedStreamNeverOverlapsParentOverLongHorizon) {
  // The header's non-overlap promise: draw 2^17 values from the parent and
  // from one fork; no window of the child sequence may appear in the
  // parent's (checked via 64-bit draw membership — a single shared value
  // would already be suspicious at this horizon, ~2^34 birthday pairs vs
  // 2^64 space).
  constexpr std::size_t kHorizon = std::size_t{1} << 17;
  Rng parent(0xDEADBEEF);
  Rng child = parent.Fork(3);
  std::unordered_set<std::uint64_t> parent_draws;
  parent_draws.reserve(kHorizon);
  for (std::size_t i = 0; i < kHorizon; ++i) {
    parent_draws.insert(parent.Next());
  }
  std::size_t collisions = 0;
  for (std::size_t i = 0; i < kHorizon; ++i) {
    collisions += parent_draws.count(child.Next());
  }
  EXPECT_EQ(collisions, 0u);
}

TEST(RngTest, Fork2StreamsDistinctAcrossGridAndAgainstFlatForks) {
  // The header's Fork2 promise: over a (2^8 x 2^8) grid of (outer, inner)
  // pairs, every hierarchical stream is distinct — from each other and from
  // the flat Fork streams of the same parent.  First draws landing in a
  // shared set is a birthday test (~2^17 streams against 2^64 space: any
  // collision means structural correlation, not chance).
  Rng parent(1967);
  std::unordered_set<std::uint64_t> first_draws;
  for (std::uint64_t flat = 0; flat < 256; ++flat) {
    EXPECT_TRUE(first_draws.insert(parent.Fork(flat).Next()).second);
  }
  for (std::uint64_t outer = 0; outer < 256; ++outer) {
    for (std::uint64_t inner = 0; inner < 256; ++inner) {
      EXPECT_TRUE(first_draws.insert(parent.Fork2(outer, inner).Next()).second)
          << "Fork2(" << outer << ", " << inner << ") collided";
    }
  }
}

TEST(RngTest, Fork2IsPureAndEqualsNestedForks) {
  Rng parent(42);
  Rng direct = parent.Fork2(9, 4);
  for (int i = 0; i < 100; ++i) {
    parent.Next();
  }
  Rng nested = parent.Fork(9).Fork(4);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(direct.Next(), nested.Next());
  }
}

// --- Characteristics ----------------------------------------------------------

TEST(CharacteristicsTest, DefaultIsLinearPagedNoPrediction) {
  Characteristics c;
  EXPECT_EQ(c.name_space, NameSpaceKind::kLinear);
  EXPECT_EQ(c.predictive, PredictiveInformation::kNotAccepted);
  EXPECT_EQ(c.contiguity, ArtificialContiguity::kNone);
  EXPECT_EQ(c.unit, AllocationUnit::kUniformPages);
}

TEST(CharacteristicsTest, AuthorsFavoredMatchesTheSummarySection) {
  const Characteristics c = AuthorsFavoredCharacteristics();
  EXPECT_EQ(c.name_space, NameSpaceKind::kSymbolicallySegmented);
  EXPECT_EQ(c.predictive, PredictiveInformation::kAccepted);
  EXPECT_EQ(c.contiguity, ArtificialContiguity::kProvided);
  EXPECT_EQ(c.unit, AllocationUnit::kVariableBlocks);
}

TEST(CharacteristicsTest, DescribeMentionsEveryAxis) {
  const std::string text = Describe(AuthorsFavoredCharacteristics());
  EXPECT_NE(text.find("symbolically segmented"), std::string::npos);
  EXPECT_NE(text.find("accepted"), std::string::npos);
  EXPECT_NE(text.find("artificial contiguity"), std::string::npos);
  EXPECT_NE(text.find("variable blocks"), std::string::npos);
}

TEST(CharacteristicsTest, EqualityIsMemberwise) {
  Characteristics a = AuthorsFavoredCharacteristics();
  Characteristics b = a;
  EXPECT_EQ(a, b);
  b.unit = AllocationUnit::kUniformPages;
  EXPECT_NE(a, b);
}

TEST(StrategyTest, ToStringCoversEveryKind) {
  EXPECT_STREQ(ToString(FetchStrategyKind::kDemand), "demand");
  EXPECT_STREQ(ToString(FetchStrategyKind::kPrefetch), "prefetch");
  EXPECT_STREQ(ToString(FetchStrategyKind::kAdvised), "advised");
  EXPECT_STREQ(ToString(PlacementStrategyKind::kBestFit), "best-fit");
  EXPECT_STREQ(ToString(PlacementStrategyKind::kTwoEnded), "two-ended");
  EXPECT_STREQ(ToString(PlacementStrategyKind::kRiceChain), "rice-chain");
  EXPECT_STREQ(ToString(ReplacementStrategyKind::kAtlasLearning), "atlas-learning");
  EXPECT_STREQ(ToString(ReplacementStrategyKind::kM44Class), "m44-class");
  EXPECT_STREQ(ToString(ReplacementStrategyKind::kOpt), "opt");
}

// --- HardwareFacilitySet ------------------------------------------------------

TEST(HardwareFacilityTest, EmptySetDescribesAsNone) {
  HardwareFacilitySet set;
  EXPECT_EQ(set.Describe(), "(none)");
  EXPECT_FALSE(set.Has(HardwareFacility::kAddressMapping));
}

TEST(HardwareFacilityTest, AddAndQuery) {
  HardwareFacilitySet set;
  set.Add(HardwareFacility::kAddressMapping).Add(HardwareFacility::kStoragePacking);
  EXPECT_TRUE(set.Has(HardwareFacility::kAddressMapping));
  EXPECT_TRUE(set.Has(HardwareFacility::kStoragePacking));
  EXPECT_FALSE(set.Has(HardwareFacility::kInvalidAccessTrapping));
}

TEST(HardwareFacilityTest, DescribeListsInCatalogueOrder) {
  HardwareFacilitySet set;
  set.Add(HardwareFacility::kInvalidAccessTrapping).Add(HardwareFacility::kAddressMapping);
  EXPECT_EQ(set.Describe(), "address mapping, invalid access trapping");
}

// --- ResidentIndex -------------------------------------------------------------

// The first `n` keys at or above `from` whose probe starts at `slot`.
std::vector<std::uint64_t> KeysWithHome(const ResidentIndex& index, std::size_t slot,
                                        std::size_t n, std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = from; keys.size() < n; ++key) {
    if (index.HomeSlot(key) == slot) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(ResidentIndexTest, SizedOnceToAPowerOfTwoOfFourTimesTheFrames) {
  EXPECT_EQ(ResidentIndex(0).slot_count(), 2u);
  EXPECT_EQ(ResidentIndex(1).slot_count(), 4u);
  EXPECT_EQ(ResidentIndex(5).slot_count(), 32u);
  EXPECT_EQ(ResidentIndex(8).slot_count(), 32u);
  EXPECT_EQ(ResidentIndex(4096).slot_count(), 16384u);
  const ResidentIndex index(8);
  for (std::uint64_t key : {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}}) {
    EXPECT_LT(index.HomeSlot(key), index.slot_count());
  }
}

TEST(ResidentIndexTest, KeysSharingAHomeSlotSurviveEraseFromTheMiddle) {
  ResidentIndex index(8);
  const std::vector<std::uint64_t> chain = KeysWithHome(index, 5, 4);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    ASSERT_TRUE(index.Insert(chain[i], FrameId{i}));
  }
  // A key homed just past the chain's start is displaced behind it; the
  // backward shift must pull it forward without losing it.
  const std::uint64_t interloper = KeysWithHome(index, 6, 1).front();
  ASSERT_TRUE(index.Insert(interloper, FrameId{7}));
  EXPECT_FALSE(index.Insert(chain[2], FrameId{6}));  // already present: unchanged
  EXPECT_EQ(index.Find(chain[2]), FrameId{2});

  ASSERT_TRUE(index.Erase(chain[1]));
  EXPECT_FALSE(index.Erase(chain[1]));
  EXPECT_FALSE(index.Contains(chain[1]));
  EXPECT_EQ(index.Find(chain[0]), FrameId{0});
  EXPECT_EQ(index.Find(chain[2]), FrameId{2});
  EXPECT_EQ(index.Find(chain[3]), FrameId{3});
  EXPECT_EQ(index.Find(interloper), FrameId{7});
  EXPECT_EQ(index.size(), 4u);

  ASSERT_TRUE(index.Erase(chain[0]));
  ASSERT_TRUE(index.Erase(chain[3]));
  EXPECT_EQ(index.Find(chain[2]), FrameId{2});
  EXPECT_EQ(index.Find(interloper), FrameId{7});
  EXPECT_EQ(index.size(), 2u);
}

TEST(ResidentIndexTest, ProbeChainsWrapPastTheTableEnd) {
  ResidentIndex index(8);
  const std::size_t last = index.slot_count() - 1;
  // Three keys homed at the last slot fill it and wrap into slots 0 and 1;
  // a key homed at slot 0 then lands in slot 2.
  const std::vector<std::uint64_t> wrapped = KeysWithHome(index, last, 3);
  const std::uint64_t at_zero = KeysWithHome(index, 0, 1).front();
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    ASSERT_TRUE(index.Insert(wrapped[i], FrameId{i}));
  }
  ASSERT_TRUE(index.Insert(at_zero, FrameId{3}));
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    EXPECT_EQ(index.Find(wrapped[i]), FrameId{i});
  }
  ASSERT_TRUE(index.Erase(wrapped[0]));  // the hole opens at the last slot
  EXPECT_EQ(index.Find(wrapped[1]), FrameId{1});
  EXPECT_EQ(index.Find(wrapped[2]), FrameId{2});
  EXPECT_EQ(index.Find(at_zero), FrameId{3});
  ASSERT_TRUE(index.Erase(wrapped[2]));
  EXPECT_EQ(index.Find(wrapped[1]), FrameId{1});
  EXPECT_EQ(index.Find(at_zero), FrameId{3});
  ASSERT_TRUE(index.Erase(wrapped[1]));
  EXPECT_EQ(index.Find(at_zero), FrameId{3});
  EXPECT_EQ(index.size(), 1u);
}

TEST(ResidentIndexTest, ExtremeKeysAreOrdinaryKeys) {
  const std::uint64_t top = ~std::uint64_t{0};
  ResidentIndex index(4);
  EXPECT_FALSE(index.Contains(0));  // an empty slot never matches page 0
  EXPECT_FALSE(index.Erase(0));
  ASSERT_TRUE(index.Insert(0, FrameId{3}));
  ASSERT_TRUE(index.Insert(top, FrameId{0}));
  EXPECT_EQ(index.Find(0), FrameId{3});
  EXPECT_EQ(index.Find(top), FrameId{0});
  ASSERT_TRUE(index.Erase(0));
  EXPECT_FALSE(index.Contains(0));
  EXPECT_EQ(index.Find(top), FrameId{0});
  EXPECT_EQ(index.size(), 1u);
}

TEST(ResidentIndexTest, FillsToTheFrameCountAndEmptiesAgain) {
  for (std::size_t frames : {std::size_t{1}, std::size_t{5}, std::size_t{8}}) {
    ResidentIndex index(frames);
    for (std::size_t f = 0; f < frames; ++f) {
      ASSERT_TRUE(index.Insert(1000 * f + 17, FrameId{f}));
    }
    EXPECT_EQ(index.size(), frames);
    // At capacity, re-inserting a present page is still refused cleanly.
    EXPECT_FALSE(index.Insert(17, FrameId{0}));
    for (std::size_t f = 0; f < frames; ++f) {
      EXPECT_EQ(index.Find(1000 * f + 17), FrameId{f});
    }
    for (std::size_t f = 0; f < frames; ++f) {
      ASSERT_TRUE(index.Erase(1000 * f + 17));
    }
    EXPECT_EQ(index.size(), 0u);
    std::size_t visited = 0;
    index.ForEach([&](std::uint64_t, FrameId) { ++visited; });
    EXPECT_EQ(visited, 0u);
  }
}

TEST(ResidentIndexTest, SeededStreamMatchesAnUnorderedMapOracle) {
  for (std::size_t frames : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{64}}) {
    ResidentIndex index(frames);
    std::unordered_map<std::uint64_t, FrameId> oracle;
    Rng rng(0x1dc0 + frames);
    // Keys: small ids, ids crowded onto two home slots (one of them the last,
    // so chains wrap), and ids at the top of the key space.
    std::vector<std::uint64_t> pool;
    for (std::uint64_t k = 0; k < 3 * frames; ++k) {
      pool.push_back(k);
      pool.push_back(~std::uint64_t{0} - k);
    }
    for (std::size_t slot : {std::size_t{1}, index.slot_count() - 1}) {
      for (std::uint64_t key : KeysWithHome(index, slot, frames + 2, 1u << 20)) {
        pool.push_back(key);
      }
    }
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = pool[rng.Below(pool.size())];
      const FrameId frame{rng.Below(frames)};
      const bool present = oracle.contains(key);
      switch (rng.Below(3)) {
        case 0:
          if (present || oracle.size() < frames) {
            ASSERT_EQ(index.Insert(key, frame), oracle.emplace(key, frame).second);
          }
          break;
        case 1:
          ASSERT_EQ(index.Erase(key), oracle.erase(key) == 1);
          break;
        default: {
          const auto it = oracle.find(key);
          ASSERT_EQ(index.Find(key), it == oracle.end() ? std::nullopt
                                                        : std::optional<FrameId>{it->second});
          break;
        }
      }
      ASSERT_EQ(index.size(), oracle.size());
      if (step % 64 == 0) {
        std::unordered_map<std::uint64_t, FrameId> seen;
        index.ForEach([&](std::uint64_t page, FrameId f) { seen.emplace(page, f); });
        ASSERT_EQ(seen, oracle) << "frames=" << frames << " step=" << step;
      }
    }
  }
}

}  // namespace
}  // namespace dsa
