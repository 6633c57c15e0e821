// Unit tests for src/naming: linear, linearly segmented, and symbolically
// segmented name spaces — including the bookkeeping asymmetry of E8.

#include <gtest/gtest.h>

#include <string>

#include "src/naming/linear.h"
#include "src/naming/linearly_segmented.h"
#include "src/naming/symbolic.h"

namespace dsa {
namespace {

// --- LinearNameSpace -----------------------------------------------------------

TEST(LinearNameSpaceTest, ExtentBoundedByAddressBits) {
  LinearNameSpace names(10);
  EXPECT_EQ(names.extent(), 1024u);
  EXPECT_TRUE(names.Contains(Name{1023}));
  EXPECT_FALSE(names.Contains(Name{1024}));
}

TEST(LinearNameSpaceTest, ReducedLimit) {
  LinearNameSpace names(10, 100);
  EXPECT_TRUE(names.Contains(Name{99}));
  EXPECT_FALSE(names.Contains(Name{100}));
  names.SetExtent(200);
  EXPECT_TRUE(names.Contains(Name{150}));
}

TEST(LinearNameSpaceDeathTest, ExtentBeyondRepresentationAborts) {
  LinearNameSpace names(8);
  EXPECT_DEATH(names.SetExtent(257), "exceeds");
}

// --- LinearlySegmentedNameSpace ----------------------------------------------------

TEST(LinearlySegmentedTest, PackUnpackRoundTrip) {
  LinearlySegmentedNameSpace names(4, 20);  // 360/67 24-bit shape
  const SegmentedName original{SegmentId{5}, 123456};
  const auto packed = names.Pack(original);
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(names.Unpack(*packed), original);
}

TEST(LinearlySegmentedTest, SegmentNameOccupiesHighBits) {
  LinearlySegmentedNameSpace names(4, 20);
  const auto packed = names.Pack({SegmentId{3}, 7});
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(packed->value, (std::uint64_t{3} << 20) | 7);
}

TEST(LinearlySegmentedTest, LimitsEnforced) {
  LinearlySegmentedNameSpace names(4, 20);
  EXPECT_EQ(names.max_segments(), 16u);
  EXPECT_EQ(names.max_segment_extent(), 1u << 20);
  const auto bad_segment = names.Pack({SegmentId{16}, 0});
  ASSERT_FALSE(bad_segment.has_value());
  EXPECT_EQ(bad_segment.error(), NamePackError::kSegmentOutOfRange);
  const auto bad_offset = names.Pack({SegmentId{0}, 1u << 20});
  ASSERT_FALSE(bad_offset.has_value());
  EXPECT_EQ(bad_offset.error(), NamePackError::kOffsetOutOfRange);
}

TEST(LinearlySegmentedTest, RunAllocationIsContiguous) {
  LinearlySegmentedNameSpace names(4, 20);
  const auto a = names.AllocateRun(4);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, SegmentId{0});
  const auto b = names.AllocateRun(4);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, SegmentId{4});
  EXPECT_EQ(names.free_names(), 8u);
}

TEST(LinearlySegmentedTest, NameSpaceFragmentsLikeStorage) {
  LinearlySegmentedNameSpace names(4, 20);
  // Allocate 4 runs of 4, free runs 0 and 2: 8 names free, max run 4.
  const auto r0 = names.AllocateRun(4);
  const auto r1 = names.AllocateRun(4);
  const auto r2 = names.AllocateRun(4);
  const auto r3 = names.AllocateRun(4);
  ASSERT_TRUE(r0 && r1 && r2 && r3);
  names.FreeRun(*r0, 4);
  names.FreeRun(*r2, 4);
  EXPECT_EQ(names.free_names(), 8u);
  EXPECT_EQ(names.largest_free_run(), 4u);
  // "One does not need to search a dictionary for a group of available
  // contiguous segment names" — with linear names one does, and here it fails.
  EXPECT_FALSE(names.AllocateRun(8).has_value());
  EXPECT_EQ(names.run_failures(), 1u);
}

TEST(LinearlySegmentedTest, FreedRunsCoalesce) {
  LinearlySegmentedNameSpace names(4, 20);
  const auto r0 = names.AllocateRun(4);
  const auto r1 = names.AllocateRun(4);
  ASSERT_TRUE(r0 && r1);
  names.FreeRun(*r0, 4);
  names.FreeRun(*r1, 4);
  EXPECT_EQ(names.largest_free_run(), 16u);
  EXPECT_EQ(names.name_hole_count(), 1u);
}

TEST(LinearlySegmentedTest, BookkeepingOpsAccumulate) {
  LinearlySegmentedNameSpace names(6, 10);
  names.AllocateRun(2);
  const std::uint64_t after_first = names.bookkeeping_ops();
  EXPECT_GT(after_first, 0u);
  names.FreeRun(SegmentId{0}, 2);
  EXPECT_GT(names.bookkeeping_ops(), after_first);
}

// --- SymbolicSegmentDirectory -------------------------------------------------------

TEST(SymbolicDirectoryTest, CreateLookupDestroy) {
  SymbolicSegmentDirectory dir;
  const auto alpha = dir.Create("alpha");
  ASSERT_TRUE(alpha.has_value());
  EXPECT_EQ(dir.Lookup("alpha"), alpha);
  EXPECT_EQ(dir.SymbolOf(*alpha), "alpha");
  EXPECT_TRUE(dir.Destroy("alpha"));
  EXPECT_FALSE(dir.Lookup("alpha").has_value());
}

TEST(SymbolicDirectoryTest, DuplicateSymbolRejected) {
  SymbolicSegmentDirectory dir;
  ASSERT_TRUE(dir.Create("x").has_value());
  EXPECT_FALSE(dir.Create("x").has_value());
}

TEST(SymbolicDirectoryTest, DestroyOfUnknownReturnsFalse) {
  SymbolicSegmentDirectory dir;
  EXPECT_FALSE(dir.Destroy("ghost"));
}

TEST(SymbolicDirectoryTest, IdsRecycleWithoutFragmentation) {
  SymbolicSegmentDirectory dir(/*max_segments=*/4);
  const auto a = dir.Create("a");
  const auto b = dir.Create("b");
  const auto c = dir.Create("c");
  const auto d = dir.Create("d");
  ASSERT_TRUE(a && b && c && d);
  EXPECT_FALSE(dir.Create("e").has_value());  // full
  // Destroy two arbitrary symbols; creation succeeds immediately — no
  // contiguity, no search, no tolerated fragmentation.
  dir.Destroy("b");
  dir.Destroy("d");
  EXPECT_TRUE(dir.Create("e").has_value());
  EXPECT_TRUE(dir.Create("f").has_value());
  EXPECT_EQ(dir.size(), 4u);
}

TEST(SymbolicDirectoryTest, BookkeepingIsConstantPerOperation) {
  // E8's claim in miniature: symbolic bookkeeping is one op per call,
  // regardless of churn history; linear run allocation scans holes.
  SymbolicSegmentDirectory dir;
  for (int i = 0; i < 100; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    dir.Create(name);
  }
  const std::uint64_t before = dir.bookkeeping_ops();
  dir.Create("one-more");
  EXPECT_EQ(dir.bookkeeping_ops(), before + 1);
}

TEST(SymbolicDirectoryTest, ReverseLookupOfUnknownIdIsEmpty) {
  SymbolicSegmentDirectory dir;
  EXPECT_FALSE(dir.SymbolOf(SegmentId{42}).has_value());
}

}  // namespace
}  // namespace dsa
