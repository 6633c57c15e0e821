// Unit tests for src/trace: generators, allocation traces, and trace IO.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>

#include "src/trace/allocation.h"
#include "src/trace/reference.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

namespace dsa {
namespace {

// --- ReferenceTrace helpers ----------------------------------------------------

TEST(ReferenceTraceTest, NameExtentIsMaxPlusOne) {
  ReferenceTrace trace;
  trace.refs = {{Name{3}, AccessKind::kRead}, {Name{10}, AccessKind::kWrite}};
  EXPECT_EQ(trace.NameExtent(), 11u);
}

TEST(ReferenceTraceTest, EmptyTraceHasZeroExtent) {
  ReferenceTrace trace;
  EXPECT_EQ(trace.NameExtent(), 0u);
  EXPECT_TRUE(trace.empty());
}

TEST(ReferenceTraceTest, PageStringDividesBySize) {
  ReferenceTrace trace;
  trace.refs = {{Name{0}, AccessKind::kRead},
                {Name{511}, AccessKind::kRead},
                {Name{512}, AccessKind::kRead},
                {Name{1024}, AccessKind::kRead}};
  const auto pages = trace.PageString(512);
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0], PageId{0});
  EXPECT_EQ(pages[1], PageId{0});
  EXPECT_EQ(pages[2], PageId{1});
  EXPECT_EQ(pages[3], PageId{2});
}

TEST(ReferenceTraceTest, DistinctPagesCountsUnique) {
  ReferenceTrace trace;
  for (int i = 0; i < 100; ++i) {
    trace.refs.push_back({Name{static_cast<std::uint64_t>(i % 20)}, AccessKind::kRead});
  }
  EXPECT_EQ(trace.DistinctPages(10), 2u);
  EXPECT_EQ(trace.DistinctPages(1), 20u);
}

// --- Generators -----------------------------------------------------------------

TEST(SyntheticTraceTest, SequentialWrapsAroundExtent) {
  SequentialTraceParams params;
  params.extent = 10;
  params.length = 25;
  const ReferenceTrace trace = MakeSequentialTrace(params);
  ASSERT_EQ(trace.size(), 25u);
  EXPECT_EQ(trace.refs[0].name, Name{0});
  EXPECT_EQ(trace.refs[9].name, Name{9});
  EXPECT_EQ(trace.refs[10].name, Name{0});
  EXPECT_EQ(trace.refs[24].name, Name{4});
}

TEST(SyntheticTraceTest, GeneratorsAreDeterministic) {
  RandomTraceParams params;
  params.length = 1000;
  const ReferenceTrace a = MakeRandomTrace(params);
  const ReferenceTrace b = MakeRandomTrace(params);
  EXPECT_EQ(a.refs, b.refs);
}

TEST(SyntheticTraceTest, RandomStaysInExtent) {
  RandomTraceParams params;
  params.extent = 100;
  params.length = 5000;
  const ReferenceTrace trace = MakeRandomTrace(params);
  for (const Reference& ref : trace.refs) {
    EXPECT_LT(ref.name.value, 100u);
  }
}

TEST(SyntheticTraceTest, WriteFractionRoughlyHolds) {
  RandomTraceParams params;
  params.length = 50000;
  params.write_fraction = 0.4;
  const ReferenceTrace trace = MakeRandomTrace(params);
  std::size_t writes = 0;
  for (const Reference& ref : trace.refs) {
    if (ref.kind == AccessKind::kWrite) {
      ++writes;
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / trace.size(), 0.4, 0.02);
}

TEST(SyntheticTraceTest, LoopTraceRepeatsItsBody) {
  LoopTraceParams params;
  params.extent = 1 << 16;
  params.body_words = 100;
  params.advance_words = 50;
  params.iterations = 3;
  params.length = 600;
  const ReferenceTrace trace = MakeLoopTrace(params);
  // The first three sweeps cover the same 100 words.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(trace.refs[i].name, trace.refs[i + 100].name);
    EXPECT_EQ(trace.refs[i].name, trace.refs[i + 200].name);
  }
  // The fourth sweep starts 50 words later.
  EXPECT_EQ(trace.refs[300].name, Name{50});
}

TEST(SyntheticTraceTest, WorkingSetStaysWithinPhaseRegions) {
  WorkingSetTraceParams params;
  params.extent = 1 << 14;
  params.region_words = 128;
  params.regions_per_phase = 4;
  params.phases = 3;
  params.phase_length = 1000;
  const ReferenceTrace trace = MakeWorkingSetTrace(params);
  ASSERT_EQ(trace.size(), 3000u);
  // Each phase touches at most regions_per_phase distinct regions.
  for (std::size_t phase = 0; phase < 3; ++phase) {
    std::unordered_set<std::uint64_t> regions;
    for (std::size_t i = phase * 1000; i < (phase + 1) * 1000; ++i) {
      regions.insert(trace.refs[i].name.value / 128);
    }
    EXPECT_LE(regions.size(), 4u);
  }
}

TEST(SyntheticTraceTest, MatrixRowVsColumnMajorTouchSameCells) {
  MatrixTraceParams params;
  params.rows = 16;
  params.cols = 8;
  params.passes = 1;
  params.column_major = false;
  const ReferenceTrace row_major = MakeMatrixTrace(params);
  params.column_major = true;
  const ReferenceTrace col_major = MakeMatrixTrace(params);
  ASSERT_EQ(row_major.size(), col_major.size());
  std::unordered_set<std::uint64_t> a, b;
  for (const Reference& r : row_major.refs) {
    a.insert(r.name.value);
  }
  for (const Reference& r : col_major.refs) {
    b.insert(r.name.value);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 128u);
}

TEST(SyntheticTraceTest, MatrixColumnMajorStridesByCols) {
  MatrixTraceParams params;
  params.rows = 4;
  params.cols = 8;
  params.passes = 1;
  params.column_major = true;
  const ReferenceTrace trace = MakeMatrixTrace(params);
  EXPECT_EQ(trace.refs[0].name, Name{0});
  EXPECT_EQ(trace.refs[1].name, Name{8});
  EXPECT_EQ(trace.refs[2].name, Name{16});
}

TEST(SyntheticTraceTest, ZipfSkewsTowardLowNames) {
  ZipfTraceParams params;
  params.extent = 1000;
  params.length = 50000;
  params.theta = 0.99;
  const ReferenceTrace trace = MakeZipfTrace(params);
  std::size_t in_head = 0;
  for (const Reference& ref : trace.refs) {
    EXPECT_LT(ref.name.value, 1000u);
    if (ref.name.value < 100) {
      ++in_head;
    }
  }
  // Under strong skew the first 10% of names draw well over half the refs.
  EXPECT_GT(static_cast<double>(in_head) / trace.size(), 0.5);
}

TEST(SyntheticTraceTest, ConcatenatePreservesOrderAndLabels) {
  SequentialTraceParams a_params;
  a_params.extent = 4;
  a_params.length = 4;
  RandomTraceParams b_params;
  b_params.extent = 4;
  b_params.length = 3;
  const ReferenceTrace joined =
      Concatenate(MakeSequentialTrace(a_params), MakeRandomTrace(b_params));
  EXPECT_EQ(joined.size(), 7u);
  EXPECT_EQ(joined.label, "sequential+random");
  EXPECT_EQ(joined.refs[0].name, Name{0});
}

// --- Allocation traces -------------------------------------------------------------

TEST(AllocationTraceTest, GeneratorIsDeterministic) {
  AllocationTraceParams params;
  params.operations = 2000;
  EXPECT_EQ(MakeAllocationTrace(params).ops, MakeAllocationTrace(params).ops);
}

TEST(AllocationTraceTest, FreesOnlyLiveObjects) {
  AllocationTraceParams params;
  params.operations = 5000;
  const AllocationTrace trace = MakeAllocationTrace(params);
  std::unordered_set<std::uint64_t> live;
  for (const AllocOp& op : trace.ops) {
    if (op.kind == AllocOpKind::kAllocate) {
      EXPECT_TRUE(live.insert(op.request).second) << "request id reused";
      EXPECT_GE(op.size, params.min_size);
      EXPECT_LE(op.size, params.max_size);
    } else {
      EXPECT_TRUE(live.erase(op.request)) << "free of dead object";
    }
  }
}

TEST(AllocationTraceTest, SteadyStateHoversNearTarget) {
  AllocationTraceParams params;
  params.operations = 20000;
  params.target_live = 100;
  const AllocationTrace trace = MakeAllocationTrace(params);
  std::size_t live = 0;
  std::size_t max_live = 0;
  for (const AllocOp& op : trace.ops) {
    live += op.kind == AllocOpKind::kAllocate ? 1 : 0;
    live -= op.kind == AllocOpKind::kFree ? 1 : 0;
    max_live = std::max(max_live, live);
  }
  EXPECT_GE(max_live, 100u);
  EXPECT_LT(max_live, 300u);  // hovers, does not run away
}

TEST(AllocationTraceTest, FixedDistributionIsConstant) {
  AllocationTraceParams params;
  params.distribution = SizeDistribution::kFixed;
  params.mean_size = 64.0;
  params.operations = 500;
  const AllocationTrace trace = MakeAllocationTrace(params);
  for (const AllocOp& op : trace.ops) {
    if (op.kind == AllocOpKind::kAllocate) {
      EXPECT_EQ(op.size, 64u);
    }
  }
}

TEST(AllocationTraceTest, BimodalUsesOnlyTwoSizes) {
  AllocationTraceParams params;
  params.distribution = SizeDistribution::kBimodal;
  params.small_size = 8;
  params.large_size = 512;
  params.operations = 2000;
  const AllocationTrace trace = MakeAllocationTrace(params);
  for (const AllocOp& op : trace.ops) {
    if (op.kind == AllocOpKind::kAllocate) {
      EXPECT_TRUE(op.size == 8 || op.size == 512);
    }
  }
}

TEST(AllocationTraceTest, PeakLiveWordsMatchesManualReplay) {
  AllocationTraceParams params;
  params.operations = 3000;
  const AllocationTrace trace = MakeAllocationTrace(params);
  WordCount live = 0;
  WordCount peak = 0;
  std::unordered_map<std::uint64_t, WordCount> sizes;
  for (const AllocOp& op : trace.ops) {
    if (op.kind == AllocOpKind::kAllocate) {
      sizes[op.request] = op.size;
      live += op.size;
      peak = std::max(peak, live);
    } else {
      live -= sizes[op.request];
    }
  }
  EXPECT_EQ(trace.PeakLiveWords(), peak);
}

// --- Trace IO ------------------------------------------------------------------------

TEST(TraceIoTest, ReferenceRoundTrip) {
  RandomTraceParams params;
  params.length = 500;
  const ReferenceTrace original = MakeRandomTrace(params);
  std::stringstream buffer;
  WriteReferenceTrace(original, &buffer);
  const auto parsed = ReadReferenceTrace(&buffer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->label, original.label);
  EXPECT_EQ(parsed->refs, original.refs);
}

TEST(TraceIoTest, AllocationRoundTrip) {
  AllocationTraceParams params;
  params.operations = 500;
  const AllocationTrace original = MakeAllocationTrace(params);
  std::stringstream buffer;
  WriteAllocationTrace(original, &buffer);
  const auto parsed = ReadAllocationTrace(&buffer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->label, original.label);
  EXPECT_EQ(parsed->ops, original.ops);
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream in("# comment\n\nlabel t\nref 5 w\n  # indented comment\nref 6 r\n");
  const auto parsed = ReadReferenceTrace(&in);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->refs.size(), 2u);
  EXPECT_EQ(parsed->refs[0].name, Name{5});
  EXPECT_EQ(parsed->refs[0].kind, AccessKind::kWrite);
}

TEST(TraceIoTest, BadAccessKindReportsLine) {
  std::stringstream in("ref 1 q\n");
  const auto parsed = ReadReferenceTrace(&in);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().line, 1u);
  EXPECT_NE(parsed.error().message.find("bad access kind"), std::string::npos);
}

TEST(TraceIoTest, UnknownVerbIsAnError) {
  std::stringstream in("label x\nfetch 3\n");
  const auto parsed = ReadReferenceTrace(&in);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().line, 2u);
}

// Strict ref lines: each malformed line is rejected with its line number
// instead of being read as some other reference.
void ExpectRefLineRejected(const std::string& bad_line, const std::string& message) {
  std::stringstream in("label t\nref 1 r\n" + bad_line + "\nref 2 w\n");
  const auto parsed = ReadReferenceTrace(&in);
  ASSERT_FALSE(parsed.has_value()) << bad_line;
  EXPECT_EQ(parsed.error().line, 3u) << bad_line;
  EXPECT_NE(parsed.error().message.find(message), std::string::npos)
      << bad_line << " -> " << parsed.error().message;
}

TEST(TraceIoTest, NegativeRefNameRejected) {
  ExpectRefLineRejected("ref -1 r", "bad ref name: -1");
  ExpectRefLineRejected("ref +1 r", "bad ref name: +1");
}

TEST(TraceIoTest, TrailingTokenAfterRefRejected) {
  ExpectRefLineRejected("ref 1 r junk", "trailing token after ref: junk");
}

TEST(TraceIoTest, OverflowingRefNameRejected) {
  ExpectRefLineRejected("ref 18446744073709551616 r", "ref name out of range");
}

TEST(TraceIoTest, MalformedRefFieldsRejected) {
  ExpectRefLineRejected("ref 12x r", "bad ref name: 12x");
  ExpectRefLineRejected("ref 1", "expected: ref <name> <r|w|x>");
  ExpectRefLineRejected("ref", "expected: ref <name> <r|w|x>");
}

TEST(TraceIoTest, RefEdgesAndCommentsRoundTrip) {
  ReferenceTrace original;
  original.label = "edges";
  original.refs = {{Name{0}, AccessKind::kExecute},
                   {Name{18446744073709551615ULL}, AccessKind::kWrite}};
  std::stringstream buffer;
  WriteReferenceTrace(original, &buffer);
  const auto parsed = ReadReferenceTrace(&buffer);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->label, original.label);
  EXPECT_EQ(parsed->refs, original.refs);

  // A trailing comment, tabs and a CRLF line end are not tokens.
  std::stringstream in("ref\t7 r  # seven\r\nref 8 w\r\n");
  const auto loose = ReadReferenceTrace(&in);
  ASSERT_TRUE(loose.has_value()) << loose.error().message;
  ASSERT_EQ(loose->refs.size(), 2u);
  EXPECT_EQ(loose->refs[0].name, Name{7});
  EXPECT_EQ(loose->refs[1].kind, AccessKind::kWrite);
}

TEST(TraceIoTest, AllocWithZeroSizeRejected) {
  std::stringstream in("alloc 1 0\n");
  const auto parsed = ReadAllocationTrace(&in);
  ASSERT_FALSE(parsed.has_value());
}

// Strict alloc/free lines, as for ref lines above.
void ExpectAllocLineRejected(const std::string& bad_line, const std::string& message) {
  std::stringstream in("label t\nalloc 1 4\n" + bad_line + "\nfree 1\n");
  const auto parsed = ReadAllocationTrace(&in);
  ASSERT_FALSE(parsed.has_value()) << bad_line;
  EXPECT_EQ(parsed.error().line, 3u) << bad_line;
  EXPECT_NE(parsed.error().message.find(message), std::string::npos)
      << bad_line << " -> " << parsed.error().message;
}

TEST(TraceIoTest, SignedAllocFieldsRejected) {
  ExpectAllocLineRejected("alloc -1 4", "bad alloc request: -1");
  ExpectAllocLineRejected("alloc 1 +4", "bad alloc size: +4");
  ExpectAllocLineRejected("free -1", "bad free request: -1");
}

TEST(TraceIoTest, TrailingTokenAfterAllocOrFreeRejected) {
  ExpectAllocLineRejected("alloc 1 4 junk", "trailing token after alloc: junk");
  ExpectAllocLineRejected("free 1 junk", "trailing token after free: junk");
}

TEST(TraceIoTest, OverflowingAllocFieldsRejected) {
  ExpectAllocLineRejected("alloc 1 18446744073709551616", "alloc size out of range");
  ExpectAllocLineRejected("alloc 18446744073709551616 4", "alloc request out of range");
  ExpectAllocLineRejected("free 18446744073709551616", "free request out of range");
}

TEST(TraceIoTest, MalformedAllocFieldsRejected) {
  ExpectAllocLineRejected("alloc 1", "expected: alloc <request> <size>");
  ExpectAllocLineRejected("alloc 1 0", "alloc size must be positive");
  ExpectAllocLineRejected("alloc 1 4x", "bad alloc size: 4x");
  ExpectAllocLineRejected("free", "expected: free <request>");
}

TEST(TraceIoTest, LabelTakesExactlyOneToken) {
  ExpectAllocLineRejected("label a b", "trailing token after label: b");
  ExpectAllocLineRejected("label", "expected: label <one token>");
  ExpectRefLineRejected("label a b", "trailing token after label: b");
  ExpectRefLineRejected("label  # only a comment", "expected: label <one token>");
}

TEST(TraceIoTest, AllocationEdgesAndEmptyLabelsRoundTrip) {
  AllocationTrace original;
  original.ops = {{AllocOpKind::kAllocate, 0, 1},
                  {AllocOpKind::kAllocate, 18446744073709551615ULL, 18446744073709551615ULL},
                  {AllocOpKind::kFree, 18446744073709551615ULL, 0},
                  {AllocOpKind::kFree, 0, 0}};
  std::stringstream buffer;
  WriteAllocationTrace(original, &buffer);
  const auto parsed = ReadAllocationTrace(&buffer);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->label, "");
  EXPECT_EQ(parsed->ops, original.ops);

  ReferenceTrace refs;
  refs.refs = {{Name{3}, AccessKind::kRead}};
  std::stringstream ref_buffer;
  WriteReferenceTrace(refs, &ref_buffer);
  const auto ref_parsed = ReadReferenceTrace(&ref_buffer);
  ASSERT_TRUE(ref_parsed.has_value()) << ref_parsed.error().message;
  EXPECT_EQ(ref_parsed->label, "");
  EXPECT_EQ(ref_parsed->refs, refs.refs);

  // Comments, tabs and CRLF line ends are not tokens in allocation traces either.
  std::stringstream in("label\tt # name\r\nalloc\t7 2  # seven\r\nfree 7\r\n");
  const auto loose = ReadAllocationTrace(&in);
  ASSERT_TRUE(loose.has_value()) << loose.error().message;
  EXPECT_EQ(loose->label, "t");
  ASSERT_EQ(loose->ops.size(), 2u);
  EXPECT_EQ(loose->ops[0].size, 2u);
  EXPECT_EQ(loose->ops[1].kind, AllocOpKind::kFree);
}

TEST(TraceIoDeathTest, MultiTokenLabelAbortsOnWrite) {
  ReferenceTrace refs;
  refs.label = "two words";
  std::stringstream buffer;
  EXPECT_DEATH(WriteReferenceTrace(refs, &buffer), "one token");
  AllocationTrace allocs;
  allocs.label = "hash#inside";
  EXPECT_DEATH(WriteAllocationTrace(allocs, &buffer), "one token");
}

// Every label a generator sets is one token, so what the writers emit
// reads back under the strict label rule.
TEST(TraceIoTest, GeneratedTracesRoundTripUnderStrictLabels) {
  AllocationTraceParams alloc;
  alloc.operations = 300;
  PhaseTraceParams phase;
  phase.operations = 300;
  MeasuredTraceParams measured;
  measured.allocations = 150;
  for (const AllocationTrace& original :
       {MakeAllocationTrace(alloc), MakePhaseAllocationTrace(phase),
        MakeMeasuredAllocationTrace(measured)}) {
    std::stringstream buffer;
    WriteAllocationTrace(original, &buffer);
    const auto parsed = ReadAllocationTrace(&buffer);
    ASSERT_TRUE(parsed.has_value()) << original.label << ": " << parsed.error().message;
    EXPECT_EQ(parsed->label, original.label);
    EXPECT_EQ(parsed->ops, original.ops);
  }

  SequentialTraceParams sequential;
  sequential.length = 200;
  RandomTraceParams random;
  random.length = 200;
  LoopTraceParams loop;
  loop.length = 200;
  WorkingSetTraceParams working_set;
  working_set.phase_length = 100;
  MatrixTraceParams matrix;
  matrix.rows = 16;
  matrix.cols = 16;
  matrix.column_major = true;
  ZipfTraceParams zipf;
  zipf.length = 200;
  for (const ReferenceTrace& original :
       {MakeSequentialTrace(sequential), MakeRandomTrace(random), MakeLoopTrace(loop),
        MakeWorkingSetTrace(working_set), MakeMatrixTrace(matrix), MakeZipfTrace(zipf),
        Concatenate(MakeSequentialTrace(sequential), MakeZipfTrace(zipf))}) {
    std::stringstream buffer;
    WriteReferenceTrace(original, &buffer);
    const auto parsed = ReadReferenceTrace(&buffer);
    ASSERT_TRUE(parsed.has_value()) << original.label << ": " << parsed.error().message;
    EXPECT_EQ(parsed->label, original.label);
    EXPECT_EQ(parsed->refs, original.refs);
  }
}

}  // namespace
}  // namespace dsa
