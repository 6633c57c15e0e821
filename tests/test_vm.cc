// Integration tests for the three VM families and the SystemBuilder.

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_segmented_vm.h"
#include "src/vm/paged_vm.h"
#include "src/vm/segmented_vm.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

PagedVmConfig SmallPagedConfig() {
  PagedVmConfig config;
  config.label = "test-paged";
  config.address_bits = 14;  // 16K-word name space
  config.core_words = 4096;
  config.page_words = 256;
  config.backing_level = MakeDrumLevel("drum", 1u << 16, /*word_time=*/2,
                                       /*rotational_delay=*/500);
  config.replacement = ReplacementStrategyKind::kLru;
  return config;
}

ReferenceTrace SmallWorkload() {
  WorkingSetTraceParams params;
  params.extent = 1 << 14;
  params.region_words = 128;
  params.regions_per_phase = 8;
  params.phases = 4;
  params.phase_length = 4000;
  return MakeWorkingSetTrace(params);
}

// --- PagedLinearVm -----------------------------------------------------------------

TEST(PagedVmTest, CompulsoryFaultsOnSequentialSweep) {
  PagedVmConfig config = SmallPagedConfig();
  config.core_words = 1 << 14;  // everything fits: only compulsory misses
  PagedLinearVm vm(config);
  SequentialTraceParams params;
  params.extent = 1 << 14;
  params.length = 1 << 14;
  const VmReport report = vm.Run(MakeSequentialTrace(params));
  EXPECT_EQ(report.faults, (1u << 14) / 256);
  EXPECT_EQ(report.references, 1u << 14);
}

TEST(PagedVmTest, ReportCyclesDecompose) {
  PagedLinearVm vm(SmallPagedConfig());
  const VmReport report = vm.Run(SmallWorkload());
  EXPECT_EQ(report.total_cycles,
            report.compute_cycles + report.translation_cycles + report.wait_cycles);
  EXPECT_GT(report.faults, 0u);
  EXPECT_GT(report.space_time.total(), 0.0);
  EXPECT_LE(report.peak_resident_words, 4096u);
}

TEST(PagedVmTest, RunsAreReproducible) {
  PagedLinearVm vm(SmallPagedConfig());
  const ReferenceTrace trace = SmallWorkload();
  const VmReport a = vm.Run(trace);
  const VmReport b = vm.Run(trace);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.space_time.active, b.space_time.active);
}

TEST(PagedVmTest, SlowerBackingRaisesWaitingShareOfSpaceTime) {
  // Fig. 3's argument: the waiting shading grows with page-fetch time.
  PagedVmConfig fast = SmallPagedConfig();
  fast.backing_level = MakeDrumLevel("fast", 1u << 16, 1, 50);
  PagedVmConfig slow = SmallPagedConfig();
  slow.backing_level = MakeDiskLevel("slow", 1u << 16, 4, 20000);
  const ReferenceTrace trace = SmallWorkload();
  const VmReport fast_report = PagedLinearVm(fast).Run(trace);
  const VmReport slow_report = PagedLinearVm(slow).Run(trace);
  EXPECT_LT(fast_report.space_time.WaitingFraction(),
            slow_report.space_time.WaitingFraction());
}

TEST(PagedVmTest, OutOfNameSpaceCountsAsBoundsViolation) {
  PagedLinearVm vm(SmallPagedConfig());
  ReferenceTrace trace;
  trace.label = "bad";
  trace.refs = {{Name{1 << 14}, AccessKind::kRead}, {Name{0}, AccessKind::kRead}};
  const VmReport report = vm.Run(trace);
  EXPECT_EQ(report.bounds_violations, 1u);
  EXPECT_EQ(report.faults, 1u);  // the valid reference still pages in
}

TEST(PagedVmTest, TlbCutsTranslationCost) {
  PagedVmConfig no_tlb = SmallPagedConfig();
  no_tlb.tlb_entries = 0;
  PagedVmConfig with_tlb = SmallPagedConfig();
  with_tlb.tlb_entries = 8;
  const ReferenceTrace trace = SmallWorkload();
  const VmReport without = PagedLinearVm(no_tlb).Run(trace);
  const VmReport with = PagedLinearVm(with_tlb).Run(trace);
  EXPECT_LT(with.MeanTranslationCost(), without.MeanTranslationCost());
  EXPECT_GT(with.tlb_hit_rate, 0.5);
}

TEST(PagedVmTest, AtlasMapperHasConstantCost) {
  PagedVmConfig config = SmallPagedConfig();
  config.mapper = PagedMapperKind::kAtlasRegisters;
  PagedLinearVm vm(config);
  const VmReport report = vm.Run(SmallWorkload());
  // One associative search per translation; faulting references retry once.
  EXPECT_LE(report.MeanTranslationCost(), 1.1);
  EXPECT_GE(report.MeanTranslationCost(), 1.0);
}

TEST(PagedVmTest, AdviceImprovesPhasedWorkload) {
  PagedVmConfig plain = SmallPagedConfig();
  PagedVmConfig advised = SmallPagedConfig();
  advised.accept_advice = true;
  advised.fetch = FetchStrategyKind::kAdvised;

  // Phased program: 2 phases over disjoint 4K regions.
  ReferenceTrace trace;
  trace.label = "phased";
  Rng rng(5);
  for (int phase = 0; phase < 2; ++phase) {
    const WordCount base = static_cast<WordCount>(phase) * 4096;
    for (int i = 0; i < 4000; ++i) {
      trace.refs.push_back({Name{base + rng.Below(4096)}, AccessKind::kRead});
    }
  }

  PagedLinearVm vm(advised);
  // Run manually, advising the phase change shortly before it happens: the
  // old phase will not be needed, the new one will.
  VmReport ignore = vm.Run(ReferenceTrace{"reset", {}});
  (void)ignore;
  for (std::size_t i = 0; i < trace.refs.size(); ++i) {
    if (i == 4000) {  // the phase boundary: the old phase is dead
      for (WordCount w = 0; w < 4096; w += 256) {
        vm.AdviseWontNeed(Name{w});
      }
      for (WordCount w = 4096; w < 8192; w += 256) {
        vm.AdviseWillNeed(Name{w});
      }
    }
    vm.Step(trace.refs[i]);
  }
  const VmReport with_advice = vm.Snapshot();
  const VmReport without = PagedLinearVm(plain).Run(trace);
  EXPECT_LT(with_advice.faults, without.faults);
}

TEST(PagedVmDeathTest, CoreMustBePageMultiple) {
  PagedVmConfig config = SmallPagedConfig();
  config.core_words = 1000;
  EXPECT_DEATH(PagedLinearVm vm(config), "integral number");
}

// --- SegmentedVm --------------------------------------------------------------------

TEST(SegmentedVmTest, RunsWorkloadAndReports) {
  SegmentedVmConfig config;
  config.core_words = 4096;
  config.max_segment_extent = 512;
  config.workload_segment_words = 256;
  config.backing_level = MakeDrumLevel("drum", 1u << 16, 2, 500);
  SegmentedVm vm(config);
  const VmReport report = vm.Run(SmallWorkload());
  EXPECT_GT(report.faults, 0u);
  EXPECT_EQ(report.references, SmallWorkload().size());
  EXPECT_EQ(report.total_cycles,
            report.compute_cycles + report.translation_cycles + report.wait_cycles);
  EXPECT_LE(report.peak_resident_words, 4096u);
}

TEST(SegmentedVmTest, CharacteristicsFollowNaming) {
  SegmentedVmConfig config;
  config.symbolic_names = true;
  SegmentedVm symbolic(config);
  EXPECT_EQ(symbolic.characteristics().name_space, NameSpaceKind::kSymbolicallySegmented);
  config.symbolic_names = false;
  SegmentedVm linear(config);
  EXPECT_EQ(linear.characteristics().name_space, NameSpaceKind::kLinearlySegmented);
  EXPECT_EQ(linear.characteristics().unit, AllocationUnit::kVariableBlocks);
}

TEST(SegmentedVmTest, DescriptorCacheCutsMappingCost) {
  SegmentedVmConfig plain;
  plain.core_words = 4096;
  plain.workload_segment_words = 256;
  plain.max_segment_extent = 512;
  SegmentedVmConfig cached = plain;
  cached.descriptor_cache_entries = 24;
  const ReferenceTrace trace = SmallWorkload();
  const VmReport without = SegmentedVm(plain).Run(trace);
  const VmReport with = SegmentedVm(cached).Run(trace);
  EXPECT_LT(with.MeanTranslationCost(), without.MeanTranslationCost());
  EXPECT_GT(with.tlb_hit_rate, 0.5);
}

// Every replacement policy, both naming modes, with and without a descriptor
// cache, over a seeded Zipf trace and a seeded working-set trace: FNV-64 over
// each VmReport field and the allocator's stats.  The 24 runs were recorded
// with the segment manager's protection, pinning and resize paths still in
// place, so their removal is held to the same simulated outputs.
// (SegmentedVm does not compact; SegmentVictimChoiceTest covers compaction.)
TEST(SegmentedVmTest, SeededRunsKeepTheirPinnedDigest) {
  ZipfTraceParams zipf;
  zipf.extent = 1 << 15;
  zipf.length = 20000;
  zipf.theta = 0.9;
  zipf.seed = 17;
  WorkingSetTraceParams working_set;
  working_set.extent = 1 << 15;
  working_set.region_words = 256;
  working_set.regions_per_phase = 10;
  working_set.phases = 4;
  working_set.phase_length = 5000;
  working_set.seed = 23;
  const ReferenceTrace traces[] = {MakeZipfTrace(zipf), MakeWorkingSetTrace(working_set)};

  SnapshotWriter fold;
  for (SegmentReplacementKind kind :
       {SegmentReplacementKind::kCyclic, SegmentReplacementKind::kLru,
        SegmentReplacementKind::kRiceSecondChance}) {
    for (bool symbolic : {true, false}) {
      for (std::size_t cache : {std::size_t{0}, std::size_t{8}}) {
        SegmentedVmConfig config;
        config.core_words = 6000;
        config.max_segment_extent = 1024;
        config.workload_segment_words = 384;
        config.backing_level = MakeDrumLevel("drum", 1u << 16, 2, 500);
        config.replacement = kind;
        config.symbolic_names = symbolic;
        config.descriptor_cache_entries = cache;
        for (const ReferenceTrace& trace : traces) {
          SegmentedVm vm(config);
          const VmReport report = vm.Run(trace);
          EXPECT_GT(report.faults, 0u);
          fold.Str(report.label);
          for (std::uint64_t v :
               {report.references, report.faults, report.bounds_violations,
                report.writebacks, report.total_cycles, report.compute_cycles,
                report.translation_cycles, report.wait_cycles,
                report.peak_resident_words}) {
            fold.U64(v);
          }
          fold.F64(report.space_time.active);
          fold.F64(report.space_time.waiting);
          fold.F64(report.tlb_hit_rate);
          SaveAllocatorStats(&fold, vm.manager().allocator().stats());
          const SegmentManagerStats& stats = vm.manager().stats();
          for (std::uint64_t v : {stats.accesses, stats.segment_faults, stats.evictions,
                                  stats.writebacks, stats.compactions, stats.words_compacted,
                                  stats.wait_cycles, stats.compaction_cycles}) {
            fold.U64(v);
          }
          fold.U64(vm.manager().segment_count());
        }
      }
    }
  }
  const std::uint64_t digest = Fnv64(fold.TakePayload());
  EXPECT_EQ(digest, 0x6c9832d74e0d31f5ULL) << std::hex << "got 0x" << digest;
}

// --- PagedSegmentedVm ----------------------------------------------------------------

TEST(PagedSegmentedVmTest, RunsWorkloadAndReports) {
  PagedSegmentedVmConfig config;
  config.segment_bits = 6;
  config.offset_bits = 14;
  config.core_words = 4096;
  config.page_words = 256;
  config.workload_segment_words = 1024;
  config.tlb_entries = 8;
  config.backing_level = MakeDrumLevel("drum", 1u << 18, 2, 500);
  PagedSegmentedVm vm(config);
  const VmReport report = vm.Run(SmallWorkload());
  EXPECT_GT(report.faults, 0u);
  EXPECT_GT(report.tlb_hit_rate, 0.0);
  EXPECT_EQ(report.total_cycles,
            report.compute_cycles + report.translation_cycles + report.wait_cycles);
}

TEST(PagedSegmentedVmTest, SegmentsLargerThanCoreAreUsable) {
  // "In the MULTICS system each segment can be larger than actual physical
  // working storage."
  PagedSegmentedVmConfig config;
  config.segment_bits = 4;
  config.offset_bits = 16;
  config.core_words = 2048;
  config.page_words = 256;
  config.workload_segment_words = 8192;  // 4x core
  config.backing_level = MakeDrumLevel("drum", 1u << 18, 2, 500);
  PagedSegmentedVm vm(config);
  SequentialTraceParams params;
  params.extent = 8192;
  params.length = 16384;
  const VmReport report = vm.Run(MakeSequentialTrace(params));
  EXPECT_EQ(report.bounds_violations, 0u);
  EXPECT_GT(report.faults, 8192u / 256 - 1);
}

TEST(PagedSegmentedVmTest, AdviceRoundTrips) {
  PagedSegmentedVmConfig config;
  config.segment_bits = 6;
  config.offset_bits = 14;
  config.core_words = 4096;
  config.page_words = 256;
  config.workload_segment_words = 1024;
  config.accept_advice = true;
  config.backing_level = MakeDrumLevel("drum", 1u << 18, 2, 500);
  PagedSegmentedVm vm(config);
  vm.AdviseKeepResident(SegmentedName{SegmentId{0}, 0});
  vm.AdviseWillNeed(SegmentedName{SegmentId{1}, 0});
  vm.AdviseWontNeed(SegmentedName{SegmentId{1}, 512});
  // No crash and the system still runs.
  const VmReport report = vm.Run(SmallWorkload());
  EXPECT_GT(report.references, 0u);
}

// --- SystemBuilder -----------------------------------------------------------------------

TEST(SystemBuilderTest, LinearPagedSpecBuildsPagedVm) {
  SystemSpec spec;
  spec.characteristics.name_space = NameSpaceKind::kLinear;
  spec.characteristics.unit = AllocationUnit::kUniformPages;
  spec.core_words = 4096;
  spec.page_words = 256;
  const auto system = BuildSystem(spec);
  EXPECT_EQ(system->characteristics().name_space, NameSpaceKind::kLinear);
  EXPECT_EQ(system->characteristics().unit, AllocationUnit::kUniformPages);
  const VmReport report = system->Run(SmallWorkload());
  EXPECT_GT(report.references, 0u);
}

TEST(SystemBuilderTest, SymbolicVariableSpecBuildsSegmentedVm) {
  SystemSpec spec;
  spec.characteristics = AuthorsFavoredCharacteristics();
  spec.core_words = 4096;
  spec.max_segment_extent = 512;
  spec.workload_segment_words = 256;
  const auto system = BuildSystem(spec);
  EXPECT_EQ(system->characteristics().name_space, NameSpaceKind::kSymbolicallySegmented);
  EXPECT_EQ(system->characteristics().unit, AllocationUnit::kVariableBlocks);
}

TEST(SystemBuilderTest, LinearlySegmentedPagedSpecBuildsTwoLevel) {
  SystemSpec spec;
  spec.characteristics.name_space = NameSpaceKind::kLinearlySegmented;
  spec.characteristics.unit = AllocationUnit::kMixedPages;
  spec.core_words = 4096;
  spec.page_words = 256;
  spec.workload_segment_words = 1024;
  const auto system = BuildSystem(spec);
  EXPECT_EQ(system->characteristics().unit, AllocationUnit::kMixedPages);
  const VmReport report = system->Run(SmallWorkload());
  EXPECT_GT(report.faults, 0u);
}

TEST(SystemBuilderTest, LinearVariableIsUnbuildable) {
  SystemSpec spec;
  spec.characteristics.name_space = NameSpaceKind::kLinear;
  spec.characteristics.unit = AllocationUnit::kVariableBlocks;
  EXPECT_FALSE(SpecIsBuildable(spec));
  EXPECT_DEATH(BuildSystem(spec), "design space");
}

TEST(SystemBuilderTest, SegmentedWholeAllocatorPlacementIsUnbuildable) {
  // The segmented family places segments with a PlacementPolicy; a
  // whole-allocator design is rejected up front instead of aborting inside
  // SegmentManager.
  for (const NameSpaceKind ns :
       {NameSpaceKind::kLinearlySegmented, NameSpaceKind::kSymbolicallySegmented}) {
    SystemSpec spec;
    spec.characteristics.name_space = ns;
    spec.characteristics.unit = AllocationUnit::kVariableBlocks;
    for (const PlacementStrategyKind kind :
         {PlacementStrategyKind::kSegregatedFit, PlacementStrategyKind::kBuddy,
          PlacementStrategyKind::kRiceChain, PlacementStrategyKind::kSlabPool}) {
      spec.placement = kind;
      EXPECT_FALSE(SpecIsBuildable(spec)) << ToString(kind);
    }
    spec.placement = PlacementStrategyKind::kBuddy;
    EXPECT_DEATH(BuildSystem(spec), "design space");
    for (const PlacementStrategyKind kind :
         {PlacementStrategyKind::kFirstFit, PlacementStrategyKind::kNextFit,
          PlacementStrategyKind::kBestFit, PlacementStrategyKind::kWorstFit,
          PlacementStrategyKind::kTwoEnded}) {
      spec.placement = kind;
      EXPECT_TRUE(SpecIsBuildable(spec)) << ToString(kind);
    }
  }
  // Paged families never consult the placement strategy.
  SystemSpec paged;
  paged.placement = PlacementStrategyKind::kSlabPool;
  EXPECT_TRUE(SpecIsBuildable(paged));
}

TEST(SystemBuilderTest, PredictiveAxisControlsAdvice) {
  SystemSpec spec;
  spec.characteristics.predictive = PredictiveInformation::kAccepted;
  spec.core_words = 4096;
  spec.page_words = 256;
  const auto system = BuildSystem(spec);
  EXPECT_EQ(system->characteristics().predictive, PredictiveInformation::kAccepted);
}

}  // namespace
}  // namespace dsa
