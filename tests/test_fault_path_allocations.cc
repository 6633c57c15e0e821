// The segment fault path allocates nothing on the host per reference, per
// fault or per eviction: a SegmentedVm::Run pays a fixed number of heap
// allocations (its segment manager, backing store, slice table and the
// high-water growth of its hole vectors), whatever the trace's length.
//
// This binary replaces the global operator new to count allocations, so it
// holds only tests that read the count.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/trace/synthetic.h"
#include "src/vm/segmented_vm.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dsa {
namespace {

// Heap allocations made by one Run of `refs` references.  Every length
// draws from the same Zipf stream over the same 64 slices, so the runs
// differ only in how many references, faults and evictions they make.
std::size_t AllocationsPerRun(SegmentedVm& vm, std::size_t refs) {
  ZipfTraceParams p;
  p.extent = WordCount{64} * 512;
  p.length = refs;
  p.theta = 0.9;
  p.seed = 11;
  const ReferenceTrace trace = MakeZipfTrace(p);
  const std::size_t before = g_allocations;
  const VmReport report = vm.Run(trace);
  const std::size_t made = g_allocations - before;
  EXPECT_GT(report.faults, refs / 10) << "the core must be small enough to churn";
  return made;
}

TEST(FaultPathAllocationTest, RunAllocatesNothingPerReferenceFaultOrEviction) {
  SegmentedVmConfig config;
  config.core_words = 8192;  // 16 of the 64 slices fit at once
  config.workload_segment_words = 512;
  config.placement = PlacementStrategyKind::kBestFit;
  config.replacement = SegmentReplacementKind::kCyclic;
  config.symbolic_names = true;
  SegmentedVm vm(config);
  AllocationsPerRun(vm, 2000);  // warm any one-time growth
  const std::size_t short_run = AllocationsPerRun(vm, 2000);
  const std::size_t long_run = AllocationsPerRun(vm, 40000);
  // 38000 more references and thousands more faults and evictions: the
  // count may differ only by a hole vector reaching a higher high-water
  // mark, a handful of doublings at most.
  EXPECT_LE(long_run, short_run + 8) << "short " << short_run << ", long " << long_run;
}

}  // namespace
}  // namespace dsa
