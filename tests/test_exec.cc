// Unit tests for src/exec (ThreadPool, SweepRunner, JobsFromEnv) and the
// order-independent observability merges in src/obs/merge.h that parallel
// sweeps rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exec/sweep_runner.h"
#include "src/exec/thread_pool.h"
#include "src/obs/event.h"
#include "src/obs/merge.h"
#include "src/obs/metrics.h"

namespace dsa {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(workers);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.ParallelFor(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << workers << " workers";
    }
  }
}

TEST(ThreadPoolTest, ZeroWorkersClampsToSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  int calls = 0;
  pool.ParallelFor(5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, SerialPoolPreservesIndexOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.ParallelFor(16, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, StealingCoversImbalancedBatches) {
  // One index is dealt per lane round-robin; a count far above the lane
  // count with wildly uneven per-cell cost forces steals.  Correctness is
  // still exactly-once coverage.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](std::size_t i) {
    volatile std::uint64_t sink = 0;
    const std::size_t spin = (i % 8 == 0) ? 200000 : 10;
    for (std::size_t k = 0; k < spin; ++k) {
      sink = sink + k;
    }
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ThreadPoolTest, FirstExceptionIsRethrownAfterDrain) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(32,
                       [&](std::size_t i) {
                         if (i == 7) {
                           throw std::runtime_error("cell 7 failed");
                         }
                         completed.fetch_add(1);
                       }),
      std::runtime_error);
  // The batch drains before rethrowing: no cell is left mid-flight, and the
  // pool stays usable.
  std::atomic<int> after{0};
  pool.ParallelFor(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

// --- JobsFromEnv ------------------------------------------------------------

struct EnvGuard {
  explicit EnvGuard(const char* value) {
    if (value == nullptr) {
      unsetenv("DSA_JOBS");
    } else {
      setenv("DSA_JOBS", value, 1);
    }
  }
  ~EnvGuard() { unsetenv("DSA_JOBS"); }
};

TEST(JobsFromEnvTest, UnsetUsesFallback) {
  EnvGuard guard(nullptr);
  EXPECT_EQ(JobsFromEnv(3), 3u);
}

TEST(JobsFromEnvTest, PositiveIntegerWins) {
  EnvGuard guard("6");
  EXPECT_EQ(JobsFromEnv(1), 6u);
}

TEST(JobsFromEnvTest, ZeroAndAutoMeanHardwareWidth) {
  {
    EnvGuard guard("0");
    EXPECT_EQ(JobsFromEnv(1), HardwareJobs());
  }
  {
    EnvGuard guard("auto");
    EXPECT_EQ(JobsFromEnv(1), HardwareJobs());
  }
}

TEST(JobsFromEnvTest, MalformedFallsBack) {
  EnvGuard guard("lots");
  EXPECT_EQ(JobsFromEnv(2), 2u);
}

TEST(JobsFromEnvTest, HardwareJobsIsNeverZero) { EXPECT_GE(HardwareJobs(), 1u); }

// --- SweepRunner ------------------------------------------------------------

TEST(SweepRunnerTest, ResultsLandInIndexOrderAtAnyWidth) {
  const std::vector<std::string> serial =
      SweepRunner(1).Run(50, [](std::size_t i) { return "cell-" + std::to_string(i); });
  for (const unsigned jobs : {2u, 3u, 8u}) {
    const std::vector<std::string> parallel = SweepRunner(jobs).Run(
        50, [](std::size_t i) { return "cell-" + std::to_string(i); });
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
  }
}

TEST(SweepRunnerTest, SingleJobRunnerOwnsNoPool) {
  SweepRunner runner(1);
  EXPECT_EQ(runner.jobs(), 1u);
  SweepRunner wide(4);
  EXPECT_EQ(wide.jobs(), 4u);
}

TEST(SweepRunnerTest, ForEachCoversEveryIndex) {
  SweepRunner runner(4);
  std::vector<std::atomic<int>> hits(200);
  runner.ForEach(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunnerTest, EmptySweepIsANoOp) {
  const std::vector<int> slots = SweepRunner(4).Run(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(slots.empty());
}

// --- MergeRegistryInto ------------------------------------------------------

MetricsRegistry MakeCellRegistry(std::uint64_t faults, double rate) {
  MetricsRegistry registry;
  registry.GetCounter("vm/faults")->Increment(faults);
  registry.GetGauge("vm/fault_rate")->Set(rate);
  registry.GetHistogram("vm/latency")->Add(faults + 1);
  return registry;
}

TEST(MergeTest, CountersAddAndGaugesTakeLastInFoldOrder) {
  MetricsRegistry merged;
  MergeRegistryInto(&merged, MakeCellRegistry(10, 0.1));
  MergeRegistryInto(&merged, MakeCellRegistry(32, 0.4));
  EXPECT_EQ(merged.CounterValue("vm/faults"), 42u);
  EXPECT_DOUBLE_EQ(merged.GaugeValue("vm/fault_rate"), 0.4);
}

TEST(MergeTest, FoldingInIndexOrderIsByteDeterministic) {
  // Two registries with the same cells folded in the same order must render
  // identically — this is the property the parallel sweeps lean on.
  MetricsRegistry a;
  MetricsRegistry b;
  for (int i = 0; i < 5; ++i) {
    MergeRegistryInto(&a, MakeCellRegistry(i * 3, 0.01 * i));
    MergeRegistryInto(&b, MakeCellRegistry(i * 3, 0.01 * i));
  }
  EXPECT_EQ(a.RenderTable(), b.RenderTable());
}

// --- MergeEventStreams ------------------------------------------------------

TraceEvent At(std::uint64_t time, std::uint64_t tag) {
  TraceEvent event;
  event.time = time;
  event.kind = EventKind::kPageFault;
  event.a = tag;  // payload tag used to observe the merge's tiebreak order
  return event;
}

TEST(MergeTest, EventStreamsInterleaveByTimeThenStreamIndex) {
  const std::vector<std::vector<TraceEvent>> streams = {
      {At(1, 0), At(5, 0), At(9, 0)},
      {At(2, 1), At(5, 1)},
      {At(5, 2)},
  };
  const std::vector<TraceEvent> merged = MergeEventStreams(streams);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged[0].time, 1u);
  EXPECT_EQ(merged[1].time, 2u);
  // The three time-5 events arrive in stream-index order: the tiebreak that
  // keeps the merge a pure function of the inputs.
  EXPECT_EQ(merged[2].a, 0u);
  EXPECT_EQ(merged[3].a, 1u);
  EXPECT_EQ(merged[4].a, 2u);
  EXPECT_EQ(merged[5].time, 9u);
}

TEST(MergeTest, EmptyAndSingletonStreams) {
  EXPECT_TRUE(MergeEventStreams({}).empty());
  EXPECT_TRUE(MergeEventStreams({{}, {}}).empty());
  const std::vector<TraceEvent> merged = MergeEventStreams({{}, {At(3, 1)}, {}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].time, 3u);
}

}  // namespace
}  // namespace dsa
