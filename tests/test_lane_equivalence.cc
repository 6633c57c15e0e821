// lanes=1 ≡ lanes=N equivalence: the acceptance contract of the concurrent
// multi-lane executors (src/sched/multi_lane.h, src/serve/service.h with
// ServeConfig::lanes), checked at the byte level like its sibling
// test_parallel_equivalence.cc checks the sweep executor.
//
// Four properties:
//
//   * RunLaneGroups' per-group event JSONL, reports, merged metrics table,
//     and merged renamed event stream are byte-identical at every lane
//     width;
//   * the lanes=1 path is pinned bit-for-bit to a plain
//     MultiprogrammingSimulator per group, so the lane layer changes
//     nothing for serial users;
//   * the merged renamed stream replays through TraceReplayVerifier as one
//     system with the summed frame count;
//   * a full in-process service run (spool -> reports + JSONL + SERVICE.txt)
//     produces a byte-identical output tree at lanes 1, 2, 4, and 8 (more
//     lanes than tenants).
//
// The *Stress* case reruns the widest configuration under --gtest_repeat
// with rotating seeds; CI drives it under the thread sanitizer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/verifier.h"
#include "src/sched/multi_lane.h"
#include "src/sched/multiprogramming.h"
#include "src/serve/service.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

namespace fs = std::filesystem;

// --- multi-lane simulator groups --------------------------------------------

std::vector<LaneGroupSpec> BuildGroups(std::uint64_t seed) {
  // Five groups, more than the widest lane count: mixed schedulers, one
  // group with fault injection, two distinct page sizes.
  const SchedulerKind schedulers[] = {
      SchedulerKind::kRoundRobin, SchedulerKind::kResidencyAware,
      SchedulerKind::kRoundRobin, SchedulerKind::kResidencyAware,
      SchedulerKind::kRoundRobin};
  std::vector<LaneGroupSpec> groups;
  for (std::size_t g = 0; g < 5; ++g) {
    LaneGroupSpec spec;
    spec.label = "group-" + std::to_string(g);
    spec.config.page_words = g % 2 == 0 ? 256 : 128;
    spec.config.core_words = spec.config.page_words * (6 + g);
    spec.config.backing_level = MakeDrumLevel("drum", 1u << 16, /*word_time=*/2,
                                              /*rotational_delay=*/2000);
    spec.config.quantum = 800;
    spec.config.context_switch_cycles = 10;
    spec.config.scheduler = schedulers[g];
    spec.config.load_control.policy = LoadControlPolicy::kAdaptiveFaultRate;
    spec.config.load_control.window = 20000;
    spec.config.load_control.min_window_references = 32;
    spec.config.load_control.high_fault_rate = 0.05;
    spec.config.load_control.low_fault_rate = 0.02;
    spec.config.load_control.hysteresis = 5000;
    if (g == 2) {
      spec.config.fault_injection.rates = {.transient_transfer = 0.05,
                                           .permanent_slot = 0.01};
      spec.config.fault_injection.seed = seed ^ 0xfau;
    }
    const std::size_t jobs = 2 + g % 3;
    for (std::size_t j = 0; j < jobs; ++j) {
      LoopTraceParams params;
      params.extent = 2048;
      params.body_words = 512;
      params.advance_words = 256;
      params.iterations = 3;
      params.length = 900;
      params.seed = seed * 1000003 + g * 131 + j;
      spec.jobs.emplace_back("g" + std::to_string(g) + "-j" + std::to_string(j),
                             MakeLoopTrace(params));
    }
    groups.push_back(std::move(spec));
  }
  return groups;
}

void ExpectSameOutcome(const MultiLaneOutcome& reference,
                       const MultiLaneOutcome& outcome, unsigned lanes) {
  ASSERT_EQ(outcome.groups.size(), reference.groups.size()) << "lanes=" << lanes;
  for (std::size_t g = 0; g < reference.groups.size(); ++g) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes) + " group=" + std::to_string(g));
    const LaneGroupResult& want = reference.groups[g];
    const LaneGroupResult& got = outcome.groups[g];
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.events_jsonl, want.events_jsonl);
    EXPECT_EQ(got.report.total_cycles, want.report.total_cycles);
    EXPECT_EQ(got.report.faults, want.report.faults);
    EXPECT_EQ(got.report.deactivations, want.report.deactivations);
    EXPECT_EQ(got.report.reactivations, want.report.reactivations);
  }
  EXPECT_EQ(outcome.merged_metrics_table, reference.merged_metrics_table)
      << "lanes=" << lanes;
  EXPECT_EQ(outcome.merged_events, reference.merged_events) << "lanes=" << lanes;
  EXPECT_EQ(outcome.total_frames, reference.total_frames);
  EXPECT_EQ(outcome.total_jobs, reference.total_jobs);
}

TEST(LaneEquivalenceTest, MultiLaneOutputByteIdenticalAtEveryWidth) {
  const std::vector<LaneGroupSpec> groups = BuildGroups(0x1a9e5u);
  const MultiLaneOutcome reference = RunLaneGroups(groups, 1);
  for (const unsigned lanes : {2u, 3u, 4u}) {
    ExpectSameOutcome(reference, RunLaneGroups(groups, lanes), lanes);
  }
}

TEST(LaneEquivalenceTest, Lanes1PinnedToPreLanesSerialEngine) {
  // Golden parity: the lanes=1 path must be bit-for-bit the serial engine.
  // Run every group through a plain MultiprogrammingSimulator and compare
  // serialized events and report fields against the lanes=1 results.
  const std::vector<LaneGroupSpec> groups = BuildGroups(0x901du);
  const MultiLaneOutcome outcome = RunLaneGroups(groups, 1);
  ASSERT_EQ(outcome.groups.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group=" + std::to_string(g));
    EventTracer tracer(/*capacity=*/0);
    MultiprogramConfig config = groups[g].config;
    config.tracer = &tracer;
    MultiprogrammingSimulator sim(config);
    for (const auto& [label, trace] : groups[g].jobs) {
      sim.AddJob(label, trace);
    }
    const MultiprogramReport report = sim.Run();
    std::ostringstream jsonl;
    WriteEventsJsonl(tracer.Snapshot(), &jsonl);
    EXPECT_EQ(outcome.groups[g].events_jsonl, jsonl.str())
        << "the lane layer perturbed the serial engine's event stream";
    EXPECT_EQ(outcome.groups[g].report.total_cycles, report.total_cycles);
    EXPECT_EQ(outcome.groups[g].report.faults, report.faults);
    EXPECT_EQ(outcome.groups[g].report.deactivations, report.deactivations);
    EXPECT_EQ(outcome.groups[g].report.reactivations, report.reactivations);
  }
}

TEST(LaneEquivalenceTest, MergedRenamedStreamReplaysAsOneSystem) {
  const std::vector<LaneGroupSpec> groups = BuildGroups(0x5ca1eu);
  const MultiLaneOutcome outcome = RunLaneGroups(groups, 4);

  // Each group's local stream replays against its own frame count...
  for (std::size_t g = 0; g < groups.size(); ++g) {
    TraceVerifierConfig config;
    config.frame_count = static_cast<std::size_t>(groups[g].config.core_words /
                                                  groups[g].config.page_words);
    config.page_job_shift = MultiprogrammingSimulator::kJobShift;
    const auto violations =
        TraceReplayVerifier(config).Verify(outcome.groups[g].events);
    EXPECT_TRUE(violations.empty())
        << "group " << g << ": " << TraceReplayVerifier::Describe(violations);
  }

  // ...and the renamed merge replays as ONE installation with the summed
  // frame count: disjoint frame/job/page namespaces, time-monotonic.
  TraceVerifierConfig merged_config;
  merged_config.frame_count = outcome.total_frames;
  merged_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
  const auto violations =
      TraceReplayVerifier(merged_config).Verify(outcome.merged_events);
  EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);
  std::size_t total = 0;
  for (const LaneGroupResult& result : outcome.groups) {
    total += result.events.size();
  }
  EXPECT_EQ(outcome.merged_events.size(), total);
  for (std::size_t i = 1; i < outcome.merged_events.size(); ++i) {
    ASSERT_LE(outcome.merged_events[i - 1].time, outcome.merged_events[i].time);
  }
}

// --- the service loop -------------------------------------------------------

struct Scratch {
  explicit Scratch(const std::string& tag)
      : root(fs::temp_directory_path() /
             ("dsa_lanes_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(root);
    fs::create_directories(root / "spool");
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
  std::string Spool() const { return (root / "spool").string(); }
  std::string Out(const std::string& name) const { return (root / name).string(); }

  fs::path root;
};

SystemSpec ServeSpec() {
  SystemSpec spec;
  spec.label = "lanes-test";
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames per tenant
  spec.tlb_entries = 4;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

void SpoolTenant(const Scratch& scratch, const std::string& name,
                 std::uint64_t seed, std::size_t phase_length) {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  params.regions_per_phase = 20;  // more regions than frames: steady faulting
  params.phase_length = phase_length;
  params.phases = 3;
  params.seed = seed;
  const ReferenceTrace trace = MakeWorkingSetTrace(params);
  std::ofstream out(fs::path(scratch.Spool()) / name);
  ASSERT_TRUE(out) << name;
  WriteReferenceTrace(trace, &out);
}

std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

std::map<std::string, std::string> RunServiceAtLanes(const Scratch& scratch,
                                                     unsigned lanes,
                                                     std::size_t tenants) {
  ServeConfig config;
  config.spool_dir = scratch.Spool();
  config.out_dir = scratch.Out("lanes" + std::to_string(lanes) + ".out");
  config.checkpoint_dir = scratch.Out("lanes" + std::to_string(lanes) + ".ckpt");
  config.checkpoint_every = 20000;
  config.rescan_spool = false;
  config.lanes = lanes;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  EXPECT_TRUE(outcome.has_value()) << "lanes=" << lanes;
  if (outcome.has_value()) {
    EXPECT_TRUE(outcome->finished) << "lanes=" << lanes;
    EXPECT_EQ(outcome->tenants_completed, tenants) << "lanes=" << lanes;
    EXPECT_EQ(outcome->tenants_rejected, 0u) << "lanes=" << lanes;
  }
  return SlurpDir(config.out_dir);
}

TEST(LaneEquivalenceTest, ServiceOutputTreeByteIdenticalAcrossLanes) {
  Scratch scratch("serve");
  SpoolTenant(scratch, "alpha.trace", 11, /*phase_length=*/900);
  SpoolTenant(scratch, "beta.trace", 22, /*phase_length=*/1200);
  SpoolTenant(scratch, "gamma.trace", 33, /*phase_length=*/600);
  SpoolTenant(scratch, "delta.trace", 44, /*phase_length=*/750);

  const auto reference = RunServiceAtLanes(scratch, 1, 4);
  ASSERT_FALSE(reference.empty());
  for (const unsigned lanes : {2u, 4u, 8u}) {
    const auto tree = RunServiceAtLanes(scratch, lanes, 4);
    ASSERT_EQ(tree.size(), reference.size()) << "lanes=" << lanes;
    for (const auto& [name, bytes] : reference) {
      ASSERT_TRUE(tree.count(name)) << "lanes=" << lanes << " missing " << name;
      EXPECT_EQ(tree.at(name), bytes)
          << "lanes=" << lanes << ": " << name << " differs from the serial run";
    }
  }
}

// --- stress (rerun by ctest -L stress with --gtest_repeat under TSan) -------

TEST(LaneEquivalenceStressTest, WideLanesStayByteIdenticalUnderRotatingSeeds) {
  // --gtest_repeat reruns in-process; the counter gives every repetition a
  // fresh workload, so the TSan pass sweeps different interleavings AND
  // different load shapes.
  static std::uint64_t repeat = 0;
  const std::uint64_t seed = 0xface + 0x9e3779b97f4a7c15ULL * ++repeat;
  const std::vector<LaneGroupSpec> groups = BuildGroups(seed);
  ExpectSameOutcome(RunLaneGroups(groups, 1), RunLaneGroups(groups, 4), 4);
}

}  // namespace
}  // namespace dsa
