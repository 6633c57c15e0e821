// Integration tests for the multiprogramming simulator.

#include <gtest/gtest.h>

#include "src/obs/tracer.h"
#include "src/obs/verifier.h"
#include "src/sched/multiprogramming.h"
#include "src/trace/synthetic.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

MultiprogramConfig SmallConfig() {
  MultiprogramConfig config;
  config.core_words = 4096;
  config.page_words = 256;
  config.backing_level = MakeDrumLevel("drum", 1u << 16, /*word_time=*/2,
                                       /*rotational_delay=*/2000);
  config.quantum = 1000;
  config.context_switch_cycles = 10;
  return config;
}

ReferenceTrace SmallJob(std::uint64_t seed) {
  LoopTraceParams params;
  params.extent = 2048;
  params.body_words = 512;
  params.advance_words = 256;
  params.iterations = 3;
  params.length = 5000;
  params.seed = seed;
  return MakeLoopTrace(params);
}

TEST(MultiprogrammingTest, SingleJobRunsToCompletion) {
  MultiprogrammingSimulator sim(SmallConfig());
  sim.AddJob("solo", SmallJob(1));
  const MultiprogramReport report = sim.Run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].references, 5000u);
  EXPECT_GT(report.jobs[0].faults, 0u);
  EXPECT_GT(report.total_cycles, 5000u);
}

TEST(MultiprogrammingTest, SoloJobIdlesThroughPageWaits) {
  MultiprogrammingSimulator sim(SmallConfig());
  sim.AddJob("solo", SmallJob(1));
  const MultiprogramReport report = sim.Run();
  EXPECT_GT(report.cpu_idle_cycles, 0u) << "with one job every page wait idles the CPU";
  EXPECT_LT(report.CpuUtilization(), 1.0);
}

TEST(MultiprogrammingTest, SecondJobOverlapsPageWaits) {
  MultiprogrammingSimulator one(SmallConfig());
  one.AddJob("a", SmallJob(1));
  const MultiprogramReport solo = one.Run();

  MultiprogrammingSimulator two(SmallConfig());
  two.AddJob("a", SmallJob(1));
  two.AddJob("b", SmallJob(2));
  const MultiprogramReport pair = two.Run();

  EXPECT_GT(pair.CpuUtilization(), solo.CpuUtilization());
  EXPECT_GT(pair.Throughput(), solo.Throughput() * 1.2);
}

TEST(MultiprogrammingTest, EveryReferenceRetiredAtAnyDegree) {
  for (std::size_t degree = 1; degree <= 4; ++degree) {
    MultiprogrammingSimulator sim(SmallConfig());
    for (std::size_t j = 0; j < degree; ++j) {
      sim.AddJob("job", SmallJob(j + 1));
    }
    const MultiprogramReport report = sim.Run();
    for (const JobReport& job : report.jobs) {
      EXPECT_EQ(job.references, 5000u) << "degree " << degree;
      EXPECT_GT(job.finish_time, 0u);
    }
  }
}

TEST(MultiprogrammingTest, SpaceTimeSplitsActiveAndBlocked) {
  MultiprogrammingSimulator sim(SmallConfig());
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    EXPECT_GT(job.space_time.active, 0.0);
    EXPECT_GT(job.space_time.waiting, 0.0);
    EXPECT_GT(job.blocked_cycles, 0u);
  }
  EXPECT_GT(report.TotalSpaceTime(), 0.0);
}

TEST(MultiprogrammingTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    MultiprogrammingSimulator sim(SmallConfig());
    sim.AddJob("a", SmallJob(1));
    sim.AddJob("b", SmallJob(2));
    return sim.Run();
  };
  const MultiprogramReport first = run_once();
  const MultiprogramReport second = run_once();
  EXPECT_EQ(first.total_cycles, second.total_cycles);
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.cpu_busy_cycles, second.cpu_busy_cycles);
}

TEST(MultiprogrammingTest, ContextSwitchCostsAccounted) {
  MultiprogramConfig config = SmallConfig();
  config.context_switch_cycles = 100;
  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  EXPECT_GT(report.context_switch_cycles, 0u);
  EXPECT_EQ(report.context_switch_cycles % 100, 0u);
}

TEST(MultiprogrammingTest, CoreContentionRaisesFaults) {
  // Jobs that fit alone but not together must fault more when packed.
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;  // 8 frames; each job's loop body spans 2-3 pages
  MultiprogrammingSimulator one(config);
  one.AddJob("a", SmallJob(1));
  const std::uint64_t solo_faults = one.Run().faults;

  MultiprogrammingSimulator four(config);
  for (int j = 0; j < 4; ++j) {
    four.AddJob("j", SmallJob(static_cast<std::uint64_t>(j) + 1));
  }
  const MultiprogramReport packed = four.Run();
  EXPECT_GT(packed.faults, 4 * solo_faults);
}

TEST(MultiprogrammingTest, LoadControlCapsActiveJobs) {
  // With max_active=1 the jobs run strictly one after another: each job's
  // faults equal its solo faults, and total faults equal degree x solo.
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;  // tight: interleaving would thrash
  MultiprogrammingSimulator solo(config);
  solo.AddJob("solo", SmallJob(1));
  const std::uint64_t solo_faults = solo.Run().faults;

  MultiprogramConfig serial_config = config;
  serial_config.max_active = 1;
  MultiprogrammingSimulator serial(serial_config);
  for (int j = 0; j < 4; ++j) {
    serial.AddJob("job", SmallJob(1));  // identical jobs
  }
  const MultiprogramReport report = serial.Run();
  EXPECT_EQ(report.faults, 4 * solo_faults);
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);
  }
}

TEST(MultiprogrammingTest, LoadControlBeatsThrashingUnderPressure) {
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;
  MultiprogrammingSimulator packed(config);
  MultiprogramConfig controlled_config = config;
  controlled_config.max_active = 1;
  MultiprogrammingSimulator controlled(controlled_config);
  for (std::size_t j = 0; j < 4; ++j) {
    packed.AddJob("job", SmallJob(j + 1));
    controlled.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport thrashing = packed.Run();
  const MultiprogramReport calm = controlled.Run();
  EXPECT_LT(calm.faults, thrashing.faults);
  EXPECT_LT(calm.total_cycles, thrashing.total_cycles);
}

TEST(MultiprogrammingTest, ResidencyAwareSchedulerRunsToCompletion) {
  MultiprogramConfig config = SmallConfig();
  config.scheduler = SchedulerKind::kResidencyAware;
  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);
  }
}

TEST(MultiprogrammingDeathTest, EmptyRunAborts) {
  MultiprogrammingSimulator sim(SmallConfig());
  EXPECT_DEATH(sim.Run(), "nothing to run");
}

TEST(MultiprogrammingDeathTest, RejectsDegenerateConfigs) {
  MultiprogramConfig zero_page = SmallConfig();
  zero_page.page_words = 0;
  EXPECT_DEATH(MultiprogrammingSimulator{zero_page}, "page_words");

  MultiprogramConfig tiny_core = SmallConfig();
  tiny_core.core_words = 128;  // below one 256-word page: zero frames
  EXPECT_DEATH(MultiprogrammingSimulator{tiny_core}, "zero frames");

  MultiprogramConfig zero_quantum = SmallConfig();
  zero_quantum.quantum = 0;
  EXPECT_DEATH(MultiprogrammingSimulator{zero_quantum}, "quantum");

  MultiprogramConfig zero_cpr = SmallConfig();
  zero_cpr.cycles_per_reference = 0;
  EXPECT_DEATH(MultiprogrammingSimulator{zero_cpr}, "cycles_per_reference");

  MultiprogramConfig disagree = SmallConfig();
  disagree.max_active = 2;
  disagree.load_control.max_active = 3;
  EXPECT_DEATH(MultiprogrammingSimulator{disagree}, "disagree");
}

TEST(MultiprogrammingDeathTest, CapAboveDegreeAborts) {
  MultiprogramConfig config = SmallConfig();
  config.max_active = 3;
  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  EXPECT_DEATH(sim.Run(), "exceeds the multiprogramming degree");
}

// ----------------------------------------------------- blocked-time split --

TEST(MultiprogrammingTest, BlockedCyclesSplitFaultVersusQueued) {
  MultiprogramConfig config = SmallConfig();
  config.max_active = 1;
  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    // blocked_cycles keeps its legacy fault-only meaning; queued time is a
    // separate counter, never folded in.
    EXPECT_GT(job.blocked_cycles, 0u) << job.label;
    EXPECT_LE(job.blocked_cycles + job.queued_cycles, report.total_cycles) << job.label;
  }
  // The second job waits its turn behind the serial cap; the first never
  // queues at all.
  EXPECT_EQ(report.jobs[0].queued_cycles, 0u);
  EXPECT_GT(report.jobs[1].queued_cycles, 0u);
}

TEST(MultiprogrammingTest, FixedCapBlockedCyclesMatchUngatedMeaning) {
  // The legacy static cap must report the same blocked_cycles as a truly
  // serial run of the same job: queueing behind the cap lands in
  // queued_cycles, never in the legacy fault-wait metric.
  MultiprogrammingSimulator solo(SmallConfig());
  solo.AddJob("solo", SmallJob(1));
  const MultiprogramReport alone = solo.Run();

  MultiprogramConfig capped = SmallConfig();
  capped.max_active = 1;
  MultiprogrammingSimulator serial(capped);
  serial.AddJob("a", SmallJob(1));
  serial.AddJob("b", SmallJob(1));
  const MultiprogramReport report = serial.Run();
  EXPECT_EQ(report.jobs[0].blocked_cycles, alone.jobs[0].blocked_cycles);
  EXPECT_EQ(report.jobs[1].blocked_cycles, alone.jobs[0].blocked_cycles);
}

TEST(MultiprogrammingTest, UngatedRunNeverQueues) {
  MultiprogrammingSimulator sim(SmallConfig());
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.queued_cycles, 0u);
    EXPECT_EQ(job.deactivations, 0u);
  }
  EXPECT_EQ(report.deactivations, 0u);
  EXPECT_EQ(report.controller_decisions, 0u);
}

// ------------------------------------------------- per-job fault injection --

TEST(MultiprogrammingTest, PerJobRetriesSumToPagerReliability) {
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;  // overcommitted: steady transfer traffic
  config.fault_injection.rates.transient_transfer = 0.2;
  config.fault_injection.seed = 17;
  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  sim.AddJob("c", SmallJob(3));
  sim.AddJob("d", SmallJob(4));
  const MultiprogramReport report = sim.Run();
  EXPECT_GT(report.reliability.retries, 0u);
  std::uint64_t retries = 0;
  std::uint64_t relocations = 0;
  for (const JobReport& job : report.jobs) {
    retries += job.retries;
    relocations += job.relocations;
  }
  EXPECT_EQ(retries, report.reliability.retries);
  EXPECT_EQ(relocations,
            report.reliability.relocations + report.reliability.spill_relocations);
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);  // retries never lose work
  }
  EXPECT_GT(retries, 0u) << "at least one job must have seen a retry";
}

// -------------------------------------------------- adaptive load control --

MultiprogramConfig AdaptiveConfig() {
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;  // 8 frames: four 2-3 page jobs thrash
  config.load_control.policy = LoadControlPolicy::kAdaptiveFaultRate;
  config.load_control.window = 20000;
  config.load_control.min_window_references = 32;
  config.load_control.high_fault_rate = 0.05;
  config.load_control.low_fault_rate = 0.02;
  config.load_control.hysteresis = 5000;
  return config;
}

TEST(MultiprogrammingTest, AdaptiveControllerShedsAndRecovers) {
  MultiprogrammingSimulator sim(AdaptiveConfig());
  for (std::size_t j = 0; j < 4; ++j) {
    sim.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport report = sim.Run();
  EXPECT_GT(report.deactivations, 0u) << "overload must trigger swap-outs";
  EXPECT_EQ(report.deactivations, report.reactivations)
      << "every shed job is eventually readmitted and finishes";
  EXPECT_GT(report.controller_decisions, 0u);
  std::uint64_t per_job = 0;
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);
    per_job += job.deactivations;
  }
  EXPECT_EQ(per_job, report.deactivations);
}

TEST(MultiprogrammingTest, AdaptiveControllerCutsFaultsUnderOverload) {
  MultiprogramConfig uncontrolled = SmallConfig();
  uncontrolled.core_words = 2048;
  MultiprogrammingSimulator packed(uncontrolled);
  MultiprogrammingSimulator adaptive(AdaptiveConfig());
  for (std::size_t j = 0; j < 4; ++j) {
    packed.AddJob("job", SmallJob(j + 1));
    adaptive.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport thrashing = packed.Run();
  const MultiprogramReport controlled = adaptive.Run();
  EXPECT_LT(controlled.faults, thrashing.faults);
}

TEST(MultiprogrammingTest, AdaptiveTracePassesLoadControlVerifier) {
  EventTracer tracer(/*capacity=*/0);
  MultiprogramConfig config = AdaptiveConfig();
  config.tracer = &tracer;
  MultiprogrammingSimulator sim(config);
  for (std::size_t j = 0; j < 4; ++j) {
    sim.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport report = sim.Run();
  ASSERT_GT(report.deactivations, 0u);

  TraceVerifierConfig verifier_config;
  verifier_config.frame_count = 8;
  verifier_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
  const auto violations = TraceReplayVerifier(verifier_config).Verify(tracer.Snapshot());
  EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);

  std::uint64_t deactivate_events = 0;
  std::uint64_t decision_events = 0;
  for (const TraceEvent& event : tracer.Snapshot()) {
    deactivate_events += event.kind == EventKind::kJobDeactivate;
    decision_events += event.kind == EventKind::kLoadControl;
  }
  if (DSA_TRACE) {  // -DDSA_TRACE=0 compiles the emissions out
    EXPECT_EQ(deactivate_events, report.deactivations);
    EXPECT_EQ(decision_events, report.controller_decisions);
  }
}

TEST(MultiprogrammingTest, WorkingSetAdmissionCompletesAndVerifies) {
  EventTracer tracer(/*capacity=*/0);
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;
  config.load_control.policy = LoadControlPolicy::kWorkingSetAdmission;
  config.load_control.working_set_tau = 4000;
  config.load_control.hysteresis = 2000;
  config.tracer = &tracer;
  MultiprogrammingSimulator sim(config);
  for (std::size_t j = 0; j < 4; ++j) {
    sim.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);
  }
  TraceVerifierConfig verifier_config;
  verifier_config.frame_count = 8;
  verifier_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
  const auto violations = TraceReplayVerifier(verifier_config).Verify(tracer.Snapshot());
  EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);
}

TEST(MultiprogrammingTest, ShedNeverPicksAJobBlockedOnItsFinalReference) {
  // Regression: a job that faults on its *final* reference is completing,
  // not thrashing.  The victim scan used to consider it (it often has
  // minimal residency); deactivating it collided with the post-slice
  // completion check, counting the job done twice, so the run loop could
  // exit with other jobs unfinished.
  // The timing that exposes it: the detector window (512) is shorter than a
  // drum wait (~2500 cycles), so the window empties while the long job
  // blocks and admission re-opens; the admitted one-shot's own reference is
  // then the only one in the window (min_window_references = 1), making the
  // fault rate instantly hot, and the short shed hysteresis lets the shed
  // fire at that very fault — with the one-shot itself, holding one fresh
  // page against the long job's several, as the minimal-residency victim.
  MultiprogramConfig config = SmallConfig();
  config.core_words = 2048;  // 8 frames
  config.load_control.policy = LoadControlPolicy::kAdaptiveFaultRate;
  config.load_control.window = 512;
  config.load_control.min_window_references = 1;
  config.load_control.high_fault_rate = 0.02;
  config.load_control.low_fault_rate = 0.01;
  config.load_control.hysteresis = 50;
  config.load_control.shed_hysteresis = 5;
  MultiprogrammingSimulator sim(config);
  // One long job keeps the system under load; single-reference jobs fault
  // cold on their only (and final) reference.
  sim.AddJob("long", SmallJob(1));
  for (std::uint64_t j = 0; j < 3; ++j) {
    ReferenceTrace trace;
    trace.label = "one-shot";
    trace.refs.push_back(Reference{Name{j * 256}, AccessKind::kRead});
    sim.AddJob(trace.label, std::move(trace));
  }
  const MultiprogramReport report = sim.Run();
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_EQ(report.jobs[0].references, 5000u) << "long job lost work";
  for (std::size_t j = 1; j < report.jobs.size(); ++j) {
    EXPECT_EQ(report.jobs[j].references, 1u) << "one-shot " << j;
    EXPECT_GT(report.jobs[j].finish_time, 0u);
  }
  EXPECT_GT(report.deactivations, 0u) << "the scenario must actually shed";
  EXPECT_EQ(report.deactivations, report.reactivations);
}

TEST(MultiprogrammingTest, AdaptiveRunIsDeterministic) {
  auto run_once = [] {
    EventTracer tracer(/*capacity=*/0);
    MultiprogramConfig config = AdaptiveConfig();
    config.tracer = &tracer;
    MultiprogrammingSimulator sim(config);
    for (std::size_t j = 0; j < 4; ++j) {
      sim.AddJob("job", SmallJob(j + 1));
    }
    sim.Run();
    return tracer.Snapshot();
  };
  EXPECT_EQ(run_once(), run_once()) << "event streams must replay bit-identically";
}

// ------------------------------------------------ residency-aware coverage --

TEST(MultiprogrammingTest, ResidencyAwareMatchesRoundRobinForOneJob) {
  // With a single job there is nothing to prefer: both schedulers must make
  // identical decisions, cycle for cycle.
  auto run_with = [](SchedulerKind kind) {
    MultiprogramConfig config = SmallConfig();
    config.scheduler = kind;
    MultiprogrammingSimulator sim(config);
    sim.AddJob("solo", SmallJob(1));
    return sim.Run();
  };
  const MultiprogramReport rr = run_with(SchedulerKind::kRoundRobin);
  const MultiprogramReport ra = run_with(SchedulerKind::kResidencyAware);
  EXPECT_EQ(rr.faults, ra.faults);
  EXPECT_EQ(rr.total_cycles, ra.total_cycles);
  EXPECT_EQ(rr.cpu_busy_cycles, ra.cpu_busy_cycles);
}

TEST(MultiprogrammingTest, ResidencyAwareIsDeterministic) {
  auto run_once = [] {
    MultiprogramConfig config = SmallConfig();
    config.scheduler = SchedulerKind::kResidencyAware;
    MultiprogrammingSimulator sim(config);
    sim.AddJob("a", SmallJob(1));
    sim.AddJob("b", SmallJob(2));
    sim.AddJob("c", SmallJob(3));
    return sim.Run();
  };
  const MultiprogramReport first = run_once();
  const MultiprogramReport second = run_once();
  EXPECT_EQ(first.total_cycles, second.total_cycles);
  EXPECT_EQ(first.faults, second.faults);
  for (std::size_t j = 0; j < first.jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].finish_time, second.jobs[j].finish_time);
  }
}

TEST(MultiprogrammingTest, ResidencyAwareTracePassesVerifier) {
  EventTracer tracer(/*capacity=*/0);
  MultiprogramConfig config = SmallConfig();
  config.scheduler = SchedulerKind::kResidencyAware;
  config.core_words = 2048;
  config.tracer = &tracer;
  MultiprogrammingSimulator sim(config);
  for (std::size_t j = 0; j < 3; ++j) {
    sim.AddJob("job", SmallJob(j + 1));
  }
  const MultiprogramReport report = sim.Run();
  for (const JobReport& job : report.jobs) {
    EXPECT_EQ(job.references, 5000u);
  }
  TraceVerifierConfig verifier_config;
  verifier_config.frame_count = 8;
  verifier_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
  const auto violations = TraceReplayVerifier(verifier_config).Verify(tracer.Snapshot());
  EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);
}

// ------------------------------------------------- SystemBuilder bridge --

TEST(MultiprogrammingTest, BuildMultiprogramConfigLiftsSystemSpec) {
  SystemSpec spec;
  spec.label = "bridge";
  spec.core_words = 2048;
  spec.page_words = 256;
  spec.replacement = ReplacementStrategyKind::kClock;
  MultiprogramSpec mp;
  mp.scheduler = SchedulerKind::kResidencyAware;
  mp.load_control.policy = LoadControlPolicy::kAdaptiveFaultRate;
  const MultiprogramConfig config = BuildMultiprogramConfig(spec, mp);
  EXPECT_EQ(config.core_words, 2048u);
  EXPECT_EQ(config.page_words, 256u);
  EXPECT_EQ(config.replacement, ReplacementStrategyKind::kClock);
  EXPECT_EQ(config.scheduler, SchedulerKind::kResidencyAware);
  EXPECT_EQ(config.load_control.policy, LoadControlPolicy::kAdaptiveFaultRate);

  MultiprogrammingSimulator sim(config);
  sim.AddJob("a", SmallJob(1));
  sim.AddJob("b", SmallJob(2));
  const MultiprogramReport report = sim.Run();
  EXPECT_EQ(report.jobs[0].references, 5000u);
  EXPECT_EQ(report.jobs[1].references, 5000u);
}

TEST(MultiprogrammingDeathTest, BridgeRejectsVariableBlockSpecs) {
  SystemSpec spec;
  spec.characteristics.unit = AllocationUnit::kVariableBlocks;
  EXPECT_DEATH(BuildMultiprogramConfig(spec, MultiprogramSpec{}), "fixed-size units");
}

}  // namespace
}  // namespace dsa
