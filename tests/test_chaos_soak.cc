// Chaos soak harness: a deterministic seed matrix crossing overload degrees
// x storage-fault schedules x scheduler/load-control configurations.  Every
// run's event stream is replayed through the TraceReplayVerifier (frame
// conservation, transfer pairing, and the load-control rule: a deactivated
// job holds zero frames until reactivated), and checked for liveness — no
// lost or starved job, every reference retired.  Each cell is then re-run
// from the same seeds and must replay bit-identically.
//
// The matrix is 3 configs x 4 fault schedules x 3 degrees = 36 runs (the
// acceptance floor is 32).  DSA_SOAK_FULL=1 lengthens every job trace for
// overnight soaking; the default sizing keeps the suite in CI range.  A
// concurrent-lanes axis additionally packages the config x fault cells as
// job groups run through RunLaneGroups at lanes 1, 2, and 4, pinning
// byte-equality and verifier-cleanliness under chaos.
//
// The 36 cells are independent (each owns its simulator, tracer, and seed
// stream), so they run sharded over the SweepRunner — DSA_JOBS workers,
// defaulting to the hardware width; every gtest assertion happens after the
// sweep, on index-ordered results, so the pass/fail report is identical at
// any worker count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/exec/sweep_runner.h"
#include "src/exec/thread_pool.h"
#include "src/obs/tracer.h"
#include "src/obs/verifier.h"
#include "src/sched/multi_lane.h"
#include "src/sched/multiprogramming.h"
#include "src/trace/synthetic.h"

namespace dsa {
namespace {

constexpr std::size_t kFrames = 8;  // 2048-word core, 256-word pages

std::size_t JobLength() {
  return std::getenv("DSA_SOAK_FULL") != nullptr ? 20000 : 2500;
}

struct ControlCase {
  const char* name;
  SchedulerKind scheduler;
  LoadControlPolicy policy;
  std::size_t fixed_cap;  // only for kFixed
};

const ControlCase kControls[] = {
    {"rr-adaptive", SchedulerKind::kRoundRobin, LoadControlPolicy::kAdaptiveFaultRate, 0},
    {"ra-working-set", SchedulerKind::kResidencyAware,
     LoadControlPolicy::kWorkingSetAdmission, 0},
    {"rr-fixed-2", SchedulerKind::kRoundRobin, LoadControlPolicy::kFixed, 2},
};

struct FaultCase {
  const char* name;
  FaultRates rates;
};

const FaultCase kFaults[] = {
    {"clean", {}},
    {"transient", {.transient_transfer = 0.08}},
    {"bad-sectors", {.permanent_slot = 0.02}},
    {"mixed", {.transient_transfer = 0.03, .permanent_slot = 0.005, .frame_failure = 2e-4}},
};

const std::size_t kDegrees[] = {4, 8, 12};

MultiprogramConfig SoakConfig(const ControlCase& control, const FaultCase& faults,
                              std::uint64_t seed, EventTracer* tracer) {
  MultiprogramConfig config;
  config.core_words = kFrames * 256;
  config.page_words = 256;
  config.backing_level = MakeDrumLevel("drum", 1u << 16, /*word_time=*/2,
                                       /*rotational_delay=*/2000);
  config.quantum = 800;
  config.context_switch_cycles = 10;
  config.scheduler = control.scheduler;
  config.load_control.policy = control.policy;
  if (control.policy == LoadControlPolicy::kFixed) {
    config.load_control.max_active = control.fixed_cap;
  } else if (control.policy == LoadControlPolicy::kAdaptiveFaultRate) {
    config.load_control.window = 20000;
    config.load_control.min_window_references = 32;
    config.load_control.high_fault_rate = 0.05;
    config.load_control.low_fault_rate = 0.02;
    config.load_control.hysteresis = 5000;
  } else {
    config.load_control.working_set_tau = 4000;
    config.load_control.hysteresis = 2000;
  }
  config.fault_injection.rates = faults.rates;
  config.fault_injection.seed = seed;
  config.tracer = tracer;
  return config;
}

// One matrix cell: run, capture, return (events, report).  Job traces and
// the fault schedule are pure functions of `seed`, so calling this twice
// with the same arguments must produce identical streams.
struct SoakOutcome {
  std::vector<TraceEvent> events;
  MultiprogramReport report;
};

SoakOutcome RunCell(const ControlCase& control, const FaultCase& faults,
                    std::size_t degree, std::uint64_t seed) {
  EventTracer tracer(/*capacity=*/0);
  MultiprogrammingSimulator sim(SoakConfig(control, faults, seed, &tracer));
  for (std::size_t j = 0; j < degree; ++j) {
    LoopTraceParams params;
    params.extent = 2048;
    params.body_words = 512;
    params.advance_words = 256;
    params.iterations = 3;
    params.length = JobLength();
    params.seed = seed * 1000003 + j;  // per-job stream, still seed-pure
    sim.AddJob("soak-" + std::to_string(j), MakeLoopTrace(params));
  }
  SoakOutcome outcome;
  outcome.report = sim.Run();
  outcome.events = tracer.Snapshot();
  return outcome;
}

// The flattened matrix: cell index -> (control, fault schedule, degree,
// seed).  The seed formula matches the historical serial loop (cells are
// numbered in the same nesting order), so the matrix's fault schedules are
// unchanged by the parallel port.
struct MatrixCell {
  const ControlCase* control;
  const FaultCase* faults;
  std::size_t degree;
  std::uint64_t seed;
  std::string name;
};

std::vector<MatrixCell> MatrixCells() {
  std::vector<MatrixCell> cells;
  std::size_t index = 0;
  for (const ControlCase& control : kControls) {
    for (const FaultCase& faults : kFaults) {
      for (const std::size_t degree : kDegrees) {
        MatrixCell cell;
        cell.control = &control;
        cell.faults = &faults;
        cell.degree = degree;
        cell.seed = 0x50a4u ^ (index * 0x9e3779b9u);
        cell.name = std::string(control.name) + "/" + faults.name + "/degree-" +
                    std::to_string(degree);
        cells.push_back(std::move(cell));
        ++index;
      }
    }
  }
  return cells;
}

TEST(ChaosSoakTest, MatrixSurvivesVerifierAndReplay) {
  const std::vector<MatrixCell> cells = MatrixCells();

  // Run every cell twice (capture + reseeded replay) across the sweep
  // executor; assertions run afterwards on the index-ordered slots so the
  // gtest report never depends on scheduling.
  struct CellOutcome {
    SoakOutcome first;
    SoakOutcome second;
  };
  SweepRunner runner(JobsFromEnv(/*fallback=*/HardwareJobs()));
  const std::vector<CellOutcome> outcomes =
      runner.Run(cells.size(), [&](std::size_t i) {
        const MatrixCell& cell = cells[i];
        CellOutcome outcome;
        outcome.first = RunCell(*cell.control, *cell.faults, cell.degree, cell.seed);
        outcome.second = RunCell(*cell.control, *cell.faults, cell.degree, cell.seed);
        return outcome;
      });

  std::size_t runs = 0;
  std::uint64_t injected_events = 0;  // across every non-clean schedule
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& cell = cells[i];
    const SoakOutcome& first = outcomes[i].first;
    SCOPED_TRACE(cell.name);
    ++runs;

    // Structural invariants, replayed from the event stream alone.
    TraceVerifierConfig verifier_config;
    verifier_config.frame_count = kFrames;
    verifier_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
    const auto violations = TraceReplayVerifier(verifier_config).Verify(first.events);
    EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);

    // Liveness: every job retires every reference and finishes; nothing
    // stays swapped out.
    ASSERT_EQ(first.report.jobs.size(), cell.degree);
    for (const JobReport& job : first.report.jobs) {
      EXPECT_EQ(job.references, JobLength()) << job.label;
      EXPECT_GT(job.finish_time, 0u) << job.label;
      EXPECT_LE(job.blocked_cycles + job.queued_cycles, first.report.total_cycles)
          << job.label;
    }
    EXPECT_EQ(first.report.deactivations, first.report.reactivations);
    if (cell.faults->rates.Any()) {
      injected_events += first.report.reliability.transient_errors +
                         first.report.reliability.slot_failures +
                         first.report.reliability.frame_failures;
    } else {
      EXPECT_TRUE(first.report.reliability.Quiet());
    }

    // Determinism: the same seeds replay to the same stream, byte for
    // byte, and the same report counters.
    const SoakOutcome& second = outcomes[i].second;
    EXPECT_EQ(first.events, second.events);
    EXPECT_EQ(first.report.total_cycles, second.report.total_cycles);
    EXPECT_EQ(first.report.faults, second.report.faults);
    EXPECT_EQ(first.report.deactivations, second.report.deactivations);
  }
  EXPECT_GE(runs, 32u) << "the soak matrix shrank below the acceptance floor";
  // Guard against a silently inert injector: across the 27 non-clean cells
  // the fault schedules must actually have struck.
  EXPECT_GT(injected_events, 0u) << "no fault schedule produced a single event";
}

TEST(ChaosSoakTest, ConcurrentLanesSurviveFaultsAndStayByteIdentical) {
  // The concurrent-lanes axis: the same overload + fault-injection chaos,
  // but with the matrix's config cells packaged as job groups stepped
  // CONCURRENTLY.  Every lane width must reproduce the lanes=1 bytes, and
  // every group stream must replay through the verifier.
  std::vector<LaneGroupSpec> groups;
  std::size_t index = 0;
  for (const ControlCase& control : kControls) {
    for (const FaultCase& faults : kFaults) {
      LaneGroupSpec spec;
      spec.label = std::string(control.name) + "/" + faults.name;
      const std::uint64_t seed = 0xc0a4u ^ (index * 0x9e3779b9u);
      EventTracer* no_tracer = nullptr;
      spec.config = SoakConfig(control, faults, seed, no_tracer);
      const std::size_t degree = kDegrees[index % 3];
      for (std::size_t j = 0; j < degree; ++j) {
        LoopTraceParams params;
        params.extent = 2048;
        params.body_words = 512;
        params.advance_words = 256;
        params.iterations = 3;
        params.length = JobLength() / 2;
        params.seed = seed * 1000003 + j;
        spec.jobs.emplace_back("lane-soak-" + std::to_string(j),
                               MakeLoopTrace(params));
      }
      groups.push_back(std::move(spec));
      ++index;
    }
  }

  const MultiLaneOutcome reference = RunLaneGroups(groups, 1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE(groups[g].label);
    TraceVerifierConfig verifier_config;
    verifier_config.frame_count = kFrames;
    verifier_config.page_job_shift = MultiprogrammingSimulator::kJobShift;
    const auto violations =
        TraceReplayVerifier(verifier_config).Verify(reference.groups[g].events);
    EXPECT_TRUE(violations.empty()) << TraceReplayVerifier::Describe(violations);
  }

  for (const unsigned lanes : {2u, 4u}) {
    const MultiLaneOutcome outcome = RunLaneGroups(groups, lanes);
    ASSERT_EQ(outcome.groups.size(), reference.groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) + " " + groups[g].label);
      EXPECT_EQ(outcome.groups[g].events_jsonl, reference.groups[g].events_jsonl);
      EXPECT_EQ(outcome.groups[g].report.total_cycles,
                reference.groups[g].report.total_cycles);
      EXPECT_EQ(outcome.groups[g].report.faults, reference.groups[g].report.faults);
    }
    EXPECT_EQ(outcome.merged_metrics_table, reference.merged_metrics_table);
    EXPECT_EQ(outcome.merged_events, reference.merged_events);
  }
}

TEST(ChaosSoakTest, OverloadEngagesTheController) {
  // At the top degree the adaptive cell must actually exercise the swap-out
  // path — otherwise the verifier's load-control rule is vacuous.
  const SoakOutcome outcome =
      RunCell(kControls[0], kFaults[0], /*degree=*/12, /*seed=*/0x50a4);
  EXPECT_GT(outcome.report.deactivations, 0u);
}

}  // namespace
}  // namespace dsa
