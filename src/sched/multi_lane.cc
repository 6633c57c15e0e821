#include "src/sched/multi_lane.h"

#include <sstream>

#include "src/core/assert.h"
#include "src/exec/sweep_runner.h"
#include "src/obs/export.h"
#include "src/obs/merge.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace dsa {

namespace {

std::size_t GroupFrames(const LaneGroupSpec& spec) {
  return static_cast<std::size_t>(spec.config.core_words / spec.config.page_words);
}

// Runs one group on the calling lane.
LaneGroupResult RunGroup(const LaneGroupSpec& spec) {
  LaneGroupResult result;
  result.label = spec.label;

  EventTracer tracer(/*capacity=*/0);
  MultiprogramConfig config = spec.config;
  config.tracer = &tracer;
  MultiprogrammingSimulator sim(config);
  for (const auto& [label, trace] : spec.jobs) {
    sim.AddJob(label, trace);
  }
  result.report = sim.Run();

  result.events = tracer.Snapshot();
  std::ostringstream jsonl;
  WriteEventsJsonl(result.events, &jsonl);
  result.events_jsonl = jsonl.str();
  return result;
}

// The per-group metrics contribution; same names across groups, so the
// spec-order fold adds them into installation-wide totals.
void FillGroupRegistry(const LaneGroupResult& result, MetricsRegistry* registry) {
  registry->GetCounter("mp/total_cycles")->Set(result.report.total_cycles);
  registry->GetCounter("mp/cpu_busy_cycles")->Set(result.report.cpu_busy_cycles);
  registry->GetCounter("mp/faults")->Set(result.report.faults);
  registry->GetCounter("mp/deactivations")->Set(result.report.deactivations);
  registry->GetCounter("mp/reactivations")->Set(result.report.reactivations);
}

}  // namespace

MultiLaneOutcome RunLaneGroups(const std::vector<LaneGroupSpec>& groups, unsigned lanes) {
  DSA_ASSERT(!groups.empty(), "RunLaneGroups: no job groups");
  MultiLaneOutcome outcome;
  outcome.groups = SweepRunner(lanes).Run(
      groups.size(), [&](std::size_t g) { return RunGroup(groups[g]); });

  // Merges, all in spec order.
  MetricsRegistry merged;
  for (const LaneGroupResult& result : outcome.groups) {
    MetricsRegistry group;
    FillGroupRegistry(result, &group);
    MergeRegistryInto(&merged, group);
  }
  outcome.merged_metrics_table = merged.RenderTable();

  std::vector<std::vector<TraceEvent>> renamed;
  renamed.reserve(groups.size());
  std::uint64_t frame_offset = 0;
  std::uint64_t job_offset = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    StreamOffsets offsets;
    offsets.frame_offset = frame_offset;
    offsets.job_offset = job_offset;
    offsets.page_job_shift = MultiprogrammingSimulator::kJobShift;
    renamed.push_back(OffsetEventStream(outcome.groups[g].events, offsets));
    frame_offset += GroupFrames(groups[g]);
    job_offset += groups[g].jobs.size();
  }
  outcome.merged_events = MergeEventStreams(renamed);
  outcome.total_frames = static_cast<std::size_t>(frame_offset);
  outcome.total_jobs = static_cast<std::size_t>(job_offset);
  return outcome;
}

}  // namespace dsa
