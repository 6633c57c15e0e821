// Multi-lane multiprogramming: several scheduler lanes stepping disjoint job
// groups concurrently, merged into one simulated installation.
//
// The sweep executor (src/exec/sweep_runner.h) parallelises across
// independent simulations; this module uses it for the groups of one
// installation.  Each LaneGroupSpec is a job group with its own
// MultiprogrammingSimulator (scheduler, pager, frame table, tracer), and
// RunLaneGroups evaluates the groups as SweepRunner cells.
//
// Determinism argument, in two steps:
//   1. Each cell touches only its own group: the simulation is a pure
//      function of its spec, with a private tracer, and its result lands in
//      the group's index slot.
//   2. Merging (registry fold, event-stream merge) happens after the
//      barrier, in spec order.
// Therefore lanes=1 and lanes=N produce byte-identical group reports, JSONL
// streams, and merged tables — the property test_lane_equivalence pins, and
// bench_concurrent re-checks on every run.
//
// The merged event stream is renamed into one global namespace per group
// (OffsetEventStream: disjoint frame, job, and page ids) so the whole
// concurrent run replays through TraceReplayVerifier as a single system
// with the summed frame count.

#ifndef SRC_SCHED_MULTI_LANE_H_
#define SRC_SCHED_MULTI_LANE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/event.h"
#include "src/sched/multiprogramming.h"

namespace dsa {

// One job group: an independent MultiprogrammingSimulator configuration plus
// its jobs.  `config.tracer` is overwritten by the runner (each group gets a
// private tracer).
struct LaneGroupSpec {
  std::string label;
  MultiprogramConfig config;
  std::vector<std::pair<std::string, ReferenceTrace>> jobs;
};

struct LaneGroupResult {
  std::string label;
  MultiprogramReport report;
  std::vector<TraceEvent> events;  // group-local entity ids
  std::string events_jsonl;        // the events, serialised
};

struct MultiLaneOutcome {
  std::vector<LaneGroupResult> groups;  // spec order
  // Group registries folded in spec order and rendered (counters add).
  std::string merged_metrics_table;
  // All group streams renamed into the global namespace and merged by
  // (time, group); replayable by TraceReplayVerifier with `total_frames`.
  std::vector<TraceEvent> merged_events;
  std::size_t total_frames{0};
  std::size_t total_jobs{0};
};

// Runs every group to completion, `lanes` groups at a time (1: a serial
// loop in spec order), and merges the results in spec order.
MultiLaneOutcome RunLaneGroups(const std::vector<LaneGroupSpec>& groups, unsigned lanes);

}  // namespace dsa

#endif  // SRC_SCHED_MULTI_LANE_H_
