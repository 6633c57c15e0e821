// Multiprogramming over a shared core: the paper's rescue for demand paging.
//
// "A large space-time product will not overly affect the performance ... of
// a system if the time spent on fetching pages can normally be overlapped
// with the execution of other programs."  The simulator runs N jobs
// round-robin over one CPU, one core store (shared frame pool) and one
// transfer channel; a faulting job blocks while its page moves and the CPU
// switches to the next ready job.  Experiment E5 sweeps N and watches CPU
// utilisation climb while per-job space-time swells.
//
// Overload is handled by the load-control layer (src/sched/load_control.h):
// beyond the historical static `max_active` cap, the adaptive policies
// watch windowed thrashing signals and deactivate jobs — releasing every
// frame they hold and requeueing them — until pressure subsides, then
// reactivate them.  bench_overload sweeps the degree past the thrashing
// cliff to show the difference.

#ifndef SRC_SCHED_MULTIPROGRAMMING_H_
#define SRC_SCHED_MULTIPROGRAMMING_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/fault_injection.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_factory.h"
#include "src/sched/load_control.h"
#include "src/trace/reference.h"
#include "src/vm/space_time.h"

namespace dsa {

struct SystemSpec;

// How the CPU picks the next ready job.
enum class SchedulerKind : std::uint8_t {
  // Plain rotation, blind to storage: the paper's warning case — "entirely
  // independent decisions ... as to processor scheduling and storage
  // allocation".
  kRoundRobin,
  // Integrated decisions: among ready jobs, prefer the one with the most
  // resident storage (it can run longest before faulting, and its space-time
  // investment is already paid).
  kResidencyAware,
};

struct MultiprogramConfig {
  SchedulerKind scheduler{SchedulerKind::kRoundRobin};
  // Legacy load-control knob: at most this many jobs are *active* (allowed
  // to hold frames and run) at once; the rest queue until an active job
  // finishes.  0 = unlimited.  Equivalent to load_control.max_active with
  // the kFixed policy; when both are set they must agree.
  std::size_t max_active{0};
  // The closed-loop controller (policy, thresholds, hysteresis).
  LoadControlConfig load_control{};
  WordCount core_words{16384};
  WordCount page_words{512};
  StorageLevel backing_level{MakeDrumLevel("drum", 1u << 20, /*word_time=*/4,
                                           /*rotational_delay=*/6000)};
  ReplacementStrategyKind replacement{ReplacementStrategyKind::kLru};
  Cycles cycles_per_reference{1};
  Cycles quantum{5000};             // round-robin slice
  Cycles context_switch_cycles{50};
  // Storage fault model for the shared pager (zero rates: fault-free).
  FaultInjectorConfig fault_injection{};
  // Optional shared event tracer (not owned); attached to the shared pager,
  // and the scheduler emits kScheduleSwitch on every dispatch change plus
  // kLoadControl / kJobDeactivate / kJobReactivate for controller activity.
  EventTracer* tracer{nullptr};
};

struct JobReport {
  JobId id;
  std::string label;
  std::uint64_t references{0};
  std::uint64_t faults{0};
  Cycles finish_time{0};
  // Cycles the job was unable to run, split by cause:
  //   blocked_cycles — awaiting a page transfer it faulted on (the legacy
  //                    pre-load-control meaning, unchanged: fault waits
  //                    only, so fixed-cap runs report the same values as
  //                    the static-knob engine did);
  //   queued_cycles  — held inactive by load control (awaiting first
  //                    admission, or deactivated by the controller).
  Cycles blocked_cycles{0};
  Cycles queued_cycles{0};
  // Reliability events attributed to this job's accesses (fault injection).
  std::uint64_t retries{0};
  std::uint64_t relocations{0};
  // Times the load controller swapped this job out.
  std::uint64_t deactivations{0};
  SpaceTime space_time;
};

struct MultiprogramReport {
  std::size_t degree{0};  // number of jobs
  Cycles total_cycles{0};
  Cycles cpu_busy_cycles{0};
  Cycles cpu_idle_cycles{0};
  Cycles context_switch_cycles{0};
  std::uint64_t faults{0};
  // Load-control activity.
  std::uint64_t deactivations{0};
  std::uint64_t reactivations{0};
  std::uint64_t controller_decisions{0};
  // Aggregate fault-injection outcome of the shared pager.
  ReliabilityStats reliability;
  std::vector<JobReport> jobs;

  double CpuUtilization() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(cpu_busy_cycles) /
                                   static_cast<double>(total_cycles);
  }
  double TotalSpaceTime() const;
  // Aggregate throughput: references retired per cycle of wall time.
  double Throughput() const;
};

class MultiprogrammingSimulator {
 public:
  explicit MultiprogrammingSimulator(MultiprogramConfig config);

  // Jobs must be added before Run.  Each job's names are private to it.
  JobId AddJob(std::string label, ReferenceTrace trace);

  // Runs all jobs to completion and reports.
  MultiprogramReport Run();

  // How KeyFor packs the owning job into the shared pager's page ids;
  // verifiers reconstruct per-job residency with it (job = page >> shift).
  static constexpr unsigned kJobShift = 40;

 private:
  enum class JobState : std::uint8_t {
    kPending,    // awaiting first admission by load control
    kReady,
    kBlocked,    // awaiting a page transfer
    kSuspended,  // deactivated by load control; holds no frames
    kDone,
  };

  struct Job {
    std::string label;
    ReferenceTrace trace;
    std::size_t next_ref{0};
    JobState state{JobState::kReady};
    Cycles unblock_time{0};
    JobReport report;
    WordCount resident_words{0};
    // Pages currently resident, by pager key; released on deactivation.
    std::unordered_set<std::uint64_t> resident_pages;
  };

  // Packs a job-private page number into the shared pager's key space.
  PageId KeyFor(JobId job, Name name) const {
    return PageId{(static_cast<std::uint64_t>(job.value) << kJobShift) |
                  (name.value / config_.page_words)};
  }

  // Accumulates space-time for every unfinished job over [from, to).
  void AccumulateSpaceTime(Cycles from, Cycles to);

  MultiprogramConfig config_;
  std::unique_ptr<BackingStore> backing_;
  std::unique_ptr<TransferChannel> channel_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<LoadController> controller_;
  std::vector<Job> jobs_;
};

// SystemBuilder bridge: lifts a point of the paper's design space (the
// capacities, timing, backing level, replacement strategy, fault model, and
// tracer of a SystemSpec) into a multiprogramming run with scheduling and
// load control layered on top.  Only the paged families multiprogram — the
// spec's allocation unit must not be kVariableBlocks.
struct MultiprogramSpec {
  SchedulerKind scheduler{SchedulerKind::kRoundRobin};
  LoadControlConfig load_control{};
  Cycles quantum{5000};
  Cycles context_switch_cycles{50};
};

MultiprogramConfig BuildMultiprogramConfig(const SystemSpec& system,
                                           const MultiprogramSpec& spec);

}  // namespace dsa

#endif  // SRC_SCHED_MULTIPROGRAMMING_H_
