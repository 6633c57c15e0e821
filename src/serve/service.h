// The resident service loop: a multi-tenant daemon over per-tenant
// PagedLinearVm instances with crash-consistent checkpoint/restore.
//
// Tenants are reference-trace files dropped into a spool directory; each is
// admitted (sorted-name order, rescanned between rounds so tenants can
// stream in mid-run), given its own isolated system instance built from the
// shared SystemSpec, and stepped in round-robin slices.  A LoadController
// watches the aggregate fault/wait signals across every active tenant on
// the service's virtual clock and adapts how many tenants run concurrently
// — the paper's integrated storage-and-scheduling decision applied across
// tenants instead of across jobs.
//
// Crash consistency (the whole point of this module):
//
//   * On a simulated-cycle cadence the loop commits a CUT: every tenant's
//     pending trace events are appended to its JSONL file, then every
//     incomplete tenant's full VM state plus one global "svc" member
//     (service clock, controller state, admission order, aggregate
//     metrics) is staged and committed through the CheckpointStore
//     manifest protocol.
//   * Each tenant checkpoint records the byte length of its published
//     JSONL prefix; restore truncates the file to that offset, discarding
//     bytes appended after the committed cut.
//   * Restore rebuilds each tenant from its spool file and checkpoint and
//     continues stepping; because every component serializes its complete
//     state, the resumed run's reports, metrics, and event JSONL are
//     byte-identical to an uninterrupted run (tests/test_checkpoint_resume
//     and scripts/soak_resume.sh enforce this).
//   * Damaged checkpoints are quarantined by the store, reported as typed
//     errors, and the service restarts the affected work from scratch —
//     it never aborts and never resumes a partial cut.
//
// A malformed spool file is rejected and reported, never fatal.  The spec
// must select the paged linear family (SpecIsPagedLinear) — the family
// whose complete state is checkpointable.

#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fsio.h"
#include "src/core/snapshot.h"
#include "src/exec/sweep_runner.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/sched/load_control.h"
#include "src/serve/checkpoint.h"
#include "src/serve/checkpoint_store.h"
#include "src/trace/reference.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace dsa {

struct ServeConfig {
  std::string spool_dir;       // tenant trace files
  std::string out_dir;         // per-tenant reports + event JSONL + SERVICE.txt
  std::string checkpoint_dir;  // the CheckpointStore directory

  // Simulated service-clock cycles between checkpoint commits (0: commit
  // only at tenant completions and shutdown).
  Cycles checkpoint_every{200000};
  // Every Nth commit is a FULL cut; the commits between are DELTA cuts that
  // re-seal only the sections whose content hash changed since the tenant's
  // last committed cut (see SealTenantCheckpointSections).  1 (the default)
  // makes every commit full — the pre-delta behavior.  The first commit
  // after process start or restore is always full, so a delta chain never
  // lacks an on-disk base.  The cadence changes only what is written to the
  // store, never the simulation: resumed output stays byte-identical at
  // every value.
  int checkpoint_full_every{1};
  // References each tenant executes per scheduling slice.
  std::size_t slice_references{256};
  // Cross-tenant admission policy; max_active caps concurrency, the
  // adaptive policies shed it when the aggregate signals say thrashing.
  LoadControlConfig load_control{};
  // Abandon the loop (without flushing) after this many commits — the
  // deterministic kill point the resume tests drive.  Negative: run to
  // completion.
  int stop_after_commits{-1};
  // Rescan the spool between rounds for streaming admission; false is the
  // --drain mode (serve only what was spooled at startup, then exit).
  bool rescan_spool{true};
  // Scheduler lanes: how many threads step active tenants concurrently
  // within one round (0: hardware width).  Each tenant is one SweepRunner
  // cell that touches only its own state; the detector feed is buffered per
  // tenant and replayed serially in admission order after the round's
  // barrier, so output is byte-identical at every lane count — lanes=1 runs
  // the serial loop verbatim.
  // Checkpoint commits sit between rounds and stay the natural barrier.
  unsigned lanes{1};
  // Durable-IO seam: every file op the service performs (spool admission,
  // event appends, report writes, checkpoint commits) goes through this Fs
  // (null: the process-wide RealFs).  Tests pass a FaultInjectingFs here.
  Fs* fs{nullptr};
  // Transient IO errors retry with bounded exponential backoff; the backoff
  // burns SERVICE VIRTUAL cycles, so a retried run replays deterministically.
  RetryPolicyConfig io_retry{};
  // When the loop ends with unflushed state (degraded mode), how many times
  // the final flush is re-attempted before exiting degraded-but-alive.
  // Each attempt burns ops, so a transient window that opened during the
  // last round still heals before the daemon gives up.
  int final_flush_attempts{8};
};

struct ServeOutcome {
  bool finished{false};  // false: stopped at stop_after_commits
  std::size_t tenants_completed{0};
  std::size_t tenants_rejected{0};
  std::size_t tenants_resumed{0};
  std::uint64_t commits{0};
  std::vector<std::string> rejected;     // "name: reason", admission order
  std::vector<std::string> quarantined;  // store-recovery reasons

  // Durable-IO health.  A run can finish with degraded=true: every tenant
  // was stepped to completion but the final durable publications never
  // landed (persistent ENOSPC/EIO) — alive, just unable to checkpoint.
  bool degraded{false};
  std::uint64_t io_retries{0};            // transient errors that retried
  std::uint64_t io_giveups{0};            // retry budgets exhausted
  Cycles degraded_cycles{0};              // virtual cycles spent degraded
  std::size_t reports_unwritten{0};       // completed tenants lacking reports
};

class ServiceLoop {
 public:
  // `base_spec.tracer` is ignored: every tenant gets its own tracer.
  ServiceLoop(SystemSpec base_spec, ServeConfig config);

  // Admits, steps, checkpoints, and (unless stopped early) finishes every
  // tenant.  Errors are reserved for environment failures (unwritable
  // output or checkpoint directories); malformed tenants and damaged
  // checkpoints surface in the outcome instead.
  Expected<ServeOutcome, SnapshotError> Run();

 private:
  struct Tenant {
    std::string name;                    // spool file name
    std::uint64_t trace_fingerprint{0};  // fnv64 of the raw spool bytes
    ReferenceTrace trace;
    EventTracer tracer{0};  // unbounded: drained at every commit
    std::unique_ptr<PagedLinearVm> vm;
    std::uint64_t next_ref{0};
    std::uint64_t events_published{0};
    std::uint64_t jsonl_bytes{0};
    SpaceTime last_space_time;  // detector feed watermark
    bool done{false};
    // Per-step (cycle delta, stall) pairs buffered by StepSlice on the
    // stepping lane and replayed into the thrashing detector serially, in
    // admission order — the trick that keeps the controller's view, and so
    // every downstream decision, independent of the lane count.
    std::vector<std::pair<Cycles, Cycles>> feed;
    // Section digest of this tenant's last COMMITTED checkpoint — the
    // baseline the next delta cut diffs against.  Empty (no baseline) until
    // the first successful commit, and after restore: the first commit of a
    // process is always full.
    SectionBaseline baseline;
  };

  std::string EventsPath(const Tenant& t) const;
  std::string ReportPath(const Tenant& t) const;

  // Sorted spool scan; admits unseen files, records rejections.
  Status<SnapshotError> AdmitTenants();
  // Builds the tenant's VM (fresh) from the shared spec.
  std::unique_ptr<PagedLinearVm> BuildVm(Tenant* t);
  // Applies the recovered cut; on semantic mismatch falls back to a fresh
  // start (recording why) rather than resuming a partial state.
  void RestoreCut(CheckpointStore::Recovered* recovered);

  void RunSlice(Tenant* t);
  // The two halves of RunSlice for concurrent rounds: StepSlice is
  // parallel-safe (touches only tenant-owned state), ReplayFeed is
  // serial-only (service clock + detector).
  void StepSlice(Tenant* t);
  void ReplayFeed(Tenant* t);
  Status<SnapshotError> FinishTenant(Tenant* t);
  Status<SnapshotError> AppendPendingEvents(Tenant* t);
  Status<SnapshotError> CommitCut();
  void DecideConcurrency(const std::vector<Tenant*>& steppable);
  Status<SnapshotError> WriteServiceReport();

  // Degraded-mode machinery.  AttemptFlush tries every pending durable
  // publication — reports of simulation-complete tenants, then the
  // checkpoint cut.  A failure enters degraded mode (kServiceDegraded,
  // tenants keep stepping, the next cadence re-attempts); a success while
  // degraded re-arms (kServiceRecovered, degraded_cycles folded).
  bool AttemptFlush();
  void NoteIoFailure(const SnapshotError& error);
  void NoteIoRecovered();
  // Copies the IO health counters into outcome_; called before every return.
  void FillIoOutcome();
  // IO.txt + IO.events.jsonl, written only when IO was ever disturbed so a
  // zero-fault run's output tree stays byte-identical to the pre-seam one.
  void WriteIoReport();

  std::string BuildSvcMember() const;
  // Parses the svc member against the current spool; false (with reason)
  // demands a fresh start.
  bool LoadSvcMember(std::string_view sealed, std::string* reason);

  SystemSpec spec_;
  ServeConfig config_;
  std::uint64_t spec_fingerprint_;
  // The IO chain, declared before store_ so the store can commit through
  // it: raw seam (config or RealFs) wrapped by the retry decorator, whose
  // backoff advances service_clock_ and whose counts land in io_stats_.
  IoStats io_stats_;
  RetryingFs io_;
  CheckpointStore store_;
  LoadController controller_;

  unsigned lanes_;
  SweepRunner runner_;  // steps a concurrent round's tenants

  std::vector<std::unique_ptr<Tenant>> tenants_;  // admission order
  std::vector<std::string> seen_;                 // admitted + rejected names
  ServeOutcome outcome_;
  MetricsRegistry aggregate_;

  Cycles service_clock_{0};
  Cycles last_commit_clock_{0};
  // Successful commits this PROCESS (deliberately not checkpointed): the
  // full/delta cadence counts from process start, so commit 0 — the first
  // after a start or restore — is always a full cut.
  std::uint64_t commit_seq_{0};
  std::size_t concurrency_{1};
  bool shed_since_start_{false};

  // Degraded-mode state.  degraded_ itself is never checkpointed: a restart
  // begins healthy and re-degrades on its own evidence if IO is still down.
  bool degraded_{false};
  Cycles degraded_since_{0};
  Cycles degraded_cycles_{0};
  // Cadence watermark for flush ATTEMPTS (successes move last_commit_clock_
  // as before) — a degraded service re-attempts once per cadence, not once
  // per round.
  Cycles last_flush_attempt_clock_{0};
  EventTracer io_tracer_{0};  // kServiceDegraded / kServiceRecovered stream
};

}  // namespace dsa

#endif  // SRC_SERVE_SERVICE_H_
