#include "src/sched/multiprogramming.h"

#include <algorithm>

#include "src/core/assert.h"
#include "src/obs/tracer.h"
#include "src/paging/fetch.h"
#include "src/vm/system_builder.h"

namespace dsa {

double MultiprogramReport::TotalSpaceTime() const {
  double total = 0.0;
  for (const JobReport& job : jobs) {
    total += job.space_time.total();
  }
  return total;
}

double MultiprogramReport::Throughput() const {
  std::uint64_t refs = 0;
  for (const JobReport& job : jobs) {
    refs += job.references;
  }
  return total_cycles == 0 ? 0.0
                           : static_cast<double>(refs) / static_cast<double>(total_cycles);
}

MultiprogramConfig BuildMultiprogramConfig(const SystemSpec& system,
                                           const MultiprogramSpec& spec) {
  DSA_ASSERT(system.characteristics.unit != AllocationUnit::kVariableBlocks,
             "multiprogramming pages fixed-size units; variable-block (segment = unit) "
             "specs have no shared frame pool to control");
  MultiprogramConfig config;
  config.scheduler = spec.scheduler;
  config.load_control = spec.load_control;
  config.core_words = system.core_words;
  config.page_words = system.page_words;
  config.backing_level = system.backing_level;
  config.replacement = system.replacement;
  config.cycles_per_reference = system.cycles_per_reference;
  config.quantum = spec.quantum;
  config.context_switch_cycles = spec.context_switch_cycles;
  config.fault_injection = system.fault_injection;
  config.tracer = system.tracer;
  return config;
}

MultiprogrammingSimulator::MultiprogrammingSimulator(MultiprogramConfig config)
    : config_(std::move(config)) {
  DSA_ASSERT(config_.page_words > 0, "page_words must be positive");
  DSA_ASSERT(config_.core_words >= config_.page_words,
             "core_words below one page leaves zero frames");
  DSA_ASSERT(config_.quantum > 0, "quantum must be positive");
  DSA_ASSERT(config_.cycles_per_reference > 0, "cycles_per_reference must be positive");
  DSA_ASSERT(config_.max_active == 0 || config_.load_control.max_active == 0 ||
                 config_.max_active == config_.load_control.max_active,
             "max_active and load_control.max_active disagree");

  backing_ = std::make_unique<BackingStore>(config_.backing_level);
  channel_ = std::make_unique<TransferChannel>();
  if (config_.fault_injection.rates.Any() || !config_.fault_injection.level_rates.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.fault_injection);
  }

  PagerConfig pager_config;
  pager_config.page_words = config_.page_words;
  pager_config.frames = static_cast<std::size_t>(config_.core_words / config_.page_words);
  pager_ = std::make_unique<Pager>(pager_config, backing_.get(), channel_.get(),
                                   MakeReplacementPolicy(config_.replacement),
                                   std::make_unique<DemandFetch>(), /*advice=*/nullptr,
                                   injector_.get());
  pager_->SetTracer(config_.tracer);

  // Track per-job residency through the pager's load/evict notifications.
  pager_->SetResidencyCallbacks(
      [this](PageId key, FrameId frame) {
        (void)frame;
        const std::size_t job = static_cast<std::size_t>(key.value >> kJobShift);
        if (job < jobs_.size()) {
          jobs_[job].resident_words += config_.page_words;
          jobs_[job].resident_pages.insert(key.value);
        }
      },
      [this](PageId key, FrameId frame) {
        (void)frame;
        const std::size_t job = static_cast<std::size_t>(key.value >> kJobShift);
        if (job < jobs_.size()) {
          DSA_ASSERT(jobs_[job].resident_words >= config_.page_words,
                     "residency accounting underflow");
          jobs_[job].resident_words -= config_.page_words;
          jobs_[job].resident_pages.erase(key.value);
        }
      });
}

JobId MultiprogrammingSimulator::AddJob(std::string label, ReferenceTrace trace) {
  const JobId id{static_cast<std::uint32_t>(jobs_.size())};
  Job job;
  job.label = std::move(label);
  job.trace = std::move(trace);
  job.report.id = id;
  job.report.label = job.label;
  jobs_.push_back(std::move(job));
  return id;
}

void MultiprogrammingSimulator::AccumulateSpaceTime(Cycles from, Cycles to) {
  if (to <= from) {
    return;
  }
  const Cycles delta = to - from;
  double active_wt = 0.0;
  double waiting_wt = 0.0;
  for (Job& job : jobs_) {
    if (job.state == JobState::kDone) {
      continue;
    }
    const double wt =
        static_cast<double>(job.resident_words) * static_cast<double>(delta);
    if (job.state == JobState::kBlocked) {
      job.report.space_time.waiting += wt;
      waiting_wt += wt;
      job.report.blocked_cycles += delta;
    } else {
      job.report.space_time.active += wt;
      active_wt += wt;
      if (job.state == JobState::kPending || job.state == JobState::kSuspended) {
        job.report.queued_cycles += delta;
      }
    }
  }
  if (controller_ != nullptr) {
    controller_->detector().RecordSpaceTime(to, active_wt, waiting_wt);
  }
}

MultiprogramReport MultiprogrammingSimulator::Run() {
  DSA_ASSERT(!jobs_.empty(), "nothing to run");
  DSA_ASSERT(config_.max_active <= jobs_.size(),
             "max_active exceeds the multiprogramming degree");
  DSA_ASSERT(config_.load_control.max_active <= jobs_.size(),
             "load_control.max_active exceeds the multiprogramming degree");

  MultiprogramReport report;
  report.degree = jobs_.size();

  // Resolve the effective load-control configuration (the legacy knob maps
  // onto the fixed policy's cap).
  LoadControlConfig lc = config_.load_control;
  if (lc.max_active == 0) {
    lc.max_active = config_.max_active;
  }
  controller_ = std::make_unique<LoadController>(lc, config_.core_words, config_.page_words);
  // Whether admission is gated at all; ungated runs never consult the
  // controller and behave bit-identically to the pre-load-control engine.
  const bool gated = lc.policy != LoadControlPolicy::kFixed || lc.max_active != 0;
  const bool fixed = lc.policy == LoadControlPolicy::kFixed;
  const bool track_ws = lc.policy == LoadControlPolicy::kWorkingSetAdmission;
  ThrashingDetector& detector = controller_->detector();

  std::vector<JobWorkingSetEstimator> ws_estimates;
  if (track_ws) {
    ws_estimates.assign(jobs_.size(),
                        JobWorkingSetEstimator(lc.working_set_tau, config_.page_words));
  }
  // Working-set estimates run on each job's own reference clock (process
  // virtual time), so a suspended or starved job's estimate does not decay
  // — see JobWorkingSetEstimator.
  auto job_ws_words = [&](std::size_t j) -> WordCount {
    return ws_estimates[j].Estimate(jobs_[j].report.references);
  };
  auto active_ws_words = [&]() -> WordCount {
    if (!track_ws) {
      return 0;
    }
    WordCount sum = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobState s = jobs_[j].state;
      if (s == JobState::kReady || s == JobState::kBlocked) {
        sum += job_ws_words(j);
      }
    }
    return sum;
  };
  [[maybe_unused]] auto fault_rate_ppm = [&](Cycles at) -> std::uint64_t {
    return static_cast<std::uint64_t>(detector.Signals(at).fault_rate * 1e6);
  };

  Cycles now = 0;
  std::size_t rr_cursor = 0;
  std::size_t done = 0;
  std::uint64_t running = kNoJob;  // job on the CPU (kNoJob while idle)

  std::size_t active = 0;                // jobs in {kReady, kBlocked}
  std::size_t next_admission = 0;        // next never-admitted job
  std::deque<std::size_t> suspended;     // deactivated jobs, FIFO reactivation
  if (gated) {
    for (Job& job : jobs_) {
      job.state = JobState::kPending;
    }
  } else {
    active = jobs_.size();
    next_admission = jobs_.size();
  }

  // Admits queued work while the controller allows it: deactivated jobs
  // reactivate first (FIFO), then never-run jobs in arrival order.
  auto try_admissions = [&](Cycles at) {
    if (!gated) {
      return;
    }
    for (;;) {
      std::size_t candidate = jobs_.size();
      bool reactivation = false;
      if (!suspended.empty()) {
        candidate = suspended.front();
        reactivation = true;
      } else if (next_admission < jobs_.size()) {
        candidate = next_admission;
      } else {
        break;
      }
      const WordCount incoming = track_ws ? job_ws_words(candidate) : 0;
      if (!controller_->MayActivate(active, active_ws_words(), incoming, reactivation,
                                    at)) {
        break;
      }
      Job& job = jobs_[candidate];
      if (!fixed) {
        DSA_TRACE_CLOCK(config_.tracer, at);
        DSA_TRACE_EMIT(config_.tracer, EventKind::kLoadControl,
                       static_cast<std::uint64_t>(LoadControlDecision::kAdmit), candidate,
                       fault_rate_ppm(at));
        ++report.controller_decisions;
      }
      if (reactivation) {
        suspended.pop_front();
        DSA_ASSERT(job.state == JobState::kSuspended,
                   "suspended deque holds a job in a non-suspended state");
        job.state = job.unblock_time > at ? JobState::kBlocked : JobState::kReady;
        ++report.reactivations;
        DSA_TRACE_EMIT(config_.tracer, EventKind::kJobReactivate, candidate);
        controller_->NoteReactivation(at);
      } else {
        job.state = JobState::kReady;
        ++next_admission;
        if (!fixed) {
          // Stamp the cadence clock: cold-start admissions ramp one beat
          // apart instead of arriving all at once (see LoadController).
          controller_->NoteDecision(at);
        }
      }
      ++active;
    }
  };

  // Swaps one active job out: every resident page is released (writing back
  // dirty ones), the job requeues, and it holds zero frames until the
  // controller readmits it — the invariant the TraceReplayVerifier checks.
  auto deactivate = [&](std::size_t victim, Cycles at) {
    Job& job = jobs_[victim];
    DSA_ASSERT(job.next_ref < job.trace.refs.size(),
               "shed victim has no references left (it is completing, not thrashing)");
    const std::size_t active_before = active;
    DSA_TRACE_CLOCK(config_.tracer, at);
    DSA_TRACE_EMIT(config_.tracer, EventKind::kLoadControl,
                   static_cast<std::uint64_t>(LoadControlDecision::kShed), victim,
                   fault_rate_ppm(at));
    const std::vector<std::uint64_t> pages(job.resident_pages.begin(),
                                           job.resident_pages.end());
    for (const std::uint64_t page : pages) {
      pager_->Release(PageId{page}, at);
    }
    DSA_ASSERT(job.resident_pages.empty() && job.resident_words == 0,
               "deactivated job still holds frames");
    job.state = JobState::kSuspended;
    suspended.push_back(victim);
    --active;
    ++job.report.deactivations;
    ++report.deactivations;
    ++report.controller_decisions;
    DSA_TRACE_EMIT(config_.tracer, EventKind::kJobDeactivate, victim, pages.size());
    controller_->NoteShed(active_before, at);
  };

  // The shed victim: the active job with the least resident storage (its
  // space-time investment is the smallest), ties to the lowest id.  A job
  // with no references left is exempt: it is blocked on its *final* fault
  // and completes the moment the page lands — suspending it instead would
  // collide with the post-slice completion check and count it done twice.
  auto pick_victim = [&]() -> std::size_t {
    std::size_t victim = jobs_.size();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobState s = jobs_[j].state;
      if (s != JobState::kReady && s != JobState::kBlocked) {
        continue;
      }
      if (jobs_[j].next_ref >= jobs_[j].trace.refs.size()) {
        continue;
      }
      if (victim == jobs_.size() || jobs_[j].resident_words < jobs_[victim].resident_words) {
        victim = j;
      }
    }
    return victim;
  };

  auto unblock_arrivals = [&](Cycles at) {
    for (Job& job : jobs_) {
      if (job.state == JobState::kBlocked && job.unblock_time <= at) {
        job.state = JobState::kReady;
      }
    }
  };

  while (done < jobs_.size()) {
    unblock_arrivals(now);
    try_admissions(now);

    // Pick the next ready job.
    std::size_t picked = jobs_.size();
    if (config_.scheduler == SchedulerKind::kRoundRobin) {
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const std::size_t j = (rr_cursor + i) % jobs_.size();
        if (jobs_[j].state == JobState::kReady) {
          picked = j;
          break;
        }
      }
    } else {
      // Residency-aware: the ready job with the most resident words, ties
      // broken round-robin so nothing starves outright.
      WordCount best_resident = 0;
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const std::size_t j = (rr_cursor + i) % jobs_.size();
        if (jobs_[j].state != JobState::kReady) {
          continue;
        }
        if (picked == jobs_.size() || jobs_[j].resident_words > best_resident) {
          picked = j;
          best_resident = jobs_[j].resident_words;
        }
      }
    }

    if (picked == jobs_.size()) {
      // Every unfinished job is awaiting a page: the CPU idles until the
      // earliest arrival — the un-overlapped fetch time the paper warns of.
      Cycles next = 0;
      bool found = false;
      for (const Job& job : jobs_) {
        if (job.state == JobState::kBlocked && (!found || job.unblock_time < next)) {
          next = job.unblock_time;
          found = true;
        }
      }
      DSA_ASSERT(found, "deadlock: no ready and no blocked job");
      if (running != kNoJob) {
        DSA_TRACE_CLOCK(config_.tracer, now);
        DSA_TRACE_EMIT(config_.tracer, EventKind::kScheduleSwitch, running, kNoJob);
        running = kNoJob;
      }
      AccumulateSpaceTime(now, next);
      report.cpu_idle_cycles += next - now;
      // The channel is busy with the very transfers being awaited: this is
      // the idle-while-transfer-pending signal of the thrashing detector.
      detector.RecordIdle(next, next - now);
      now = next;
      continue;
    }

    Job& job = jobs_[picked];
    rr_cursor = picked + 1;
    if (running != picked) {
      DSA_TRACE_CLOCK(config_.tracer, now);
      DSA_TRACE_EMIT(config_.tracer, EventKind::kScheduleSwitch, running, picked);
      running = picked;
    }

    // Context switch onto the job.
    if (config_.context_switch_cycles > 0) {
      AccumulateSpaceTime(now, now + config_.context_switch_cycles);
      now += config_.context_switch_cycles;
      report.context_switch_cycles += config_.context_switch_cycles;
      report.cpu_busy_cycles += config_.context_switch_cycles;
    }

    // Execute until quantum expiry, fault, or completion.
    Cycles slice_used = 0;
    while (slice_used < config_.quantum && job.next_ref < job.trace.refs.size()) {
      const Reference& ref = job.trace.refs[job.next_ref];
      AccumulateSpaceTime(now, now + config_.cycles_per_reference);
      now += config_.cycles_per_reference;
      slice_used += config_.cycles_per_reference;
      report.cpu_busy_cycles += config_.cycles_per_reference;
      detector.RecordReference(now);

      const PageId key = KeyFor(job.report.id, ref.name);
      if (track_ws) {
        ws_estimates[picked].Touch(key.value, job.report.references);
      }
      const ReliabilityStats& rel = pager_->stats().reliability;
      const std::uint64_t retries_before = rel.retries;
      const std::uint64_t relocations_before = rel.relocations + rel.spill_relocations;
      const PageAccessResult outcome = pager_->Access(key, ref.kind, now);
      job.report.retries += rel.retries - retries_before;
      job.report.relocations += rel.relocations + rel.spill_relocations - relocations_before;
      ++job.next_ref;
      ++job.report.references;
      bool faulted = false;
      if (!outcome.has_value()) {
        // Unrecoverable access: the job paid the stall and moves on without
        // the page (the reference is abandoned).
        faulted = true;
        job.unblock_time = now + outcome.error().wait_cycles;
      } else if (outcome->faulted) {
        faulted = true;
        job.unblock_time = now + outcome->wait_cycles;
      }
      if (faulted) {
        ++job.report.faults;
        ++report.faults;
        job.state = JobState::kBlocked;
        detector.RecordFault(now, job.unblock_time - now);
        // The decision point of the closed loop: under rising pressure the
        // controller swaps out the cheapest active job, with hysteresis.
        if (gated && controller_->ShouldShed(active, active_ws_words(), now)) {
          const std::size_t victim = pick_victim();
          if (victim != jobs_.size()) {
            deactivate(victim, now);
          }
        }
        break;
      }
    }

    // Post-slice completion: the job is either still running (kReady) or
    // awaiting its final fault (kBlocked) — pick_victim never sheds a job
    // out of its last reference, so kSuspended cannot reach here.
    if (job.next_ref >= job.trace.refs.size() && job.state == JobState::kReady) {
      job.state = JobState::kDone;
      job.report.finish_time = now;
      ++done;
      --active;
      continue;
    }
    if (job.state == JobState::kBlocked && job.next_ref >= job.trace.refs.size()) {
      // The last reference faulted; the job finishes when the page lands.
      AccumulateSpaceTime(now, job.unblock_time);
      job.state = JobState::kDone;
      job.report.finish_time = job.unblock_time;
      ++done;
      --active;
    }
  }

  report.total_cycles = now;
  report.reliability = pager_->stats().reliability;
  for (Job& job : jobs_) {
    // A job whose final reference faulted finishes after the CPU went quiet.
    report.total_cycles = std::max(report.total_cycles, job.report.finish_time);
    report.jobs.push_back(job.report);
  }
  report.cpu_idle_cycles += report.total_cycles - now;
  return report;
}

}  // namespace dsa
