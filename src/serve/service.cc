#include "src/serve/service.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "src/obs/export.h"
#include "src/obs/merge.h"
#include "src/obs/vm_metrics.h"
#include "src/trace/trace_io.h"

namespace dsa {

namespace {

SnapshotError IoError(std::string detail) {
  return SnapshotError{SnapshotErrorKind::kIo, std::move(detail)};
}

bool UsableTenantName(const std::string& name) {
  if (name.empty() || name[0] == '.') {
    return false;
  }
  // Member names travel through the whitespace-delimited manifest.
  return name.find_first_of(" \t\n") == std::string::npos;
}

}  // namespace

ServiceLoop::ServiceLoop(SystemSpec base_spec, ServeConfig config)
    : spec_(std::move(base_spec)),
      config_(std::move(config)),
      spec_fingerprint_(SpecFingerprint(spec_)),
      // Taking &service_clock_ before that member is initialized is fine:
      // the decorator only dereferences it per op, long after construction.
      io_(config_.fs != nullptr ? config_.fs : &SystemFs(), config_.io_retry,
          &service_clock_, &io_stats_),
      store_(config_.checkpoint_dir, &io_),
      controller_(config_.load_control, spec_.core_words, spec_.page_words),
      lanes_(std::max(1u, config_.lanes == 0 ? HardwareJobs() : config_.lanes)),
      runner_(lanes_) {
  spec_.tracer = nullptr;  // tenants own their tracers
}

std::string ServiceLoop::EventsPath(const Tenant& t) const {
  return config_.out_dir + "/" + t.name + ".events.jsonl";
}

std::string ServiceLoop::ReportPath(const Tenant& t) const {
  return config_.out_dir + "/" + t.name + ".report.txt";
}

std::unique_ptr<PagedLinearVm> ServiceLoop::BuildVm(Tenant* t) {
  PagedVmConfig config = PagedConfigFromSpec(spec_);
  config.tracer = &t->tracer;
  return std::make_unique<PagedLinearVm>(config);
}

Status<SnapshotError> ServiceLoop::AdmitTenants() {
  auto files = io_.ListDir(config_.spool_dir);
  if (!files.has_value()) {
    return MakeUnexpected(IoError("cannot read spool dir " + config_.spool_dir + ": " +
                                  files.error().Describe()));
  }

  for (const std::string& name : *files) {
    if (std::find(seen_.begin(), seen_.end(), name) != seen_.end()) {
      continue;
    }
    seen_.push_back(name);
    auto reject = [&](const std::string& reason) {
      outcome_.rejected.push_back(name + ": " + reason);
      ++outcome_.tenants_rejected;
    };
    if (!UsableTenantName(name)) {
      reject("unusable file name (hidden or whitespace)");
      continue;
    }
    auto bytes = io_.ReadFile(config_.spool_dir + "/" + name);
    if (!bytes.has_value()) {
      // Rejection is for properties of the DATA (vanished file, bad
      // permissions, malformed contents).  A retry-exhausted transient
      // error or a crash says the MEDIUM is down: dropping the tenant
      // would silently serve less than the spool holds, so that is an
      // environment error and the supervisor restarts us.
      if (RetryableErrno(bytes.error().err) || bytes.error().fatal) {
        return MakeUnexpected(IoError("cannot read spool file " + name + ": " +
                                      bytes.error().Describe()));
      }
      reject(bytes.error().Describe());
      continue;
    }
    std::istringstream in(*bytes);
    auto parsed = ReadReferenceTrace(&in);
    if (!parsed.has_value()) {
      reject("line " + std::to_string(parsed.error().line) + ": " + parsed.error().message);
      continue;
    }
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    tenant->trace_fingerprint = Fnv64(*bytes);
    tenant->trace = std::move(parsed.value());
    tenant->vm = BuildVm(tenant.get());
    // A fresh tenant's event log starts empty; a crash may have left
    // uncommitted bytes from a previous incarnation.
    if (auto status = io_.Truncate(EventsPath(*tenant), 0); !status.has_value()) {
      return MakeUnexpected(
          IoError("cannot create " + EventsPath(*tenant) + ": " + status.error().Describe()));
    }
    tenants_.push_back(std::move(tenant));
  }
  return Ok();
}

std::string ServiceLoop::BuildSvcMember() const {
  SnapshotWriter w;
  w.U64(spec_fingerprint_);
  w.U64(service_clock_);
  w.U64(last_commit_clock_);
  w.U64(concurrency_);
  w.Bool(shed_since_start_);
  // IO health counters survive restarts; the degraded_ flag itself does not
  // (a restarted daemon begins healthy and re-degrades on fresh evidence).
  w.U64(io_stats_.retries);
  w.U64(io_stats_.giveups);
  w.U64(degraded_cycles_);
  controller_.SaveState(&w);
  aggregate_.SaveState(&w);
  w.U64(tenants_.size());
  for (const auto& t : tenants_) {
    w.Str(t->name);
    w.Bool(t->done);
  }
  return w.Seal();
}

bool ServiceLoop::LoadSvcMember(std::string_view sealed, std::string* reason) {
  SnapshotReader r(sealed);
  const std::uint64_t fingerprint = r.U64();
  if (r.ok() && fingerprint != spec_fingerprint_) {
    *reason = "checkpoint was taken under a different system spec";
    return false;
  }
  const Cycles service_clock = r.U64();
  const Cycles last_commit_clock = r.U64();
  const std::uint64_t concurrency = r.U64();
  const bool shed_since_start = r.Bool();
  const std::uint64_t io_retries = r.U64();
  const std::uint64_t io_giveups = r.U64();
  const Cycles degraded_cycles = r.U64();
  controller_.LoadState(&r);
  aggregate_.LoadState(&r);
  const std::uint64_t count = r.Count(1u << 20);
  if (!r.ok()) {
    *reason = r.error().Describe();
    return false;
  }
  if (concurrency == 0) {
    *reason = "service concurrency of zero";
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = r.Str();
    const bool done = r.Bool();
    if (!r.ok()) {
      *reason = r.error().Describe();
      return false;
    }
    auto bytes = ReadFileBytes(&io_, config_.spool_dir + "/" + name);
    if (!bytes.has_value()) {
      *reason = "tenant " + name + " vanished from the spool";
      return false;
    }
    std::istringstream in(*bytes);
    auto parsed = ReadReferenceTrace(&in);
    if (!parsed.has_value()) {
      *reason = "tenant " + name + " no longer parses";
      return false;
    }
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    tenant->trace_fingerprint = Fnv64(*bytes);
    tenant->trace = std::move(parsed.value());
    tenant->done = done;
    if (done) {
      // Outputs are already final; no VM state exists or is needed.
      tenant->next_ref = tenant->trace.size();
    }
    tenants_.push_back(std::move(tenant));
    seen_.push_back(name);
  }
  if (!r.AtEnd()) {
    *reason = "trailing bytes after the service state";
    return false;
  }
  service_clock_ = service_clock;
  last_commit_clock_ = last_commit_clock;
  last_flush_attempt_clock_ = last_commit_clock;
  concurrency_ = static_cast<std::size_t>(concurrency);
  shed_since_start_ = shed_since_start;
  io_stats_.retries = io_retries;
  io_stats_.giveups = io_giveups;
  degraded_cycles_ = degraded_cycles;
  return true;
}

void ServiceLoop::RestoreCut(CheckpointStore::Recovered* recovered) {
  auto fresh_start = [&](const std::string& reason) {
    outcome_.quarantined.push_back("cut discarded: " + reason);
    tenants_.clear();
    seen_.clear();
    outcome_.tenants_resumed = 0;
    service_clock_ = 0;
    last_commit_clock_ = 0;
    last_flush_attempt_clock_ = 0;
    concurrency_ = 1;
    shed_since_start_ = false;
    io_stats_ = IoStats{};
    degraded_cycles_ = 0;
    controller_ = LoadController(config_.load_control, spec_.core_words, spec_.page_words);
    aggregate_ = MetricsRegistry{};
  };

  auto svc = recovered->members.find("svc");
  if (svc == recovered->members.end()) {
    if (!recovered->members.empty()) {
      fresh_start("committed cut lacks the svc member");
    }
    return;
  }
  if (svc->second.size() != 1) {
    fresh_start("svc member is not a single full link");
    return;
  }
  std::string reason;
  if (!LoadSvcMember(svc->second.front(), &reason)) {
    fresh_start(reason);
    return;
  }
  for (auto& t : tenants_) {
    if (t->done) {
      continue;
    }
    auto member = recovered->members.find("tenant." + t->name);
    if (member == recovered->members.end()) {
      fresh_start("committed cut lacks tenant " + t->name);
      return;
    }
    t->vm = BuildVm(t.get());
    auto meta = OpenTenantCheckpointChain(member->second, spec_fingerprint_,
                                          t->trace_fingerprint, t->trace.size(), t->vm.get());
    if (!meta.has_value()) {
      fresh_start("tenant " + t->name + ": " + meta.error().Describe());
      return;
    }
    t->next_ref = meta->next_ref;
    t->events_published = meta->events_published;
    t->jsonl_bytes = meta->jsonl_bytes;
    t->last_space_time = t->vm->Snapshot().space_time;
    // Discard event bytes appended after the committed cut; the resumed
    // steps regenerate them identically.  A missing log is an empty one
    // (only valid when the committed prefix is empty too).
    std::uint64_t actual = 0;
    if (auto size = io_.FileSize(EventsPath(*t)); size.has_value()) {
      actual = *size;
    } else if (size.error().err != ENOENT) {
      fresh_start("tenant " + t->name + ": cannot size event log: " +
                  size.error().Describe());
      return;
    }
    if (actual < t->jsonl_bytes) {
      fresh_start("tenant " + t->name + ": event log shorter than the committed prefix");
      return;
    }
    if (actual > t->jsonl_bytes) {
      if (auto status = io_.Truncate(EventsPath(*t), t->jsonl_bytes); !status.has_value()) {
        fresh_start("tenant " + t->name + ": cannot truncate event log");
        return;
      }
    }
    ++outcome_.tenants_resumed;
  }
}

void ServiceLoop::StepSlice(Tenant* t) {
  const std::vector<Reference>& refs = t->trace.refs;
  const std::uint64_t end =
      std::min<std::uint64_t>(t->next_ref + config_.slice_references, refs.size());
  t->feed.clear();
  while (t->next_ref < end) {
    const Cycles before = t->vm->clock().now();
    const Cycles stall = t->vm->Step(refs[static_cast<std::size_t>(t->next_ref)]);
    ++t->next_ref;
    t->feed.emplace_back(t->vm->clock().now() - before, stall);
  }
}

void ServiceLoop::ReplayFeed(Tenant* t) {
  ThrashingDetector& detector = controller_.detector();
  for (const auto& [delta, stall] : t->feed) {
    service_clock_ += delta;
    detector.RecordReference(service_clock_);
    if (stall > 0) {
      detector.RecordFault(service_clock_, stall);
    }
  }
  t->feed.clear();
  const SpaceTime now_product = t->vm->Snapshot().space_time;
  detector.RecordSpaceTime(service_clock_, now_product.active - t->last_space_time.active,
                           now_product.waiting - t->last_space_time.waiting);
  t->last_space_time = now_product;
}

void ServiceLoop::RunSlice(Tenant* t) {
  // The serial composition is step-for-step the pre-lanes loop: the feed is
  // generated and immediately replayed, so the detector sees each reference
  // at the same service-clock instant it always did.
  StepSlice(t);
  ReplayFeed(t);
}

Status<SnapshotError> ServiceLoop::FinishTenant(Tenant* t) {
  // The report write is the only durable step left for this tenant; its
  // metrics were folded into the aggregate when the simulation completed.
  // `done` flips only once the report is on disk, so done-in-a-cut always
  // implies report-on-disk and a restart can re-render any pending report
  // from the restored VM.
  VmReport report = t->vm->Snapshot();
  report.label = spec_.label + " / " + t->trace.label;
  const std::string text =
      RenderVmReport(report, Describe(t->vm->characteristics()), t->name);
  if (auto status = WriteFileAtomic(&io_, ReportPath(*t), text); !status.has_value()) {
    return status;
  }
  t->done = true;
  return Ok();
}

Status<SnapshotError> ServiceLoop::AppendPendingEvents(Tenant* t) {
  const std::size_t events = t->tracer.size();
  if (events == 0) {
    return Ok();
  }
  // Encoded straight from the ring, oldest first: EventsToJsonl's bytes,
  // into the tenant's buffer from the previous cut.
  std::string& lines = t->event_lines;
  lines.clear();
  t->tracer.ForEach([&lines](const TraceEvent& event) {
    AppendEventJson(&lines, event);
    lines.push_back('\n');
  });
  // Append at the published watermark: Fs::Append truncates to that offset
  // first, so a torn or retried append lands these bytes exactly once —
  // the committed cut records the returned (64-bit) offset, and the bytes
  // are fsynced before the manifest rename makes that offset authoritative.
  auto size = io_.Append(EventsPath(*t), t->jsonl_bytes, lines);
  if (!size.has_value()) {
    return MakeUnexpected(IoError("cannot append to " + EventsPath(*t) + ": " +
                                  size.error().Describe()));
  }
  t->jsonl_bytes = *size;
  t->events_published += events;
  t->tracer.Clear();
  return Ok();
}

Status<SnapshotError> ServiceLoop::CommitCut() {
  for (auto& t : tenants_) {
    if (auto status = AppendPendingEvents(t.get()); !status.has_value()) {
      return status;
    }
  }
  // Full/delta cadence: commit_seq_ counts successful commits of THIS
  // process, so the first commit after a start or restore is always full
  // and a delta link never lacks an on-disk base chain.  The svc member is
  // small and always staged full.
  const bool delta_cut =
      config_.checkpoint_full_every > 1 &&
      commit_seq_ % static_cast<std::uint64_t>(config_.checkpoint_full_every) != 0;
  const bool track_baselines = config_.checkpoint_full_every > 1;
  const std::string svc_bytes = BuildSvcMember();
  SealBuffer svc = store_.TakeSealBuffer("svc");
  svc.assign(svc_bytes.data(), svc_bytes.size());
  store_.Stage("svc", std::move(svc), Fnv64(svc_bytes), CutKind::kFull);
  std::map<std::string, SectionBaseline> digests;
  for (const auto& t : tenants_) {
    if (t->done) {
      continue;
    }
    TenantCheckpointMeta meta;
    meta.tenant = t->name;
    meta.spec_fingerprint = spec_fingerprint_;
    meta.trace_fingerprint = t->trace_fingerprint;
    meta.trace_size = t->trace.size();
    meta.next_ref = t->next_ref;
    meta.events_published = t->events_published;
    meta.jsonl_bytes = t->jsonl_bytes;
    const bool as_delta = delta_cut && !t->baseline.empty();
    SectionBaseline digest;
    const std::string member = "tenant." + t->name;
    SealBuffer sealed = store_.TakeSealBuffer(member);
    const SealHashes hashes = SealTenantCheckpointSections(
        meta, *t->vm, as_delta ? &t->baseline : nullptr,
        track_baselines ? &digest : nullptr, &sealed);
    store_.Stage(member, std::move(sealed), hashes.file,
                 as_delta ? CutKind::kDelta : CutKind::kFull);
    if (track_baselines) {
      digests[t->name] = std::move(digest);
    }
  }
  if (auto status = store_.Commit(delta_cut ? CutKind::kDelta : CutKind::kFull);
      !status.has_value()) {
    return status;
  }
  // Baselines advance only once the cut is durably committed: a failed
  // commit must leave the next attempt diffing against the last cut that
  // actually exists on disk.
  for (auto& t : tenants_) {
    auto it = digests.find(t->name);
    if (it != digests.end()) {
      t->baseline = std::move(it->second);
    }
  }
  ++commit_seq_;
  last_commit_clock_ = service_clock_;
  ++outcome_.commits;
  return Ok();
}

void ServiceLoop::DecideConcurrency(const std::vector<Tenant*>& steppable) {
  // `steppable` excludes done tenants AND simulation-complete tenants whose
  // report is still pending under degraded IO — those occupy no slot, so a
  // stuck report can never starve the tenants that still have work.  In a
  // healthy run the two sets are identical.
  const std::vector<Tenant*>& incomplete = steppable;
  if (incomplete.size() <= 1) {
    concurrency_ = std::max<std::size_t>(concurrency_, 1);
    return;
  }
  const std::size_t active = std::min(concurrency_, incomplete.size());
  WordCount active_ws = 0;
  for (std::size_t i = 0; i < active; ++i) {
    active_ws += incomplete[i]->vm->pager().ResidentWords();
  }
  if (concurrency_ > 1 && controller_.ShouldShed(active, active_ws, service_clock_)) {
    controller_.NoteShed(active, service_clock_);
    --concurrency_;
    shed_since_start_ = true;
    return;
  }
  if (concurrency_ < incomplete.size() &&
      controller_.MayActivate(active, active_ws, spec_.page_words, shed_since_start_,
                              service_clock_)) {
    if (shed_since_start_) {
      controller_.NoteReactivation(service_clock_);
    } else {
      controller_.NoteDecision(service_clock_);
    }
    ++concurrency_;
  }
}

Status<SnapshotError> ServiceLoop::WriteServiceReport() {
  const std::uint64_t references = aggregate_.CounterValue("vm/references");
  const std::uint64_t faults = aggregate_.CounterValue("vm/faults");
  char buf[128];
  std::string text;
  std::snprintf(buf, sizeof(buf), "== service: %zu tenants, %zu rejected ==\n",
                tenants_.size(), outcome_.tenants_rejected);
  text += buf;
  std::snprintf(buf, sizeof(buf), "references       %" PRIu64 "\n", references);
  text += buf;
  std::snprintf(buf, sizeof(buf), "faults           %" PRIu64 "  (rate %.5f)\n", faults,
                references == 0
                    ? 0.0
                    : static_cast<double>(faults) / static_cast<double>(references));
  text += buf;
  std::snprintf(buf, sizeof(buf), "write-backs      %" PRIu64 "\n",
                aggregate_.CounterValue("vm/writebacks"));
  text += buf;
  std::snprintf(buf, sizeof(buf), "total cycles     %" PRIu64 "\n",
                aggregate_.CounterValue("vm/total_cycles"));
  text += buf;
  std::snprintf(buf, sizeof(buf), "wait cycles      %" PRIu64 "\n",
                aggregate_.CounterValue("vm/wait_cycles"));
  text += buf;
  return WriteFileAtomic(&io_, config_.out_dir + "/SERVICE.txt", text);
}

void ServiceLoop::NoteIoFailure(const SnapshotError& error) {
  (void)error;  // the typed detail already reached the caller's diagnostics
  if (degraded_) {
    return;  // one episode, however many cadences it spans
  }
  degraded_ = true;
  degraded_since_ = service_clock_;
  io_tracer_.AdvanceClock(service_clock_);
  io_tracer_.Emit(EventKind::kServiceDegraded, io_stats_.giveups, outcome_.commits, 0);
}

void ServiceLoop::NoteIoRecovered() {
  const Cycles episode = service_clock_ - degraded_since_;
  degraded_cycles_ += episode;
  degraded_ = false;
  io_tracer_.AdvanceClock(service_clock_);
  io_tracer_.Emit(EventKind::kServiceRecovered, episode, outcome_.commits, 0);
}

bool ServiceLoop::AttemptFlush() {
  last_flush_attempt_clock_ = service_clock_;
  // Pending reports first (completion order is admission order), then the
  // cut — the same durable-op order a healthy run produces, so a recovered
  // run's op sequence converges with an undisturbed one.
  for (auto& t : tenants_) {
    if (t->done || t->next_ref != t->trace.size() || t->vm == nullptr) {
      continue;
    }
    if (auto status = FinishTenant(t.get()); !status.has_value()) {
      NoteIoFailure(status.error());
      return false;
    }
  }
  if (!tenants_.empty()) {
    if (auto status = CommitCut(); !status.has_value()) {
      NoteIoFailure(status.error());
      return false;
    }
  }
  if (degraded_) {
    NoteIoRecovered();
  }
  return true;
}

void ServiceLoop::FillIoOutcome() {
  outcome_.degraded = degraded_;
  outcome_.io_retries = io_stats_.retries;
  outcome_.io_giveups = io_stats_.giveups;
  outcome_.degraded_cycles =
      degraded_cycles_ + (degraded_ ? service_clock_ - degraded_since_ : 0);
  outcome_.reports_unwritten = 0;
  for (const auto& t : tenants_) {
    if (!t->done && t->next_ref == t->trace.size()) {
      ++outcome_.reports_unwritten;
    }
  }
}

void ServiceLoop::WriteIoReport() {
  // Written only when IO was ever disturbed: a zero-fault run's output tree
  // must stay byte-for-byte what the pre-seam service produced.
  const std::vector<TraceEvent> events = io_tracer_.Snapshot();
  const Cycles degraded_total =
      degraded_cycles_ + (degraded_ ? service_clock_ - degraded_since_ : 0);
  if (io_stats_.retries == 0 && io_stats_.giveups == 0 && degraded_total == 0 &&
      events.empty()) {
    return;
  }
  char buf[96];
  std::string text = "== durable io ==\n";
  std::snprintf(buf, sizeof(buf), "io_retries       %" PRIu64 "\n", io_stats_.retries);
  text += buf;
  std::snprintf(buf, sizeof(buf), "io_giveups       %" PRIu64 "\n", io_stats_.giveups);
  text += buf;
  std::snprintf(buf, sizeof(buf), "degraded_cycles  %" PRIu64 "\n", degraded_total);
  text += buf;
  std::snprintf(buf, sizeof(buf), "degraded_at_exit %d\n", degraded_ ? 1 : 0);
  text += buf;
  // Best effort on a possibly-still-broken disk: the report is diagnostic,
  // never part of the byte-identity contract (the soak diffs exclude it).
  (void)WriteFileAtomic(&io_, config_.out_dir + "/IO.txt", text);
  if (!events.empty()) {
    (void)WriteFileAtomic(&io_, config_.out_dir + "/IO.events.jsonl", EventsToJsonl(events));
  }
}

Expected<ServeOutcome, SnapshotError> ServiceLoop::Run() {
  if (!SpecIsPagedLinear(spec_)) {
    return MakeUnexpected(SnapshotError{
        SnapshotErrorKind::kBadValue,
        "service mode checkpoints the paged linear family only; pick a linear "
        "name space with page units"});
  }
  if (auto created = io_.CreateDirs(config_.out_dir); !created.has_value()) {
    return MakeUnexpected(IoError("cannot create out dir " + config_.out_dir + ": " +
                                  created.error().Describe()));
  }

  // Startup (recovery + first admission) has no state worth limping along
  // with: an unreadable store or spool stays an environment error and the
  // supervisor restarts us.  Degraded mode begins once tenants exist.
  auto recovered = store_.Recover();
  if (!recovered.has_value()) {
    return MakeUnexpected(recovered.error());
  }
  for (const auto& record : recovered->quarantined) {
    outcome_.quarantined.push_back(record.file + ": " + record.error.Describe());
  }
  RestoreCut(&recovered.value());

  if (auto status = AdmitTenants(); !status.has_value()) {
    return MakeUnexpected(status.error());
  }

  while (true) {
    // Steppable: simulation still in progress.  A completed tenant whose
    // report is stuck behind degraded IO is NOT steppable — it holds no
    // concurrency slot and is retried by the flush path, not the scheduler.
    std::vector<Tenant*> steppable;
    for (const auto& t : tenants_) {
      if (!t->done && t->next_ref < t->trace.size()) {
        steppable.push_back(t.get());
      }
    }
    if (steppable.empty()) {
      break;
    }
    DecideConcurrency(steppable);
    const std::size_t active = std::min(concurrency_, steppable.size());
    const bool concurrent_round = lanes_ > 1 && active > 1;
    if (concurrent_round) {
      // Each active tenant is one cell; a cell touches only its own tenant,
      // so every trajectory is bit-identical to the serial round.
      runner_.ForEach(active, [&](std::size_t i) { StepSlice(steppable[i]); });
    }
    bool force_flush = false;
    for (std::size_t i = 0; i < active; ++i) {
      Tenant* t = steppable[i];
      if (concurrent_round) {
        ReplayFeed(t);
      } else {
        RunSlice(t);
      }
      if (t->next_ref == t->trace.size()) {
        // Simulation complete.  Fold the metrics into the aggregate NOW
        // (exactly once — this branch cannot re-fire for a tenant), so the
        // very cut that records next_ref == size also carries its metrics;
        // the report write and the done flag belong to the flush path.
        VmReport report = t->vm->Snapshot();
        report.label = spec_.label + " / " + t->trace.label;
        MetricsRegistry metrics;
        FillVmMetrics(report, &metrics);
        MergeRegistryInto(&aggregate_, metrics);
        ++outcome_.tenants_completed;
        force_flush = true;
      }
    }
    const bool cadence =
        config_.checkpoint_every > 0 &&
        service_clock_ - last_flush_attempt_clock_ >= config_.checkpoint_every;
    if (force_flush || cadence) {
      if (AttemptFlush() && config_.stop_after_commits >= 0 &&
          outcome_.commits >= static_cast<std::uint64_t>(config_.stop_after_commits)) {
        // Abandon mid-run without flushing anything further — the on-disk
        // state is exactly what a hard kill at this instant leaves behind.
        FillIoOutcome();
        return outcome_;
      }
      if (io_.halted()) {
        return MakeUnexpected(IoError("durable IO halted by a simulated crash"));
      }
    }
    if (config_.rescan_spool) {
      if (auto status = AdmitTenants(); !status.has_value()) {
        return MakeUnexpected(status.error());
      }
    }
  }

  // Every tenant has been stepped to completion; what remains is durable
  // publication.  Re-attempt a bounded number of times (each attempt burns
  // ops, so a transient fault window traversed here heals), then exit —
  // degraded but alive — if IO stays down.
  bool flushed = false;
  const int attempts = std::max(1, config_.final_flush_attempts);
  for (int attempt = 0; attempt < attempts && !flushed; ++attempt) {
    if (io_.halted()) {
      return MakeUnexpected(IoError("durable IO halted by a simulated crash"));
    }
    flushed = tenants_.empty() || AttemptFlush();
    if (flushed) {
      if (auto status = WriteServiceReport(); !status.has_value()) {
        NoteIoFailure(status.error());
        flushed = false;
      } else if (degraded_) {
        // The flush path had nothing pending (no tenants) but the service
        // report itself just proved IO healed.
        NoteIoRecovered();
      }
    }
  }
  if (io_.halted()) {
    return MakeUnexpected(IoError("durable IO halted by a simulated crash"));
  }
  FillIoOutcome();
  WriteIoReport();
  outcome_.finished = true;
  return outcome_;
}

}  // namespace dsa
