#include "src/vm/paged_vm.h"

#include <algorithm>
#include <bit>

#include "src/core/assert.h"
#include "src/core/snapshot.h"
#include "src/paging/fetch.h"

namespace dsa {

namespace {

std::unique_ptr<FetchPolicy> MakeFetchPolicy(const PagedVmConfig& config,
                                             AdviceRegistry* advice,
                                             std::uint64_t page_count) {
  switch (config.fetch) {
    case FetchStrategyKind::kDemand:
      return std::make_unique<DemandFetch>();
    case FetchStrategyKind::kPrefetch:
      return std::make_unique<PrefetchFetch>(config.prefetch_window, page_count);
    case FetchStrategyKind::kAdvised:
      DSA_ASSERT(advice != nullptr, "advised fetch requires accept_advice");
      return std::make_unique<AdvisedFetch>(advice, config.advice_fetch_budget);
  }
  DSA_ASSERT(false, "unknown fetch strategy");
  return nullptr;
}

}  // namespace

PagedLinearVm::PagedLinearVm(PagedVmConfig config)
    : config_(std::move(config)),
      names_(config_.address_bits),
      page_shift_(std::countr_zero(config_.page_words)) {
  DSA_ASSERT(std::has_single_bit(config_.page_words), "page size must be a power of two");
  DSA_ASSERT(config_.core_words % config_.page_words == 0,
             "core must hold an integral number of page frames");
  Reset();
}

void PagedLinearVm::Reset() {
  clock_.Reset();
  backing_ = std::make_unique<BackingStore>(config_.backing_level);
  channel_ = std::make_unique<TransferChannel>();
  // Always attached: zero rates draw nothing and change nothing.
  injector_ = std::make_unique<FaultInjector>(config_.fault_injection);
  advice_ = config_.accept_advice ? std::make_unique<AdviceRegistry>() : nullptr;

  const std::size_t frames = static_cast<std::size_t>(config_.core_words / config_.page_words);
  const std::uint64_t page_count =
      (names_.MaxExtent() + config_.page_words - 1) / config_.page_words;

  PagerConfig pager_config;
  pager_config.page_words = config_.page_words;
  pager_config.frames = frames;
  pager_config.keep_one_frame_vacant = config_.keep_one_frame_vacant;

  auto replacement =
      MakeReplacementPolicy(config_.replacement, config_.replacement_options);
  auto fetch = MakeFetchPolicy(config_, advice_.get(), page_count);
  pager_ = std::make_unique<Pager>(pager_config, backing_.get(), channel_.get(),
                                   std::move(replacement), std::move(fetch), advice_.get(),
                                   injector_.get());
  pager_->SetTracer(config_.tracer);

  switch (config_.mapper) {
    case PagedMapperKind::kPageTable: {
      auto mapper = std::make_unique<PageTableMapper>(
          config_.page_words, static_cast<std::size_t>(page_count), config_.tlb_entries,
          config_.mapping_costs);
      PageTableMapper* raw = mapper.get();
      pager_->SetResidencyCallbacks(
          [raw](PageId page, FrameId frame) { raw->Map(page, frame); },
          [raw](PageId page, FrameId frame) {
            (void)frame;
            raw->Unmap(page);
          });
      mapper_ = std::move(mapper);
      break;
    }
    case PagedMapperKind::kAtlasRegisters: {
      auto mapper = std::make_unique<AtlasPageRegisterMapper>(config_.page_words, frames,
                                                              config_.mapping_costs);
      AtlasPageRegisterMapper* raw = mapper.get();
      pager_->SetResidencyCallbacks(
          [raw](PageId page, FrameId frame) { raw->LoadFrame(frame, page); },
          [raw](PageId page, FrameId frame) {
            (void)page;
            raw->ClearFrame(frame);
          });
      mapper_ = std::move(mapper);
      break;
    }
  }

  space_time_ = SpaceTimeAccumulator{};
  references_ = 0;
  bounds_violations_ = 0;
  compute_cycles_ = 0;
  translation_cycles_ = 0;
  wait_cycles_ = 0;
  peak_resident_ = 0;
}

TranslationResult PagedLinearVm::Translate(const Reference& ref) {
  if (config_.mapper == PagedMapperKind::kAtlasRegisters) {
    return static_cast<AtlasPageRegisterMapper&>(*mapper_).Translate(ref.name, ref.kind,
                                                                     clock_.now());
  }
  return static_cast<PageTableMapper&>(*mapper_).Translate(ref.name, ref.kind, clock_.now());
}

Cycles PagedLinearVm::Step(const Reference& ref) {
  ++references_;

  // Instruction execution.
  clock_.Advance(config_.cycles_per_reference);
  compute_cycles_ += config_.cycles_per_reference;
  // Residency changes only inside pager_->Access, and only when it faults or
  // fails, so one read serves the whole hit path.
  WordCount resident = pager_->ResidentWords();
  space_time_.Accumulate(resident, config_.cycles_per_reference, /*waiting=*/false);

  if (!names_.Contains(ref.name)) {
    ++bounds_violations_;
    return 0;
  }

  // First translation attempt.  A miss is the invalid-access trap that
  // triggers the fetch strategy.
  TranslationResult first = Translate(ref);
  Cycles map_cost = first.has_value() ? first->cost : first.error().detection_cost;
  translation_cycles_ += map_cost;
  clock_.Advance(map_cost);
  space_time_.Accumulate(resident, map_cost, /*waiting=*/false);

  if (first.has_value()) {
    // The hit path: the translation names the frame, so the pager only
    // refreshes its sensors and recency there.  The mapper maps exactly the
    // pages the pager holds (the residency callbacks keep them in step, and
    // LoadSections checks a restored pair), so the frame holds the page.
    pager_->AccessResident(PageOf(ref.name), FrameOf(first->address), ref.kind, clock_.now());
    peak_resident_ = std::max(peak_resident_, resident);
    return 0;
  }
  const Fault& fault = first.error();
  if (fault.kind == FaultKind::kBoundsViolation || fault.kind == FaultKind::kInvalidName) {
    ++bounds_violations_;
    return 0;
  }
  DSA_ASSERT(fault.kind == FaultKind::kPageNotPresent, "unexpected fault kind in paged VM");

  const PageAccessResult result = pager_->Access(PageOf(ref.name), ref.kind, clock_.now());
  if (!result.has_value()) {
    // Unrecoverable access: the program stalled through every retry and got
    // nothing.  It resumes without the page (the reference is abandoned).
    const Cycles lost_wait = result.error().wait_cycles;
    space_time_.Accumulate(pager_->ResidentWords(), lost_wait, /*waiting=*/true);
    clock_.Advance(lost_wait);
    wait_cycles_ += lost_wait;
    peak_resident_ = std::max(peak_resident_, pager_->ResidentWords());
    return lost_wait;
  }
  const PageAccessOutcome& outcome = *result;
  // A page the mapper does not map is not resident: the pager must fault.
  DSA_ASSERT(outcome.faulted, "translation missed a page the pager holds resident");
  // The program occupies storage while awaiting the page — the waiting
  // shading of Fig. 3.  Residency during the wait includes the newly loaded
  // page(s).
  resident = pager_->ResidentWords();
  space_time_.Accumulate(resident, outcome.wait_cycles, /*waiting=*/true);
  clock_.Advance(outcome.wait_cycles);
  wait_cycles_ += outcome.wait_cycles;

  // Retry the translation after the trap handler completes.
  TranslationResult retry = Translate(ref);
  DSA_ASSERT(retry.has_value(), "translation must succeed after the page is loaded");
  translation_cycles_ += retry->cost;
  clock_.Advance(retry->cost);
  space_time_.Accumulate(resident, retry->cost, /*waiting=*/false);

  peak_resident_ = std::max(peak_resident_, resident);
  return outcome.wait_cycles;
}

VmReport PagedLinearVm::Run(const ReferenceTrace& trace) {
  Reset();
  for (const Reference& ref : trace.refs) {
    Step(ref);
  }
  VmReport report = Snapshot();
  report.label = config_.label + " / " + trace.label;
  return report;
}

VmReport PagedLinearVm::Snapshot() const {
  VmReport report;
  report.label = config_.label;
  report.references = references_;
  report.faults = pager_->stats().faults;
  report.bounds_violations = bounds_violations_;
  report.writebacks = pager_->stats().writebacks;
  report.total_cycles = clock_.now();
  report.compute_cycles = compute_cycles_;
  report.translation_cycles = translation_cycles_;
  report.wait_cycles = wait_cycles_;
  report.space_time = space_time_.product();
  report.peak_resident_words = peak_resident_;
  report.reliability = pager_->stats().reliability;
  if (config_.mapper == PagedMapperKind::kPageTable && config_.tlb_entries > 0) {
    report.tlb_hit_rate = static_cast<const PageTableMapper&>(*mapper_).tlb().HitRate();
  }
  return report;
}

Characteristics PagedLinearVm::characteristics() const {
  Characteristics c;
  c.name_space = NameSpaceKind::kLinear;
  c.predictive = config_.accept_advice ? PredictiveInformation::kAccepted
                                       : PredictiveInformation::kNotAccepted;
  c.prediction_source =
      config_.accept_advice ? PredictionSource::kProgrammer : PredictionSource::kNone;
  c.contiguity = ArtificialContiguity::kProvided;
  c.unit = config_.reported_unit;
  return c;
}

void PagedLinearVm::SaveSections(SectionedSnapshotWriter* w) const {
  w->Begin("vm.clock")->U64(clock_.now());
  backing_->SaveState(w->Begin("vm.backing"));
  channel_->SaveState(w->Begin("vm.channel"));
  SaveRngState(w->Begin("vm.rng"), injector_->rng_state());
  {
    SnapshotWriter* s = w->Begin("vm.advice");
    s->Bool(advice_ != nullptr);
    if (advice_ != nullptr) {
      advice_->SaveState(s);
    }
  }
  switch (config_.mapper) {
    case PagedMapperKind::kPageTable:
      static_cast<const PageTableMapper&>(*mapper_).SaveSections(w);
      break;
    case PagedMapperKind::kAtlasRegisters:
      // The atlas map is one register per frame — already small; a single
      // head section keeps it content-addressed without chunking.
      static_cast<const AtlasPageRegisterMapper&>(*mapper_).SaveState(w->Begin("map.head"));
      break;
  }
  pager_->SaveState(w->Begin("vm.pager"));
  {
    SnapshotWriter* s = w->Begin("vm.tally");
    s->F64(space_time_.product().active);
    s->F64(space_time_.product().waiting);
    s->U64(references_);
    s->U64(bounds_violations_);
    s->U64(compute_cycles_);
    s->U64(translation_cycles_);
    s->U64(wait_cycles_);
    s->U64(peak_resident_);
  }
}

void PagedLinearVm::LoadSections(SectionSource* src) {
  Cycles now = 0;
  {
    SnapshotReader r = src->Open("vm.clock");
    now = r.U64();
    src->Close(&r, "vm.clock");
  }
  {
    SnapshotReader r = src->Open("vm.backing");
    backing_->LoadState(&r);
    src->Close(&r, "vm.backing");
  }
  {
    SnapshotReader r = src->Open("vm.channel");
    channel_->LoadState(&r);
    src->Close(&r, "vm.channel");
  }
  RngState injector_rng{};
  {
    SnapshotReader r = src->Open("vm.rng");
    injector_rng = LoadRngState(&r);
    src->Close(&r, "vm.rng");
  }
  {
    SnapshotReader r = src->Open("vm.advice");
    const bool has_advice = r.Bool();
    if (r.ok() && has_advice != (advice_ != nullptr)) {
      r.Fail(SnapshotErrorKind::kBadValue, "advice registry presence disagrees with config");
    }
    if (r.ok() && advice_ != nullptr) {
      advice_->LoadState(&r);
    }
    src->Close(&r, "vm.advice");
  }
  switch (config_.mapper) {
    case PagedMapperKind::kPageTable:
      static_cast<PageTableMapper&>(*mapper_).LoadSections(src);
      break;
    case PagedMapperKind::kAtlasRegisters: {
      SnapshotReader r = src->Open("map.head");
      static_cast<AtlasPageRegisterMapper&>(*mapper_).LoadState(&r);
      src->Close(&r, "map.head");
      break;
    }
  }
  {
    SnapshotReader r = src->Open("vm.pager");
    pager_->LoadState(&r);
    src->Close(&r, "vm.pager");
  }
  if (src->ok()) {
    // Step takes a translation hit's frame as the page's frame and a miss as
    // a fault, so the restored map must name exactly the pages the restored
    // pager holds, each in its frame.
    const ResidentFrameFn frame_of = [this](PageId page) { return pager_->FrameOf(page); };
    const std::size_t resident = pager_->frames().occupied_count();
    const bool agree =
        config_.mapper == PagedMapperKind::kAtlasRegisters
            ? static_cast<const AtlasPageRegisterMapper&>(*mapper_).AgreesWith(resident, frame_of)
            : static_cast<const PageTableMapper&>(*mapper_).AgreesWith(resident, frame_of);
    if (!agree) {
      src->Fail(SnapshotErrorKind::kBadValue, "the map disagrees with the pager's residency");
    }
  }
  SpaceTime space_time;
  std::uint64_t references = 0, bounds_violations = 0;
  Cycles compute_cycles = 0, translation_cycles = 0, wait_cycles = 0;
  WordCount peak_resident = 0;
  {
    SnapshotReader r = src->Open("vm.tally");
    space_time.active = r.F64();
    space_time.waiting = r.F64();
    references = r.U64();
    bounds_violations = r.U64();
    compute_cycles = r.U64();
    translation_cycles = r.U64();
    wait_cycles = r.U64();
    peak_resident = r.U64();
    src->Close(&r, "vm.tally");
  }
  if (!src->ok()) {
    return;
  }
  injector_->RestoreRngState(injector_rng);
  clock_.Reset();
  clock_.AdvanceTo(now);
  space_time_.Restore(space_time);
  references_ = references;
  bounds_violations_ = bounds_violations;
  compute_cycles_ = compute_cycles;
  translation_cycles_ = translation_cycles;
  wait_cycles_ = wait_cycles;
  peak_resident_ = peak_resident;
}

void PagedLinearVm::AdviseWillNeed(Name name) { pager_->AdviseWillNeed(PageOf(name)); }

void PagedLinearVm::AdviseWontNeed(Name name) { pager_->AdviseWontNeed(PageOf(name)); }

void PagedLinearVm::AdviseKeepResident(Name name) { pager_->AdviseKeepResident(PageOf(name)); }

}  // namespace dsa
