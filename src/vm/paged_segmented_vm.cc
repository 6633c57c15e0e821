#include "src/vm/paged_segmented_vm.h"

#include <algorithm>

#include "src/core/assert.h"
#include "src/paging/fetch.h"

namespace dsa {

PagedSegmentedVm::PagedSegmentedVm(PagedSegmentedVmConfig config) : config_(std::move(config)) {
  DSA_ASSERT(config_.core_words % config_.page_words == 0,
             "core must hold an integral number of page frames");
  DSA_ASSERT(config_.workload_segment_words <= (WordCount{1} << config_.offset_bits),
             "workload segments exceed the maximum segment extent");
  Reset();
}

void PagedSegmentedVm::Reset() {
  clock_.Reset();
  backing_ = std::make_unique<BackingStore>(config_.backing_level);
  channel_ = std::make_unique<TransferChannel>();
  // Always attached: zero rates draw nothing and change nothing.
  injector_ = std::make_unique<FaultInjector>(config_.fault_injection);
  advice_ = config_.accept_advice ? std::make_unique<AdviceRegistry>() : nullptr;
  defined_segments_.clear();

  mapper_ = std::make_unique<SegmentPageMapper>(config_.segment_bits, config_.offset_bits,
                                                config_.page_words, config_.tlb_entries,
                                                config_.mapping_costs,
                                                config_.dedicated_execute_register);

  PagerConfig pager_config;
  pager_config.page_words = config_.page_words;
  pager_config.frames = static_cast<std::size_t>(config_.core_words / config_.page_words);

  std::unique_ptr<FetchPolicy> fetch;
  switch (config_.fetch) {
    case FetchStrategyKind::kDemand:
      fetch = std::make_unique<DemandFetch>();
      break;
    case FetchStrategyKind::kPrefetch:
      // Lookahead within the segment: keys for consecutive pages of one
      // segment are consecutive integers, so the window stays in-segment for
      // all but the last page (the pager drops nonresident oddballs cheaply).
      fetch = std::make_unique<PrefetchFetch>(config_.prefetch_window,
                                              std::uint64_t{1} << 62);
      break;
    case FetchStrategyKind::kAdvised:
      DSA_ASSERT(config_.accept_advice, "advised fetch requires accept_advice");
      fetch = std::make_unique<AdvisedFetch>(advice_.get(), config_.advice_fetch_budget);
      break;
  }

  auto replacement = MakeReplacementPolicy(config_.replacement, config_.replacement_options);
  pager_ = std::make_unique<Pager>(pager_config, backing_.get(), channel_.get(),
                                   std::move(replacement), std::move(fetch), advice_.get(),
                                   injector_.get());
  pager_->SetTracer(config_.tracer);

  SegmentPageMapper* raw = mapper_.get();
  pager_->SetResidencyCallbacks(
      [raw](PageId key, FrameId frame) {
        raw->MapPage(SegmentId{key.value >> 32}, PageId{key.value & 0xffffffffu}, frame);
      },
      [raw](PageId key, FrameId frame) {
        (void)frame;
        raw->UnmapPage(SegmentId{key.value >> 32}, PageId{key.value & 0xffffffffu});
      });

  // Speculative fetches must stay inside a defined segment's page table.
  const WordCount seg_pages =
      (config_.workload_segment_words + config_.page_words - 1) / config_.page_words;
  const auto* defined = &defined_segments_;
  pager_->SetPageValidator([seg_pages, defined](PageId key) {
    const std::uint64_t segment = key.value >> 32;
    const std::uint64_t page = key.value & 0xffffffffu;
    return defined->contains(segment) && page < seg_pages;
  });

  space_time_ = SpaceTimeAccumulator{};
  references_ = 0;
  bounds_violations_ = 0;
  compute_cycles_ = 0;
  translation_cycles_ = 0;
  wait_cycles_ = 0;
  peak_resident_ = 0;
}

SegmentedName PagedSegmentedVm::Slice(Name name) const {
  SegmentedName out;
  out.segment = SegmentId{name.value / config_.workload_segment_words};
  out.offset = name.value % config_.workload_segment_words;
  return out;
}

void PagedSegmentedVm::EnsureSegment(SegmentId segment) {
  if (defined_segments_.contains(segment.value)) {
    return;
  }
  DSA_ASSERT(segment.value < mapper_->max_segments(),
             "workload needs more segments than the name space provides");
  mapper_->DefineSegment(segment, config_.workload_segment_words);
  defined_segments_.insert(segment.value);
}

VmReport PagedSegmentedVm::Run(const ReferenceTrace& trace) {
  Reset();
  for (const Reference& ref : trace.refs) {
    ++references_;
    clock_.Advance(config_.cycles_per_reference);
    compute_cycles_ += config_.cycles_per_reference;
    // Residency changes only inside pager_->Access, and only when it faults
    // or fails, so one read serves the whole hit path.
    WordCount resident = pager_->ResidentWords();
    space_time_.Accumulate(resident, config_.cycles_per_reference, /*waiting=*/false);

    const SegmentedName split = Slice(ref.name);
    EnsureSegment(split.segment);

    TranslationResult first = mapper_->TranslateSegmented(split, ref.kind, clock_.now());
    Cycles map_cost = first.has_value() ? first->cost : first.error().detection_cost;
    translation_cycles_ += map_cost;
    clock_.Advance(map_cost);
    space_time_.Accumulate(resident, map_cost, /*waiting=*/false);

    if (!first.has_value()) {
      const Fault& fault = first.error();
      if (fault.kind == FaultKind::kBoundsViolation ||
          fault.kind == FaultKind::kInvalidSegment) {
        ++bounds_violations_;
        continue;
      }
      DSA_ASSERT(fault.kind == FaultKind::kPageNotPresent,
                 "unexpected fault kind in paged-segmented VM");
    }

    const PageAccessResult result = pager_->Access(PageKeyOf(split), ref.kind, clock_.now());
    if (!result.has_value()) {
      // Unrecoverable access: the stall was paid, the page never arrived,
      // and the reference is abandoned.
      const Cycles lost_wait = result.error().wait_cycles;
      space_time_.Accumulate(pager_->ResidentWords(), lost_wait, /*waiting=*/true);
      clock_.Advance(lost_wait);
      wait_cycles_ += lost_wait;
      peak_resident_ = std::max(peak_resident_, pager_->ResidentWords());
      continue;
    }
    const PageAccessOutcome& outcome = *result;
    if (outcome.faulted) {
      resident = pager_->ResidentWords();
      space_time_.Accumulate(resident, outcome.wait_cycles, /*waiting=*/true);
      clock_.Advance(outcome.wait_cycles);
      wait_cycles_ += outcome.wait_cycles;

      TranslationResult retry = mapper_->TranslateSegmented(split, ref.kind, clock_.now());
      DSA_ASSERT(retry.has_value(), "translation must succeed after the page is loaded");
      translation_cycles_ += retry->cost;
      clock_.Advance(retry->cost);
      space_time_.Accumulate(resident, retry->cost, /*waiting=*/false);
    }
    peak_resident_ = std::max(peak_resident_, resident);
  }

  VmReport report;
  report.label = config_.label + " / " + trace.label;
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
  if (config_.tlb_entries > 0) {
    report.tlb_hit_rate = mapper_->tlb().HitRate();
  }
  return report;
}

Characteristics PagedSegmentedVm::characteristics() const {
  Characteristics c;
  c.name_space = NameSpaceKind::kLinearlySegmented;
  c.predictive = config_.accept_advice ? PredictiveInformation::kAccepted
                                       : PredictiveInformation::kNotAccepted;
  c.prediction_source =
      config_.accept_advice ? PredictionSource::kProgrammer : PredictionSource::kNone;
  c.contiguity = ArtificialContiguity::kProvided;
  c.unit = config_.reported_unit;
  return c;
}

void PagedSegmentedVm::AdviseWillNeed(SegmentedName name) {
  EnsureSegment(name.segment);
  pager_->AdviseWillNeed(PageKeyOf(name));
}

void PagedSegmentedVm::AdviseWontNeed(SegmentedName name) {
  pager_->AdviseWontNeed(PageKeyOf(name));
}

void PagedSegmentedVm::AdviseKeepResident(SegmentedName name) {
  EnsureSegment(name.segment);
  pager_->AdviseKeepResident(PageKeyOf(name));
}

}  // namespace dsa
