#include "src/vm/segmented_vm.h"

#include <algorithm>

#include "src/core/assert.h"

namespace dsa {

namespace {

// The most slices Run sizes the slice table for up front.  A trace that
// names more grows it by doubling, so a long trace over a few slices spread
// across the name space does not pay for a table sized by its length.
constexpr std::uint64_t kPresizedSlices = std::uint64_t{1} << 12;

}  // namespace

SegmentedVm::SegmentedVm(SegmentedVmConfig config)
    : config_(std::move(config)), descriptor_cache_(config_.descriptor_cache_entries) {
  DSA_ASSERT(config_.workload_segment_words > 0, "workload segment size must be positive");
  DSA_ASSERT(config_.workload_segment_words <= config_.max_segment_extent,
             "workload segments exceed the machine's segment limit");
  Reset(0);
}

void SegmentedVm::Reset(std::size_t slices) {
  clock_.Reset();
  backing_ = std::make_unique<BackingStore>(config_.backing_level);
  channel_ = std::make_unique<TransferChannel>();

  SegmentManagerConfig mgr;
  mgr.core_words = config_.core_words;
  mgr.max_segment_extent = config_.max_segment_extent;
  mgr.placement = config_.placement;
  mgr.replacement = config_.replacement;
  mgr.packing = config_.packing;
  manager_ = std::make_unique<SegmentManager>(mgr, backing_.get(), channel_.get());
  manager_->SetTracer(config_.tracer);

  slices_ = FlatIndex<SegmentId>(slices);
  descriptor_cache_ = AssociativeMemory(config_.descriptor_cache_entries);
  space_time_ = SpaceTimeAccumulator{};
  references_ = 0;
  bounds_violations_ = 0;
  compute_cycles_ = 0;
  translation_cycles_ = 0;
  wait_cycles_ = 0;
  peak_resident_ = 0;
}

SegmentId SegmentedVm::SegmentFor(Name name) {
  const std::uint64_t slice = name.value / config_.workload_segment_words;
  if (const std::optional<SegmentId> segment = slices_.Find(slice)) {
    return *segment;
  }
  if (slices_.size() == slices_.max_size()) {
    // Full: a trace naming more than kPresizedSlices slices, advice outside
    // a Run, or the last address, which NameExtent cannot count.
    FlatIndex<SegmentId> larger(2 * slices_.max_size() + 1);
    slices_.ForEach([&larger](std::uint64_t key, SegmentId id) { larger.Insert(key, id); });
    slices_ = std::move(larger);
  }
  const SegmentId segment = manager_->Create(config_.workload_segment_words);
  slices_.Insert(slice, segment);
  return segment;
}

VmReport SegmentedVm::Run(const ReferenceTrace& trace) {
  // A trace touches at most one slice per reference, and no more slices than
  // its name extent spans.
  const WordCount extent = trace.NameExtent();
  const std::uint64_t spanned = extent / config_.workload_segment_words +
                                (extent % config_.workload_segment_words != 0 ? 1 : 0);
  Reset(static_cast<std::size_t>(
      std::min<std::uint64_t>({trace.refs.size(), spanned, kPresizedSlices})));
  for (const Reference& ref : trace.refs) {
    ++references_;
    clock_.Advance(config_.cycles_per_reference);
    compute_cycles_ += config_.cycles_per_reference;
    space_time_.Accumulate(manager_->ResidentWords(), config_.cycles_per_reference,
                           /*waiting=*/false);

    const SegmentId segment = SegmentFor(ref.name);
    const WordCount offset = ref.name.value % config_.workload_segment_words;

    // Descriptor lookup: PRT reference from core unless cached.
    Cycles map_cost = 0;
    if (descriptor_cache_.capacity() > 0) {
      map_cost += config_.mapping_costs.associative_search;
      if (!descriptor_cache_.Lookup(segment.value, clock_.now())) {
        map_cost += config_.mapping_costs.core_reference;
        descriptor_cache_.Insert(segment.value, /*value=*/1, clock_.now());
      }
    } else {
      map_cost += config_.mapping_costs.core_reference;
    }
    translation_cycles_ += map_cost;
    clock_.Advance(map_cost);
    space_time_.Accumulate(manager_->ResidentWords(), map_cost, /*waiting=*/false);

    const auto outcome = manager_->Access(segment, offset, ref.kind, clock_.now());
    if (!outcome.has_value()) {
      DSA_ASSERT(outcome.error().kind == FaultKind::kBoundsViolation,
                 "a workload segment access faulted other than on bounds");
      ++bounds_violations_;
      continue;
    }
    if (outcome->segment_fault) {
      space_time_.Accumulate(manager_->ResidentWords(), outcome->wait_cycles, /*waiting=*/true);
      clock_.Advance(outcome->wait_cycles);
      wait_cycles_ += outcome->wait_cycles;
    }
    peak_resident_ = std::max(peak_resident_, manager_->ResidentWords());
  }

  VmReport report;
  report.label = config_.label + " / " + trace.label;
  report.references = references_;
  report.faults = manager_->stats().segment_faults;
  report.bounds_violations = bounds_violations_;
  report.writebacks = manager_->stats().writebacks;
  report.total_cycles = clock_.now();
  report.compute_cycles = compute_cycles_;
  report.translation_cycles = translation_cycles_;
  report.wait_cycles = wait_cycles_;
  report.space_time = space_time_.product();
  report.peak_resident_words = peak_resident_;
  if (config_.descriptor_cache_entries > 0) {
    report.tlb_hit_rate = descriptor_cache_.HitRate();
  }
  return report;
}

Characteristics SegmentedVm::characteristics() const {
  Characteristics c;
  c.name_space = config_.symbolic_names ? NameSpaceKind::kSymbolicallySegmented
                                        : NameSpaceKind::kLinearlySegmented;
  c.predictive = config_.accept_advice ? PredictiveInformation::kAccepted
                                       : PredictiveInformation::kNotAccepted;
  c.prediction_source =
      config_.accept_advice ? PredictionSource::kProgrammer : PredictionSource::kNone;
  c.contiguity = ArtificialContiguity::kNone;  // segments are address-contiguous in core
  c.unit = AllocationUnit::kVariableBlocks;
  return c;
}

void SegmentedVm::AdviseWontNeed(Name name) {
  if (config_.accept_advice) {
    manager_->AdviseWontNeed(SegmentFor(name), clock_.now());
  }
}

Cycles SegmentedVm::AdviseWillNeed(Name name) {
  if (!config_.accept_advice) {
    return 0;
  }
  return manager_->AdviseWillNeed(SegmentFor(name), clock_.now());
}

}  // namespace dsa
