#include "src/vm/system_builder.h"

#include "src/alloc/placement.h"
#include "src/core/assert.h"
#include "src/vm/paged_segmented_vm.h"
#include "src/vm/paged_vm.h"
#include "src/vm/segmented_vm.h"

namespace dsa {

namespace {

SegmentReplacementKind SegmentReplacementFor(ReplacementStrategyKind kind) {
  switch (kind) {
    case ReplacementStrategyKind::kLru:
      return SegmentReplacementKind::kLru;
    case ReplacementStrategyKind::kClock:
      return SegmentReplacementKind::kCyclic;
    default:
      // Segment-unit systems of the era offered cyclic or second-chance
      // sweeps; map anything else onto the Rice variant.
      return SegmentReplacementKind::kRiceSecondChance;
  }
}

}  // namespace

bool SpecIsBuildable(const SystemSpec& spec) {
  const Characteristics& c = spec.characteristics;
  if (c.name_space == NameSpaceKind::kLinear && c.unit == AllocationUnit::kVariableBlocks) {
    return false;
  }
  if (c.unit == AllocationUnit::kVariableBlocks && !IsPlacementPolicyKind(spec.placement)) {
    // The segmented family places segments with a PlacementPolicy over one
    // free list; the whole-allocator designs have no such policy.
    return false;
  }
  if (c.name_space == NameSpaceKind::kSymbolicallySegmented &&
      c.unit != AllocationUnit::kVariableBlocks) {
    // Symbolic segments over pages would be MULTICS-with-symbols; the
    // hardware surveyed implements it with linear segment names underneath,
    // which is what PagedSegmentedVm models.  Treat as buildable via that
    // family.
    return true;
  }
  return true;
}

bool SpecIsPagedLinear(const SystemSpec& spec) {
  return SpecIsBuildable(spec) &&
         spec.characteristics.name_space == NameSpaceKind::kLinear &&
         spec.characteristics.unit != AllocationUnit::kVariableBlocks;
}

PagedVmConfig PagedConfigFromSpec(const SystemSpec& spec) {
  DSA_ASSERT(SpecIsPagedLinear(spec), "spec does not select the paged linear family");
  const bool advice = spec.characteristics.predictive == PredictiveInformation::kAccepted;
  if (spec.fetch == FetchStrategyKind::kAdvised) {
    DSA_ASSERT(advice, "advised fetch requires the predictive characteristic");
  }
  PagedVmConfig config;
  config.label = spec.label;
  config.core_words = spec.core_words;
  config.page_words = spec.page_words;
  config.backing_level = spec.backing_level;
  config.tlb_entries = spec.tlb_entries;
  config.replacement = spec.replacement;
  config.fetch = spec.fetch;
  config.accept_advice = advice;
  config.cycles_per_reference = spec.cycles_per_reference;
  config.reported_unit = spec.characteristics.unit;
  config.fault_injection = spec.fault_injection;
  config.tracer = spec.tracer;
  return config;
}

std::unique_ptr<StorageAllocationSystem> BuildSystem(const SystemSpec& spec) {
  DSA_ASSERT(SpecIsBuildable(spec),
             "a linear name space with variable allocation units has no relocation handle, "
             "and segments are placed only by a placement policy; "
             "pick another point of the design space");
  DSA_ASSERT(spec.page_words > 0, "page_words must be positive");
  DSA_ASSERT(spec.core_words >= spec.page_words,
             "core_words below one page leaves zero frames");
  DSA_ASSERT(spec.cycles_per_reference > 0, "cycles_per_reference must be positive");
  const Characteristics& c = spec.characteristics;
  const bool advice = c.predictive == PredictiveInformation::kAccepted;

  if (c.unit == AllocationUnit::kVariableBlocks) {
    // Segment = unit of allocation (B5000/Rice family).
    SegmentedVmConfig config;
    config.label = spec.label;
    config.core_words = spec.core_words;
    config.max_segment_extent = spec.max_segment_extent;
    config.workload_segment_words = spec.workload_segment_words;
    config.backing_level = spec.backing_level;
    config.placement = spec.placement;
    config.replacement = SegmentReplacementFor(spec.replacement);
    config.symbolic_names = c.name_space == NameSpaceKind::kSymbolicallySegmented;
    config.descriptor_cache_entries = spec.tlb_entries;
    config.accept_advice = advice;
    config.cycles_per_reference = spec.cycles_per_reference;
    config.tracer = spec.tracer;
    return std::make_unique<SegmentedVm>(config);
  }

  if (c.name_space == NameSpaceKind::kLinear) {
    return std::make_unique<PagedLinearVm>(PagedConfigFromSpec(spec));
  }

  // Segmented name space over paged storage: the Fig. 4 family.
  PagedSegmentedVmConfig config;
  config.label = spec.label;
  config.core_words = spec.core_words;
  config.page_words = spec.page_words;
  config.backing_level = spec.backing_level;
  config.tlb_entries = spec.tlb_entries;
  config.replacement = spec.replacement;
  config.fetch = spec.fetch;
  config.accept_advice = advice;
  config.workload_segment_words = spec.workload_segment_words;
  config.cycles_per_reference = spec.cycles_per_reference;
  config.reported_unit = c.unit;
  config.fault_injection = spec.fault_injection;
  config.tracer = spec.tracer;
  return std::make_unique<PagedSegmentedVm>(config);
}

}  // namespace dsa
