// SystemBuilder: turns a point in the paper's four-axis design space into a
// runnable storage allocation system.
//
// "The selection of a particular combination of the four basic
// characteristics ... provides a preliminary system specification.  No
// detailed specification ... would however be complete without a description
// of the basic strategies it incorporates."  A SystemSpec is therefore a
// Characteristics value plus the three strategies (fetch, placement,
// replacement) and capacity/timing parameters; Build() maps it to one of the
// three architecture families the library implements.

#ifndef SRC_VM_SYSTEM_BUILDER_H_
#define SRC_VM_SYSTEM_BUILDER_H_

#include <memory>
#include <string>

#include "src/core/characteristics.h"
#include "src/core/strategy.h"
#include "src/mem/fault_injection.h"
#include "src/mem/storage_level.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system.h"

namespace dsa {

class EventTracer;

struct SystemSpec {
  std::string label{"custom-system"};
  Characteristics characteristics{};

  // Strategies (each applies where the architecture uses it).
  FetchStrategyKind fetch{FetchStrategyKind::kDemand};
  PlacementStrategyKind placement{PlacementStrategyKind::kBestFit};
  ReplacementStrategyKind replacement{ReplacementStrategyKind::kLru};

  // Capacities and timing.
  WordCount core_words{16384};
  WordCount page_words{512};         // uniform/mixed units
  WordCount max_segment_extent{1024};  // variable units
  WordCount workload_segment_words{512};
  StorageLevel backing_level{MakeDrumLevel("drum", 1u << 20, /*word_time=*/4,
                                           /*rotational_delay=*/6000)};
  std::size_t tlb_entries{8};
  Cycles cycles_per_reference{1};

  // Storage fault model for the paged families (zero rates: fault-free).
  // The segment-unit family has no paging channel to inject into and
  // ignores it.
  FaultInjectorConfig fault_injection{};

  // Optional shared event tracer (not owned), threaded into whichever
  // family Build() selects.  Null: no tracing.
  EventTracer* tracer{nullptr};
};

// Builds the system family implied by the characteristics:
//   * linear + uniform pages            -> PagedLinearVm
//   * linearly segmented + pages/mixed  -> PagedSegmentedVm (Fig. 4)
//   * any segmented + variable blocks   -> SegmentedVm (segment = unit)
//   * linear + variable blocks is rejected: with no mapping device and no
//     segments, variable-unit allocation has nothing to relocate by — the
//     combination the paper notes was never usefully built.
//   * variable blocks with a whole-allocator placement (buddy, rice-chain,
//     segregated-fit, slab-pool) is rejected: SegmentedVm places segments
//     with a PlacementPolicy, which those designs are not.
std::unique_ptr<StorageAllocationSystem> BuildSystem(const SystemSpec& spec);

// True if Build() accepts this point of the design space.
bool SpecIsBuildable(const SystemSpec& spec);

// True when Build() would select the PagedLinearVm family (a linear name
// space with non-variable units) — the family whose complete state is
// checkpointable, which is what service mode (src/serve) requires.
bool SpecIsPagedLinear(const SystemSpec& spec);

// The PagedVmConfig Build() derives for a paged-linear spec.  Exposed so
// the service loop can construct the concrete PagedLinearVm (rather than
// the type-erased StorageAllocationSystem) and reach its
// SaveSections/LoadSections.  The spec must satisfy SpecIsPagedLinear.
PagedVmConfig PagedConfigFromSpec(const SystemSpec& spec);

}  // namespace dsa

#endif  // SRC_VM_SYSTEM_BUILDER_H_
