// The segment-unit virtual memory system (B5000/Rice shape): a segmented
// name space, segments fetched whole on first reference, variable-unit
// allocation in core.
//
// To run the common linear reference traces, the system lays the linear
// workload out as consecutive segments of a fixed declared extent — the
// compiler's job on the real machines ("programs in the B5000 are segmented
// by compilers at the level of ALGOL blocks").

#ifndef SRC_VM_SEGMENTED_VM_H_
#define SRC_VM_SEGMENTED_VM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/core/resident_index.h"
#include "src/map/associative_memory.h"
#include "src/map/cost_model.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/seg/segment_manager.h"
#include "src/vm/system.h"

namespace dsa {

struct SegmentedVmConfig {
  std::string label{"segmented-vm"};
  WordCount core_words{24000};
  WordCount max_segment_extent{1024};     // the B5000's hard limit
  WordCount workload_segment_words{512};  // how the adapter slices linear traces
  StorageLevel backing_level{MakeDrumLevel("drum", 1u << 20, /*word_time=*/4,
                                           /*rotational_delay=*/6000)};
  PlacementStrategyKind placement{PlacementStrategyKind::kBestFit};
  SegmentReplacementKind replacement{SegmentReplacementKind::kCyclic};
  PackingChannel packing{};
  bool symbolic_names{true};  // B5000 true; 360/67-style linear segment names false
  // Descriptor lookup cost: one core reference for the PRT entry, unless the
  // descriptor cache (B8500 thin-film memory) hits.
  MappingCostModel mapping_costs{};
  std::size_t descriptor_cache_entries{0};
  // Whether segment-level predictive directives are accepted (the
  // AdviseWontNeed/AdviseWillNeed API below is refused otherwise).
  bool accept_advice{false};
  // Optional shared event tracer (not owned); attached to the segment
  // manager (and its allocator/compactor) on Reset.  Null: no tracing.
  EventTracer* tracer{nullptr};
  Cycles cycles_per_reference{1};
};

class SegmentedVm : public StorageAllocationSystem {
 public:
  explicit SegmentedVm(SegmentedVmConfig config);

  VmReport Run(const ReferenceTrace& trace) override;
  std::string name() const override { return config_.label; }
  Characteristics characteristics() const override;

  const SegmentManager& manager() const { return *manager_; }

  // Predictive directives at workload-segment granularity (no-ops unless
  // accept_advice): `name` selects the workload slice containing it.
  void AdviseWontNeed(Name name);
  Cycles AdviseWillNeed(Name name);
  const AssociativeMemory& descriptor_cache() const { return descriptor_cache_; }
  const SegmentedVmConfig& config() const { return config_; }

 private:
  // Starts afresh with a slice table for up to `slices` slices.
  void Reset(std::size_t slices);
  // Lazily creates the workload segment covering `name`.
  SegmentId SegmentFor(Name name);

  SegmentedVmConfig config_;
  Clock clock_;
  std::unique_ptr<BackingStore> backing_;
  std::unique_ptr<TransferChannel> channel_;
  std::unique_ptr<SegmentManager> manager_;
  // Slice index -> segment.  Run presizes it to the trace's distinct-slice
  // bound (capped), and it doubles when full, so its memory follows the
  // slices the trace names, not its length or its highest name.
  FlatIndex<SegmentId> slices_{0};
  AssociativeMemory descriptor_cache_;
  SpaceTimeAccumulator space_time_;

  std::uint64_t references_{0};
  std::uint64_t bounds_violations_{0};
  Cycles compute_cycles_{0};
  Cycles translation_cycles_{0};
  Cycles wait_cycles_{0};
  WordCount peak_resident_{0};
};

}  // namespace dsa

#endif  // SRC_VM_SEGMENTED_VM_H_
