// The paged virtual memory system: a large linear name space over a smaller
// core store, with artificial contiguity from a page-mapping device and
// demand (or predictive) fetching — the ATLAS/M44/44X shape.

#ifndef SRC_VM_PAGED_VM_H_
#define SRC_VM_PAGED_VM_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/clock.h"
#include "src/map/cost_model.h"
#include "src/map/mapper.h"
#include "src/map/page_table.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/fault_injection.h"
#include "src/naming/linear.h"
#include "src/paging/advice.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_factory.h"
#include "src/vm/system.h"

namespace dsa {

// Which address-mapping hardware performs the artificial contiguity.
enum class PagedMapperKind : std::uint8_t {
  kPageTable,       // in-core table, optional associative memory in front
  kAtlasRegisters,  // one page-address register per frame (ATLAS)
};

struct PagedVmConfig {
  std::string label{"paged-vm"};
  int address_bits{24};
  WordCount core_words{16384};
  WordCount page_words{512};
  StorageLevel backing_level{MakeDrumLevel("drum", 98304, /*word_time=*/4,
                                           /*rotational_delay=*/6000)};
  PagedMapperKind mapper{PagedMapperKind::kPageTable};
  std::size_t tlb_entries{0};
  MappingCostModel mapping_costs{};

  ReplacementStrategyKind replacement{ReplacementStrategyKind::kLru};
  ReplacementOptions replacement_options{};
  FetchStrategyKind fetch{FetchStrategyKind::kDemand};
  std::size_t prefetch_window{2};
  std::size_t advice_fetch_budget{4};
  bool accept_advice{false};
  bool keep_one_frame_vacant{false};

  // Storage fault model (zero rates: bit-identical to a fault-free run).
  FaultInjectorConfig fault_injection{};

  // Optional shared event tracer (not owned); attached to the pager and the
  // frame table on Reset.  Null: no tracing.
  EventTracer* tracer{nullptr};

  // Compute cost of one reference besides mapping (instruction execution).
  Cycles cycles_per_reference{1};
  // Reported allocation-unit flavour: a machine with more than one frame
  // size is formally non-uniform even when this model pages at one size.
  AllocationUnit reported_unit{AllocationUnit::kUniformPages};
};

class PagedLinearVm : public StorageAllocationSystem {
 public:
  explicit PagedLinearVm(PagedVmConfig config);

  VmReport Run(const ReferenceTrace& trace) override;
  std::string name() const override { return config_.label; }
  Characteristics characteristics() const override;

  // Executes a single reference against the current state (Run loops this).
  // Returns the stall incurred.
  Cycles Step(const Reference& ref);

  // Predictive directives (no-ops unless accept_advice).
  void AdviseWillNeed(Name name);
  void AdviseWontNeed(Name name);
  void AdviseKeepResident(Name name);

  const Pager& pager() const { return *pager_; }
  const AddressMapper& mapper() const { return *mapper_; }
  const Clock& clock() const { return clock_; }
  const PagedVmConfig& config() const { return config_; }

  // Report for everything stepped so far (Run resets state first).
  VmReport Snapshot() const;

  // Rebuilds all internal state from scratch (Run calls this; service-mode
  // callers that drive Step directly call it once before the first step).
  void Reset();

  // Checkpoint serialization of the complete mid-run state — the clock,
  // every storage component, the mapper, the pager (frame table, replacement
  // decision state, residency), the fault stream position, the advice
  // registry, the space-time integrals, and the step counters — split into
  // content-addressed sections (vm.clock, vm.backing, vm.channel, vm.rng,
  // vm.advice, the mapper's map.* sections, vm.pager, vm.tally), so a delta
  // seal re-emits only the sections that changed since the last committed
  // cut.  A standalone snapshot is SealFull() with no baseline, read back
  // through ResolveSectionChain({bytes}).  LoadSections expects a freshly
  // Reset() system built from the identical config and reports any
  // inconsistency through the source; the clock/rng/tally block applies
  // all-or-nothing.  After a successful load (and FailIfUnopened), Step
  // produces the bit-identical continuation of the checkpointed run.
  void SaveSections(SectionedSnapshotWriter* w) const;
  void LoadSections(SectionSource* src);

 private:
  PageId PageOf(Name name) const { return PageId{name.value / config_.page_words}; }

  PagedVmConfig config_;
  LinearNameSpace names_;
  Clock clock_;
  std::unique_ptr<BackingStore> backing_;
  std::unique_ptr<TransferChannel> channel_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<AdviceRegistry> advice_;
  std::unique_ptr<AddressMapper> mapper_;
  std::unique_ptr<Pager> pager_;
  SpaceTimeAccumulator space_time_;

  std::uint64_t references_{0};
  std::uint64_t bounds_violations_{0};
  Cycles compute_cycles_{0};
  Cycles translation_cycles_{0};
  Cycles wait_cycles_{0};
  WordCount peak_resident_{0};
};

}  // namespace dsa

#endif  // SRC_VM_PAGED_VM_H_
