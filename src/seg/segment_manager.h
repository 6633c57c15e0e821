// Segment-unit storage management: "the segment is used directly as the
// unit of allocation.  Each segment is fetched when reference is first made
// to information in the segment."  (B5000, Rice.)
//
// The manager owns a variable-unit allocator over core, a backing store for
// absent segments, a segment replacement strategy, and (optionally) a
// compaction engine for when free storage is plentiful but fragmented.
//
// A segment's extent is fixed when it is created, and every access kind is
// permitted: the paper's dynamic segments ("the extent of each segment can be
// varied during execution") and segment protection are described there but
// not modelled here, since no workload exercises them.

#ifndef SRC_SEG_SEGMENT_MANAGER_H_
#define SRC_SEG_SEGMENT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/alloc/compaction.h"
#include "src/alloc/variable_allocator.h"
#include "src/core/expected.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/map/fault.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"

namespace dsa {

// How the manager picks a resident segment to overlay.
enum class SegmentReplacementKind : std::uint8_t {
  kCyclic,  // "a replacement strategy which was essentially cyclical" (B5000)
  kLru,
  // Rice: prefers segments with a backing copy and not used since last
  // considered (a second-chance sweep over use sensors).
  kRiceSecondChance,
};

struct SegmentManagerConfig {
  WordCount core_words{24000};  // a typical B5000 working store
  WordCount max_segment_extent{1024};
  PlacementStrategyKind placement{PlacementStrategyKind::kBestFit};
  SegmentReplacementKind replacement{SegmentReplacementKind::kCyclic};
  // Compact instead of evicting when total free space would satisfy the
  // request but no hole does.
  bool compact_on_fragmentation{false};
  PackingChannel packing{};  // move-cost model when compacting
};

struct SegmentAccessOutcome {
  PhysicalAddress address;   // resolved absolute address of the item
  bool segment_fault{false};
  Cycles wait_cycles{0};
};

struct SegmentManagerStats {
  std::uint64_t accesses{0};
  std::uint64_t segment_faults{0};
  std::uint64_t evictions{0};
  std::uint64_t writebacks{0};
  std::uint64_t compactions{0};
  WordCount words_compacted{0};
  Cycles wait_cycles{0};
  Cycles compaction_cycles{0};

  double FaultRate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(segment_faults) / static_cast<double>(accesses);
  }
};

class SegmentManager {
 public:
  SegmentManager(SegmentManagerConfig config, BackingStore* backing, TransferChannel* channel);

  // Attaches the shared event tracer (wired through to the allocator and the
  // compaction engine).  Transfer events use the segment id in the page slot
  // and level 0 (segmented systems have a single backing level).
  void SetTracer(EventTracer* tracer) {
    tracer_ = tracer;
    allocator_.SetTracer(tracer);
    compactor_.SetTracer(tracer);
  }

  // Declares a segment (descriptor only; fetched on first reference).
  SegmentId Create(WordCount extent);
  void Destroy(SegmentId segment);

  // One reference to (segment, offset).  Bounds-checked; fetches the whole
  // segment on first touch; may evict/compact to make room.
  Expected<SegmentAccessOutcome, Fault> Access(SegmentId segment, WordCount offset,
                                               AccessKind kind, Cycles now);

  // Predictive directives at segment granularity.
  void AdviseWontNeed(SegmentId segment, Cycles now);
  // "Will shortly be needed": fetch now if room can be made without evicting.
  Cycles AdviseWillNeed(SegmentId segment, Cycles now);

  bool IsResident(SegmentId segment) const;
  bool Exists(SegmentId segment) const {
    return segment.value < segments_.size() && segments_[segment.value].live;
  }
  WordCount ExtentOf(SegmentId segment) const;
  WordCount ResidentWords() const { return allocator_.live_words(); }
  std::size_t segment_count() const { return live_segments_; }

  const SegmentManagerStats& stats() const { return stats_; }
  const VariableAllocator& allocator() const { return allocator_; }

 private:
  struct SegmentInfo {
    bool live{false};          // false once destroyed (ids are never reused)
    WordCount extent{0};
    bool present{false};
    PhysicalAddress base;      // meaningful when present
    bool modified{false};
    bool use{false};           // second-chance sensor
    bool has_backing_copy{false};
    Cycles last_use{0};
  };

  SegmentInfo& InfoFor(SegmentId segment);
  const SegmentInfo& InfoFor(SegmentId segment) const;

  // Makes a core block of `size` available, evicting/compacting as needed.
  // Returns the block, or nullopt if even evicting everything cannot help.
  std::optional<Block> MakeRoom(WordCount size, Cycles now);

  // Picks a resident victim; nullopt if none is resident.  Walks the
  // residency bitmap in id order, one word per 64 ids: the cyclic sweep stops
  // at the first resident segment from the cursor, LRU and Rice visit every
  // resident segment, O(n/64 + r) for n ids and r resident.
  std::optional<SegmentId> ChooseVictim();

  static constexpr std::uint64_t kNoSegment = ~std::uint64_t{0};
  // The lowest resident id >= `from`, or kNoSegment.
  std::uint64_t NextResident(std::uint64_t from) const;
  void MarkResident(std::uint64_t id) { resident_[id / 64] |= std::uint64_t{1} << (id % 64); }
  void ClearResident(std::uint64_t id) { resident_[id / 64] &= ~(std::uint64_t{1} << (id % 64)); }

  // Evicts `victim`, writing it back first if it is modified or has no
  // backing copy yet.
  void Evict(SegmentId victim, Cycles now);

  // Fetches `segment` into `block`; returns the program-visible wait.
  Cycles FetchInto(SegmentId segment, Block block, Cycles now);

  void CompactCore();

  SegmentManagerConfig config_;
  EventTracer* tracer_{nullptr};
  BackingStore* backing_;
  TransferChannel* channel_;
  VariableAllocator allocator_;
  CompactionEngine compactor_;
  // Indexed by id; a destroyed segment leaves a dead slot.  Create may grow
  // the vector, so no SegmentInfo& is held across it.
  std::vector<SegmentInfo> segments_;
  std::size_t live_segments_{0};
  // Residency bitmap over ids (bit id % 64 of word id / 64), set exactly
  // while the segment is present.  Changed only where residency changes:
  // FetchInto sets, Evict and Destroy clear.
  std::vector<std::uint64_t> resident_;
  std::uint64_t cyclic_cursor_{0};
  SegmentManagerStats stats_;
};

}  // namespace dsa

#endif  // SRC_SEG_SEGMENT_MANAGER_H_
