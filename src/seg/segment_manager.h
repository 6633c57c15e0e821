// Segment-unit storage management: "the segment is used directly as the
// unit of allocation.  Each segment is fetched when reference is first made
// to information in the segment."  (B5000, Rice.)
//
// The manager owns a variable-unit allocator over core, a backing store for
// absent segments, a segment replacement strategy, and (optionally) a
// compaction engine for when free storage is plentiful but fragmented.

#ifndef SRC_SEG_SEGMENT_MANAGER_H_
#define SRC_SEG_SEGMENT_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/alloc/compaction.h"
#include "src/alloc/variable_allocator.h"
#include "src/core/expected.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/map/fault.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/seg/protection.h"

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

  // Dynamic segments: "the extent of each segment can be varied during
  // execution by special program directives."  A resident grown segment is
  // re-placed (and may fault storage out to make room).
  Expected<SegmentAccessOutcome, Fault> Resize(SegmentId segment, WordCount extent, Cycles now);

  // One reference to (segment, offset).  Bounds-checked; fetches the whole
  // segment on first touch; may evict/compact to make room.
  Expected<SegmentAccessOutcome, Fault> Access(SegmentId segment, WordCount offset,
                                               AccessKind kind, Cycles now);

  // Protection: "segments form a very convenient unit for purposes of
  // information protection".  Forbidden access kinds fault instead of
  // resolving (and do not fetch an absent segment).
  void SetProtection(SegmentId segment, SegmentProtection protection);
  SegmentProtection ProtectionOf(SegmentId segment) const;

  // Predictive directives at segment granularity.
  void AdviseKeepResident(SegmentId segment);
  void RevokeKeepResident(SegmentId segment);
  void AdviseWontNeed(SegmentId segment, Cycles now);
  // "Will shortly be needed": fetch now if room can be made without evicting.
  Cycles AdviseWillNeed(SegmentId segment, Cycles now);

  bool IsResident(SegmentId segment) const;
  bool Exists(SegmentId segment) const { return segments_.contains(segment.value); }
  WordCount ExtentOf(SegmentId segment) const;
  WordCount ResidentWords() const { return allocator_.live_words(); }
  std::size_t segment_count() const { return segments_.size(); }

  const SegmentManagerStats& stats() const { return stats_; }
  const VariableAllocator& allocator() const { return allocator_; }

 private:
  struct SegmentInfo {
    WordCount extent{0};
    bool present{false};
    PhysicalAddress base;      // meaningful when present
    bool modified{false};
    bool pinned{false};
    bool use{false};           // second-chance sensor
    bool has_backing_copy{false};
    Cycles last_use{0};
    SegmentProtection protection{};
  };

  SegmentInfo& InfoFor(SegmentId segment);
  const SegmentInfo& InfoFor(SegmentId segment) const;

  // Makes a core block of `size` available, evicting/compacting as needed.
  // Returns the block, or nullopt if even evicting everything cannot help.
  std::optional<Block> MakeRoom(WordCount size, Cycles now, SegmentId requester);

  // Picks a resident, unpinned victim != requester; nullopt if none.  Walks
  // only `resident_`: O(log r) for the cyclic sweep, O(r) for LRU and Rice,
  // where r is the number of resident segments.
  std::optional<SegmentId> ChooseVictim(SegmentId requester);

  // Evicts `victim`, writing back if modified; returns channel-side cost.
  void Evict(SegmentId victim, Cycles now);

  // Fetches `segment` into `block`; returns the program-visible wait.
  Cycles FetchInto(SegmentId segment, Block block, Cycles now);

  void CompactCore(Cycles now);

  SegmentManagerConfig config_;
  EventTracer* tracer_{nullptr};
  BackingStore* backing_;
  TransferChannel* channel_;
  VariableAllocator allocator_;
  CompactionEngine compactor_;
  std::unordered_map<std::uint64_t, SegmentInfo> segments_;
  // The present segments in id order, pointing into `segments_` (whose nodes
  // never move).  Changed only where residency changes: FetchInto inserts,
  // Evict and Destroy erase.
  std::map<std::uint64_t, SegmentInfo*> resident_;
  std::unordered_map<std::uint64_t, SegmentId> resident_by_base_;
  std::uint64_t next_segment_id_{0};
  std::uint64_t cyclic_cursor_{0};
  SegmentManagerStats stats_;
};

}  // namespace dsa

#endif  // SRC_SEG_SEGMENT_MANAGER_H_
