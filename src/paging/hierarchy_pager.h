// Paging over a multi-level backing hierarchy (drum + disk).
//
// "An additional complexity in fetch strategies arises when there are
// several levels of working storage ...  In such circumstances there is the
// problem of whether a given item should be fetched to a higher storage
// level, since this will be worthwhile only if the item is going to be used
// frequently."
//
// The hierarchy pager keeps core frames exactly like the flat pager, but
// absent pages live on one of two backing levels: a small fast drum and a
// large slow disk.  Evicted pages land on the drum; when the drum fills, its
// least recently landed page is demoted to disk.  A page faulted from disk
// may be *promoted* (its next home is the drum) — the policy choice this
// module lets experiments vary.
//
// With a FaultInjector attached (level 0 = drum, level 1 = disk) transfers
// may fail transiently (retried with fresh rotational latency) or
// permanently (the slot goes bad; the page relocates to a spare slot on the
// same level, or spills to disk when the drum has none).  Core frames can
// take parity hits and retire.  A zero-rate injector is bit-identical to no
// injector.

#ifndef SRC_PAGING_HIERARCHY_PAGER_H_
#define SRC_PAGING_HIERARCHY_PAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/core/expected.h"
#include "src/core/resident_index.h"
#include "src/core/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/fault_injection.h"
#include "src/paging/frame_table.h"
#include "src/paging/pager.h"
#include "src/paging/replacement.h"
#include "src/stats/reliability.h"

namespace dsa {

// Where an evicted page is written.
enum class DemotionPolicy : std::uint8_t {
  kAlwaysDrum,   // evictions land on the drum; the drum demotes its LRU to disk
  kAlwaysDisk,   // evictions bypass the drum (no staging)
};

struct HierarchyPagerConfig {
  WordCount page_words{512};
  std::size_t frames{32};
  // Drum capacity in pages; beyond this, drum residents demote to disk.
  std::size_t drum_pages{64};
  StorageLevel drum_level{MakeDrumLevel("drum", 1u << 18, /*word_time=*/2,
                                        /*rotational_delay=*/3000)};
  StorageLevel disk_level{MakeDiskLevel("disk", 1u << 24, /*word_time=*/4,
                                        /*seek_plus_rotation=*/40000)};
  DemotionPolicy demotion{DemotionPolicy::kAlwaysDrum};
  // Promote pages fetched from disk by staging their next eviction to drum
  // even under kAlwaysDisk (frequency heuristic: a disk fault proves reuse).
  bool promote_on_disk_fault{true};
  Cycles touch_idle_threshold{0};  // 0 => page_words
};

struct HierarchyPagerStats {
  std::uint64_t accesses{0};
  std::uint64_t faults{0};
  std::uint64_t drum_hits{0};    // faults served from the drum
  std::uint64_t disk_hits{0};    // faults served from the disk
  std::uint64_t zero_fills{0};   // first-touch pages
  std::uint64_t demotions{0};    // drum -> disk overflows
  std::uint64_t writebacks{0};
  Cycles wait_cycles{0};
  ReliabilityStats reliability;

  double DrumServiceFraction() const {
    const std::uint64_t served = drum_hits + disk_hits;
    return served == 0 ? 0.0
                       : static_cast<double>(drum_hits) / static_cast<double>(served);
  }
};

class HierarchyPager {
 public:
  // `injector` may be null: all transfers then succeed and no frame fails.
  HierarchyPager(HierarchyPagerConfig config, std::unique_ptr<ReplacementPolicy> replacement,
                 FaultInjector* injector = nullptr);

  // Attaches the shared event tracer (forwarded to the frame table).
  // Transfers are tagged with their backing level: 0 = drum, 1 = disk.
  void SetTracer(EventTracer* tracer) {
    tracer_ = tracer;
    frames_.SetTracer(tracer);
  }

  // One reference; returns the stall the program sees, or a PageAccessError
  // when every recovery path (retries, relocation, spare frames) is spent.
  Expected<Cycles, PageAccessError> Access(PageId page, AccessKind kind, Cycles now);

  bool IsResident(PageId page) const { return resident_.Contains(page.value); }

  const HierarchyPagerStats& stats() const { return stats_; }
  const FrameTable& frames() const { return frames_; }
  std::size_t drum_page_count() const { return drum_lru_.size(); }

 private:
  enum class Home : std::uint8_t { kNowhere, kDrum, kDisk };

  // Vacates one frame via the policy, writing the victim to backing storage.
  void EvictOne(Cycles now);
  // Places an evicted page per the demotion policy, spilling the drum's LRU
  // page to disk when the drum is full.
  void PlaceEvicted(PageId page, Cycles now);
  // Stores the page on disk (relocating around bad slots); a page that
  // cannot land anywhere is recorded lost.
  void PlaceOnDisk(PageId page, Cycles now);
  // Writes the page to `store`, retrying transients and relocating off bad
  // slots; returns the slot that finally holds it, or nullopt when the
  // level ran out of spares/retries.
  std::optional<BackingStore::SlotId> StorePage(BackingStore& store, TransferChannel& channel,
                                                std::size_t level_index, PageId page, Cycles now);
  void DropFromDrum(PageId page);
  // The slot currently holding `page` at its home level.
  BackingStore::SlotId SlotFor(PageId page) const;
  void RecordSlot(PageId page, BackingStore::SlotId slot);
  void SyncRetirementStats();

  HierarchyPagerConfig config_;
  EventTracer* tracer_{nullptr};
  BackingStore drum_;
  BackingStore disk_;
  TransferChannel drum_channel_;
  TransferChannel disk_channel_;
  std::unique_ptr<ReplacementPolicy> replacement_;
  FaultInjector* injector_;
  FrameTable frames_;
  ResidentIndex resident_;
  std::unordered_map<std::uint64_t, Home> home_;       // where each absent page lives
  std::unordered_map<std::uint64_t, bool> promoted_;   // disk-faulted pages to stage on drum
  std::list<std::uint64_t> drum_lru_;                  // drum residents, most recent first
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> drum_pos_;
  // Pages relocated off their identity slot at their current home level.
  std::unordered_map<std::uint64_t, BackingStore::SlotId> slot_of_;
  HierarchyPagerStats stats_;
};

}  // namespace dsa

#endif  // SRC_PAGING_HIERARCHY_PAGER_H_
