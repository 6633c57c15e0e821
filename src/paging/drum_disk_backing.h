// A multi-level backing home for the pager (drum + disk).
//
// "An additional complexity in fetch strategies arises when there are
// several levels of working storage ...  In such circumstances there is the
// problem of whether a given item should be fetched to a higher storage
// level, since this will be worthwhile only if the item is going to be used
// frequently."
//
// The pager keeps core frames, victim choice, retries and relocation; this
// component only decides where an absent page lives.  Absent pages sit on
// one of two levels: a small fast drum and a large slow disk.  Evicted pages
// land on the drum; when the drum fills, its least recently landed page is
// demoted to disk.  A page faulted from disk may be *promoted* (its next home
// is the drum) — the policy choice this module lets experiments vary.
//
// Unlike the pager's single backing store, a level gives up its copy when
// the page is fetched, so every eviction writes the page out again, and a
// page never evicted has no home: it zero-fills without a transfer.  With a
// FaultInjector on the pager, level 0 is the drum and level 1 the disk; a
// page the drum cannot take (no spare slot, or retries spent) spills to disk
// rather than being lost.

#ifndef SRC_PAGING_DRUM_DISK_BACKING_H_
#define SRC_PAGING_DRUM_DISK_BACKING_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "src/core/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/paging/pager.h"

namespace dsa {

// Where an evicted page is written.
enum class DemotionPolicy : std::uint8_t {
  kAlwaysDrum,   // evictions land on the drum; the drum demotes its LRU to disk
  kAlwaysDisk,   // evictions bypass the drum (no staging)
};

struct DrumDiskConfig {
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
};

struct DrumDiskStats {
  std::uint64_t drum_hits{0};    // fetches served from the drum
  std::uint64_t disk_hits{0};    // fetches served from the disk
  std::uint64_t zero_fills{0};   // pages with no home: first touch or lost
  std::uint64_t demotions{0};    // drum -> disk overflows

  double DrumServiceFraction() const {
    const std::uint64_t served = drum_hits + disk_hits;
    return served == 0 ? 0.0
                       : static_cast<double>(drum_hits) / static_cast<double>(served);
  }
};

class DrumDiskBacking {
 public:
  // The pager's store-with-relocation loop: writes `page` to `to`, moving
  // `to->slot` to a spare when the slot is bad.  Returns false when the
  // level ran out of spares or retries; the pager records that as a spill
  // when `has_fallback`, else as a lost page.
  using StoreFn = std::function<bool(PageId page, PageHome* to, bool has_fallback)>;

  explicit DrumDiskBacking(DrumDiskConfig config = {});

  // Emits the drum's demotions (forwarded by Pager::SetTracer).
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  // The four calls the pager makes.  Locate names the level and slot that
  // hold the page's copy (a null store when there is none); PlaceEvicted
  // stores an evicted page per the demotion policy; OnFetched records that
  // the page left its home for core; Forget drops a page whose copy is gone.
  PageHome Locate(PageId page);
  void PlaceEvicted(PageId page, const StoreFn& store);
  void OnFetched(PageId page);
  void Forget(PageId page);

  const DrumDiskStats& stats() const { return stats_; }
  std::size_t drum_page_count() const { return drum_lru_.size(); }
  // The drum, read-only: the slots it holds are the copies it keeps.
  const BackingStore& drum() const { return drum_; }

 private:
  enum class Home : std::uint8_t { kDrum, kDisk };

  // Stores the page on disk; a page the disk will not take is forgotten.
  void PlaceOnDisk(PageId page, const StoreFn& store);
  // Takes the page off the drum's LRU list and frees its drum slot.
  void DropFromDrum(PageId page);
  // The slot currently holding `page` at its home level.
  BackingStore::SlotId SlotFor(PageId page) const;
  void RecordSlot(PageId page, BackingStore::SlotId slot);

  DrumDiskConfig config_;
  EventTracer* tracer_{nullptr};
  BackingStore drum_;
  BackingStore disk_;
  TransferChannel drum_channel_;
  TransferChannel disk_channel_;
  std::unordered_map<std::uint64_t, Home> home_;  // where each absent page lives
  std::unordered_set<std::uint64_t> promoted_;    // disk-faulted pages to stage on drum
  std::list<std::uint64_t> drum_lru_;             // drum residents, most recent first
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> drum_pos_;
  // Pages relocated off their identity slot at their current home level.
  std::unordered_map<std::uint64_t, BackingStore::SlotId> slot_of_;
  DrumDiskStats stats_;
};

}  // namespace dsa

#endif  // SRC_PAGING_DRUM_DISK_BACKING_H_
