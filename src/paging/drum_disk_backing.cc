#include "src/paging/drum_disk_backing.h"

#include "src/core/assert.h"
#include "src/obs/tracer.h"

namespace dsa {

namespace {
// Injector and tracer level indices for the two backing levels.
constexpr std::size_t kDrumLevel = 0;
constexpr std::size_t kDiskLevel = 1;
}  // namespace

DrumDiskBacking::DrumDiskBacking(DrumDiskConfig config)
    : config_(config), drum_(config.drum_level), disk_(config.disk_level) {
  DSA_ASSERT(config_.drum_pages > 0, "drum must hold at least one page");
}

BackingStore::SlotId DrumDiskBacking::SlotFor(PageId page) const {
  auto it = slot_of_.find(page.value);
  return it != slot_of_.end() ? it->second : page.value;
}

void DrumDiskBacking::RecordSlot(PageId page, BackingStore::SlotId slot) {
  if (slot == page.value) {
    slot_of_.erase(page.value);
  } else {
    slot_of_[page.value] = slot;
  }
}

PageHome DrumDiskBacking::Locate(PageId page) {
  auto it = home_.find(page.value);
  if (it == home_.end()) {
    return PageHome{};
  }
  if (it->second == Home::kDrum) {
    return PageHome{&drum_, &drum_channel_, kDrumLevel, SlotFor(page)};
  }
  return PageHome{&disk_, &disk_channel_, kDiskLevel, SlotFor(page)};
}

void DrumDiskBacking::DropFromDrum(PageId page) {
  auto it = drum_pos_.find(page.value);
  if (it != drum_pos_.end()) {
    drum_lru_.erase(it->second);
    drum_pos_.erase(it);
    const BackingStore::SlotId slot = SlotFor(page);
    if (!drum_.IsBad(slot)) {
      drum_.Discard(slot);
    }
    slot_of_.erase(page.value);
  }
}

void DrumDiskBacking::Forget(PageId page) {
  DropFromDrum(page);
  home_.erase(page.value);
  slot_of_.erase(page.value);
}

void DrumDiskBacking::OnFetched(PageId page) {
  auto it = home_.find(page.value);
  if (it == home_.end()) {
    ++stats_.zero_fills;
    return;
  }
  if (it->second == Home::kDrum) {
    DropFromDrum(page);
    ++stats_.drum_hits;
  } else {
    disk_.Discard(SlotFor(page));
    slot_of_.erase(page.value);
    ++stats_.disk_hits;
    // "Worthwhile only if the item is going to be used frequently": a disk
    // fault is the frequency evidence this model accepts.
    promoted_.insert(page.value);
  }
  home_.erase(it);
}

void DrumDiskBacking::PlaceOnDisk(PageId page, const StoreFn& store) {
  PageHome to{&disk_, &disk_channel_, kDiskLevel, page.value};
  if (!store(page, &to, /*has_fallback=*/false)) {
    // No disk slot would take the page: its contents are gone.  The page
    // reads as zero-fill on its next touch.
    Forget(page);
    return;
  }
  RecordSlot(page, to.slot);
  home_[page.value] = Home::kDisk;
}

void DrumDiskBacking::PlaceEvicted(PageId page, const StoreFn& store) {
  const bool to_drum = config_.demotion == DemotionPolicy::kAlwaysDrum ||
                       (config_.promote_on_disk_fault && promoted_.contains(page.value));
  if (to_drum) {
    // Stage on the drum; spill its least recently landed page to disk first
    // if the drum is full.
    if (drum_lru_.size() >= config_.drum_pages) {
      const PageId spill{drum_lru_.back()};
      DropFromDrum(spill);
      DSA_TRACE_EMIT(tracer_, EventKind::kPageDemoted, spill.value, kDiskLevel);
      PlaceOnDisk(spill, store);
      ++stats_.demotions;
    }
    PageHome to{&drum_, &drum_channel_, kDrumLevel, page.value};
    if (store(page, &to, /*has_fallback=*/true)) {
      RecordSlot(page, to.slot);
      drum_lru_.push_front(page.value);
      drum_pos_[page.value] = drum_lru_.begin();
      home_[page.value] = Home::kDrum;
      return;
    }
    // The drum ran out of good slots (or retries); fall through one level
    // rather than losing the page.
  }
  PlaceOnDisk(page, store);
}

}  // namespace dsa
