#include "src/paging/hierarchy_pager.h"

#include "src/core/assert.h"
#include "src/obs/tracer.h"

namespace dsa {

namespace {
// Injector level indices for the two backing levels.
constexpr std::size_t kDrumLevel = 0;
constexpr std::size_t kDiskLevel = 1;
}  // namespace

HierarchyPager::HierarchyPager(HierarchyPagerConfig config,
                               std::unique_ptr<ReplacementPolicy> replacement,
                               FaultInjector* injector)
    : config_(config),
      drum_(config.drum_level),
      disk_(config.disk_level),
      replacement_(std::move(replacement)),
      injector_(injector),
      frames_(config.frames),
      resident_(config.frames) {
  DSA_ASSERT(replacement_ != nullptr, "hierarchy pager needs a replacement policy");
  DSA_ASSERT(config_.drum_pages > 0, "drum must hold at least one page");
  if (config_.touch_idle_threshold == 0) {
    config_.touch_idle_threshold = config_.page_words;
  }
  stats_.reliability.residual_frames = frames_.usable_frame_count();
}

BackingStore::SlotId HierarchyPager::SlotFor(PageId page) const {
  auto it = slot_of_.find(page.value);
  return it != slot_of_.end() ? it->second : page.value;
}

void HierarchyPager::RecordSlot(PageId page, BackingStore::SlotId slot) {
  if (slot == page.value) {
    slot_of_.erase(page.value);
  } else {
    slot_of_[page.value] = slot;
  }
}

void HierarchyPager::SyncRetirementStats() {
  stats_.reliability.retired_frames = frames_.retired_count();
  stats_.reliability.residual_frames = frames_.usable_frame_count();
}

void HierarchyPager::DropFromDrum(PageId page) {
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

std::optional<BackingStore::SlotId> HierarchyPager::StorePage(BackingStore& store,
                                                              TransferChannel& channel,
                                                              std::size_t level_index, PageId page,
                                                              Cycles now) {
  ReliabilityStats& rel = stats_.reliability;
  const int max_retries = injector_ != nullptr ? injector_->max_retries() : 0;
  for (int attempt = 0;; ++attempt) {
    BackingStore::SlotId slot = page.value;
    if (store.IsBad(slot)) {
      const auto spare = store.AllocateSpareSlot(config_.page_words);
      if (!spare.has_value()) {
        return std::nullopt;
      }
      slot = *spare;
      ++rel.relocations;
      DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                     static_cast<std::uint64_t>(RecoveryAction::kRelocation));
    }
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, page.value, level_index,
                   /*direction=*/1);
    channel.Schedule(store.level(), config_.page_words, now);
    [[maybe_unused]] const Cycles store_cycles = store.StoreZeros(slot, config_.page_words);
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, level_index,
                   store_cycles);
    const TransferFaultKind fault = injector_ != nullptr
                                        ? injector_->DrawTransferFault(level_index)
                                        : TransferFaultKind::kNone;
    if (fault == TransferFaultKind::kNone) {
      return slot;
    }
    if (fault == TransferFaultKind::kPermanentSlot) {
      // Write-check failed: the sector is bad and the copy that just landed
      // is not durable.  The next attempt relocates.
      store.MarkBad(slot);
      ++rel.slot_failures;
    } else {
      ++rel.transient_errors;
    }
    if (attempt >= max_retries) {
      return std::nullopt;
    }
    ++rel.retries;
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kRetry));
  }
}

void HierarchyPager::PlaceOnDisk(PageId page, Cycles now) {
  const auto slot = StorePage(disk_, disk_channel_, kDiskLevel, page, now);
  if (!slot.has_value()) {
    // No disk slot would take the page: its contents are gone.  The page
    // reads as zero-fill on its next touch.
    ++stats_.reliability.lost_pages;
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kPageLost));
    home_.erase(page.value);
    slot_of_.erase(page.value);
    return;
  }
  RecordSlot(page, *slot);
  home_[page.value] = Home::kDisk;
}

void HierarchyPager::PlaceEvicted(PageId page, Cycles now) {
  const bool to_drum = config_.demotion == DemotionPolicy::kAlwaysDrum ||
                       (config_.promote_on_disk_fault && promoted_[page.value]);
  if (!to_drum) {
    PlaceOnDisk(page, now);
    return;
  }
  // Stage on the drum; spill its least recently landed page to disk first
  // if the drum is full.
  if (drum_lru_.size() >= config_.drum_pages) {
    const PageId spill{drum_lru_.back()};
    drum_lru_.pop_back();
    drum_pos_.erase(spill.value);
    const BackingStore::SlotId spill_slot = SlotFor(spill);
    if (!drum_.IsBad(spill_slot)) {
      drum_.Discard(spill_slot);
    }
    slot_of_.erase(spill.value);
    DSA_TRACE_EMIT(tracer_, EventKind::kPageDemoted, spill.value, kDiskLevel);
    PlaceOnDisk(spill, now);
    ++stats_.demotions;
  }
  const auto slot = StorePage(drum_, drum_channel_, kDrumLevel, page, now);
  if (!slot.has_value()) {
    // The drum ran out of good slots (or retries); fall through one level
    // rather than losing the page.
    ++stats_.reliability.spill_relocations;
    PlaceOnDisk(page, now);
    return;
  }
  RecordSlot(page, *slot);
  drum_lru_.push_front(page.value);
  drum_pos_[page.value] = drum_lru_.begin();
  home_[page.value] = Home::kDrum;
}

void HierarchyPager::EvictOne(Cycles now) {
  const FrameId victim = replacement_->ChooseVictim(&frames_, now);
  const FrameInfo& info = frames_.info(victim);
  DSA_ASSERT(info.occupied && !info.pinned, "policy chose an invalid victim");
  const PageId page = info.page;
  DSA_TRACE_EMIT(tracer_, EventKind::kVictimChosen, page.value, victim.value);
  // Every eviction writes the page out (its only up-to-date copy is in core:
  // the fetch consumed the backing copy's slot when the page moved levels).
  ++stats_.writebacks;
  PlaceEvicted(page, now);
  replacement_->OnEvict(victim, page);
  frames_.Evict(victim);
  resident_.Erase(page.value);
}

Expected<Cycles, PageAccessError> HierarchyPager::Access(PageId page, AccessKind kind,
                                                         Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  ++stats_.accesses;
  const bool write = kind == AccessKind::kWrite;

  if (const std::optional<FrameId> frame = resident_.Find(page.value)) {
    frames_.Touch(*frame, now, write, config_.touch_idle_threshold);
    replacement_->OnAccess(*frame, page, now, write);
    return Cycles{0};
  }

  // --- fault: find a frame, then the page's home, then fetch ---------------
  ++stats_.faults;
  DSA_TRACE_EMIT(tracer_, EventKind::kPageFault, page.value);
  // The page's home must be resolved AFTER each eviction: an eviction's drum
  // spill can demote the very page being faulted from drum to disk.
  const auto resolve_home = [&]() {
    auto it = home_.find(page.value);
    return it != home_.end() ? it->second : Home::kNowhere;
  };

  // Find a frame for the page.  Core parity failures strike as the transfer
  // arrives: its time is charged, the frame retires, the hunt continues.
  Cycles wasted = 0;
  std::optional<FrameId> frame;
  for (;;) {
    frame = frames_.TakeFreeFrame();
    if (!frame.has_value()) {
      if (!frames_.HasEvictionCandidates()) {
        ++stats_.reliability.failed_accesses;
        stats_.wait_cycles += wasted;
        return MakeUnexpected(
            PageAccessError{PageAccessErrorKind::kNoUsableFrames, page, wasted});
      }
      EvictOne(now);
      frame = frames_.TakeFreeFrame();
      DSA_ASSERT(frame.has_value(), "eviction did not free a frame");
    }
    if (injector_ == nullptr || frames_.usable_frame_count() <= 1 ||
        !injector_->DrawFrameFailure()) {
      break;
    }
    // The transfer ran before the landing failed; charge its time against
    // the page's current home (evictions may move it between landings).
    const Home landing_home = resolve_home();
    if (landing_home != Home::kNowhere) {
      BackingStore& failed_store = landing_home == Home::kDrum ? drum_ : disk_;
      TransferChannel& failed_channel =
          landing_home == Home::kDrum ? drum_channel_ : disk_channel_;
      [[maybe_unused]] const std::size_t failed_level =
          landing_home == Home::kDrum ? kDrumLevel : kDiskLevel;
      DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, page.value, failed_level,
                     /*direction=*/0);
      const auto done =
          failed_channel.Schedule(failed_store.level(), config_.page_words, now + wasted);
      const Cycles landing_wait = done.finish - (now + wasted);
      wasted += landing_wait;
      DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, failed_level,
                     landing_wait);
    }
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kFrameParity));
    frames_.RetireFrame(*frame);
    ++stats_.reliability.frame_failures;
    SyncRetirementStats();
  }

  const Home home = resolve_home();
  BackingStore* store = home == Home::kDrum ? &drum_ : home == Home::kDisk ? &disk_ : nullptr;
  TransferChannel* channel = home == Home::kDrum ? &drum_channel_
                             : home == Home::kDisk ? &disk_channel_
                                                   : nullptr;
  const std::size_t level_index = home == Home::kDrum ? kDrumLevel : kDiskLevel;

  Cycles wait = wasted;
  ReliabilityStats& rel = stats_.reliability;
  const int max_retries = injector_ != nullptr ? injector_->max_retries() : 0;
  if (store != nullptr) {
    const BackingStore::SlotId slot = SlotFor(page);
    for (int attempt = 0;; ++attempt) {
      DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, page.value, level_index,
                     /*direction=*/0);
      const auto done = channel->Schedule(store->level(), config_.page_words, now + wait);
      const Cycles attempt_wait = done.finish - (now + wait);
      wait += attempt_wait;
      if (attempt > 0) {
        rel.retry_cycles += attempt_wait;
      }
      // Nothing reads the fetched words: charge the transfer without copying.
      store->Fetch(slot, config_.page_words, nullptr);
      DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, level_index,
                     attempt_wait);
      const TransferFaultKind fault = injector_ != nullptr
                                          ? injector_->DrawTransferFault(level_index)
                                          : TransferFaultKind::kNone;
      if (fault == TransferFaultKind::kNone) {
        break;
      }
      if (fault == TransferFaultKind::kPermanentSlot) {
        // The only copy sat on a sector that just went bad; the page is
        // unrecoverable and the access fails.
        store->MarkBad(slot);
        ++rel.slot_failures;
        ++rel.lost_pages;
        DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                       static_cast<std::uint64_t>(RecoveryAction::kPageLost));
        if (home == Home::kDrum) {
          auto it = drum_pos_.find(page.value);
          if (it != drum_pos_.end()) {
            drum_lru_.erase(it->second);
            drum_pos_.erase(it);
          }
        }
        home_.erase(page.value);
        slot_of_.erase(page.value);
        frames_.ReturnFreeFrame(*frame);
        ++rel.failed_accesses;
        stats_.wait_cycles += wait;
        return MakeUnexpected(
            PageAccessError{PageAccessErrorKind::kSlotUnreadable, page, wait});
      }
      ++rel.transient_errors;
      if (attempt >= max_retries) {
        frames_.ReturnFreeFrame(*frame);
        ++rel.failed_accesses;
        stats_.wait_cycles += wait;
        return MakeUnexpected(
            PageAccessError{PageAccessErrorKind::kTransferFailed, page, wait});
      }
      ++rel.retries;
      DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                     static_cast<std::uint64_t>(RecoveryAction::kRetry));
    }
    if (home == Home::kDrum) {
      DropFromDrum(page);
      ++stats_.drum_hits;
    } else {
      disk_.Discard(slot);
      slot_of_.erase(page.value);
      ++stats_.disk_hits;
      // "Worthwhile only if the item is going to be used frequently": a disk
      // fault is the frequency evidence this model accepts.
      promoted_[page.value] = true;
    }
  } else {
    ++stats_.zero_fills;  // first touch: zero-filled, no transfer
  }
  home_.erase(page.value);
  stats_.wait_cycles += wait;

  frames_.Load(*frame, page, now);
  resident_.Insert(page.value, *frame);
  replacement_->OnLoad(*frame, page, now);
  const Cycles arrival = now + wait;
  frames_.Touch(*frame, arrival, write, config_.touch_idle_threshold);
  replacement_->OnAccess(*frame, page, arrival, write);
  return wait;
}

}  // namespace dsa
