#include "src/paging/pager.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/assert.h"
#include "src/core/snapshot.h"
#include "src/obs/tracer.h"
#include "src/paging/drum_disk_backing.h"

namespace dsa {

namespace {
// The injector sees the single backing store as level 0 (a drum/disk home
// uses 0 = drum, 1 = disk).
constexpr std::size_t kBackingLevel = 0;
}  // namespace

const char* ToString(PageAccessErrorKind kind) {
  switch (kind) {
    case PageAccessErrorKind::kTransferFailed:
      return "transfer-failed";
    case PageAccessErrorKind::kSlotUnreadable:
      return "slot-unreadable";
    case PageAccessErrorKind::kNoUsableFrames:
      return "no-usable-frames";
  }
  return "?";
}

Pager::Pager(PagerConfig config, BackingStore* backing, TransferChannel* channel,
             std::unique_ptr<ReplacementPolicy> replacement, std::unique_ptr<FetchPolicy> fetch,
             AdviceRegistry* advice, FaultInjector* injector)
    : Pager(config, backing, channel, nullptr, std::move(replacement), std::move(fetch), advice,
            injector) {
  DSA_ASSERT(backing_ != nullptr, "pager needs a backing store");
}

Pager::Pager(PagerConfig config, DrumDiskBacking* tiers,
             std::unique_ptr<ReplacementPolicy> replacement, std::unique_ptr<FetchPolicy> fetch,
             AdviceRegistry* advice, FaultInjector* injector)
    : Pager(config, nullptr, nullptr, tiers, std::move(replacement), std::move(fetch), advice,
            injector) {
  DSA_ASSERT(tiers_ != nullptr, "pager needs a drum/disk home");
}

Pager::Pager(PagerConfig config, BackingStore* backing, TransferChannel* channel,
             DrumDiskBacking* tiers, std::unique_ptr<ReplacementPolicy> replacement,
             std::unique_ptr<FetchPolicy> fetch, AdviceRegistry* advice, FaultInjector* injector)
    : config_(config),
      backing_(backing),
      channel_(channel),
      tiers_(tiers),
      replacement_(std::move(replacement)),
      fetch_(std::move(fetch)),
      advice_(advice),
      injector_(injector),
      frames_(config.frames),
      resident_(config.frames) {
  DSA_ASSERT(replacement_ != nullptr, "pager needs a replacement policy");
  DSA_ASSERT(fetch_ != nullptr, "pager needs a fetch policy");
  if (config_.touch_idle_threshold == 0) {
    config_.touch_idle_threshold = config_.page_words;
  }
  stats_.reliability.residual_frames = frames_.usable_frame_count();
}

void Pager::SetTracer(EventTracer* tracer) {
  tracer_ = tracer;
  frames_.SetTracer(tracer);
  if (tiers_ != nullptr) {
    tiers_->SetTracer(tracer);
  }
}

void Pager::AdviseWillNeed(PageId page) {
  if (advice_ != nullptr && !IsResident(page)) {
    advice_->AdviseWillNeed(page);
  }
}

void Pager::AdviseWontNeed(PageId page) {
  if (advice_ != nullptr) {
    advice_->AdviseWontNeed(page);
  }
}

void Pager::AdviseKeepResident(PageId page) {
  if (advice_ == nullptr) {
    return;
  }
  advice_->AdviseKeepResident(page);
  if (auto frame = FrameOf(page)) {
    frames_.Pin(*frame);
  }
}

PageHome Pager::HomeOf(PageId page) {
  if (tiers_ != nullptr) {
    return tiers_->Locate(page);
  }
  // Relocations move pages off their identity slot.
  auto it = slot_of_.find(page.value);
  return PageHome{backing_, channel_, kBackingLevel,
                  it != slot_of_.end() ? it->second : page.value};
}

void Pager::SyncRetirementStats() {
  stats_.reliability.retired_frames = frames_.retired_count();
  stats_.reliability.residual_frames = frames_.usable_frame_count();
}

bool Pager::StoreCopy(PageId page, PageHome* to, bool has_fallback, Cycles now) {
  ReliabilityStats& rel = stats_.reliability;
  const int max_retries = injector_ != nullptr ? injector_->max_retries() : 0;
  for (int attempt = 0;; ++attempt) {
    if (to->store->IsBad(to->slot)) {
      // The page's home sector is gone; relocate to a spare slot.
      const auto spare = to->store->AllocateSpareSlot(config_.page_words);
      if (!spare.has_value()) {
        break;
      }
      to->slot = *spare;
      ++rel.relocations;
      DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                     static_cast<std::uint64_t>(RecoveryAction::kRelocation));
    }
    // Write-back transfers occupy the channel but are buffered off the
    // program's critical path; later fetches queue behind them.
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, page.value, to->level,
                   /*direction=*/1);
    if (to->channel != nullptr) {
      to->channel->Schedule(to->store->level(), config_.page_words, now);
    }
    const Cycles store_cycles = to->store->StoreZeros(to->slot, config_.page_words);
    stats_.transfer_cycles += store_cycles;
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, to->level, store_cycles);

    const TransferFaultKind fault = injector_ != nullptr
                                        ? injector_->DrawTransferFault(to->level)
                                        : TransferFaultKind::kNone;
    if (fault == TransferFaultKind::kNone) {
      return true;
    }
    if (fault == TransferFaultKind::kPermanentSlot) {
      // The write-check found a bad sector; the copy that just landed is
      // not durable.  Retire the slot; the next attempt relocates.
      to->store->MarkBad(to->slot);
      to->slot = page.value;
      ++rel.slot_failures;
    } else {
      ++rel.transient_errors;
    }
    if (attempt >= max_retries) {
      break;
    }
    ++rel.retries;
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kRetry));
  }
  if (has_fallback) {
    ++rel.spill_relocations;
  } else {
    ++rel.lost_pages;
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kPageLost));
  }
  return false;
}

void Pager::EvictFrame(FrameId frame, Cycles now) {
  const FrameInfo& info = frames_.info(frame);
  DSA_ASSERT(info.occupied, "evicting an empty frame");
  const PageId page = info.page;
  // A store that exhausts every retry and spare slot loses the page's
  // contents; the eviction still proceeds (recorded by StoreCopy).
  if (tiers_ != nullptr) {
    // A drum/disk level gave up its copy when the page was fetched, so every
    // eviction writes the page out.
    ++stats_.writebacks;
    tiers_->PlaceEvicted(page, [this, now](PageId placed, PageHome* to, bool has_fallback) {
      return StoreCopy(placed, to, has_fallback, now);
    });
  } else if (info.modified) {
    // The single store still holds a clean page's copy; only changes go out.
    ++stats_.writebacks;
    PageHome to = HomeOf(page);
    const BackingStore::SlotId was = to.slot;
    StoreCopy(page, &to, /*has_fallback=*/false, now);
    // Record a move to a spare, or back to the identity slot once a
    // relocated slot went bad.
    if (to.slot != was && to.slot == page.value) {
      slot_of_.erase(page.value);
    } else if (to.slot != was) {
      slot_of_[page.value] = to.slot;
    }
  }
  replacement_->OnEvict(frame, page);
  frames_.Evict(frame);
  resident_.Erase(page.value);
  ++stats_.evictions;
  if (on_evict_) {
    on_evict_(page, frame);
  }
}

FrameId Pager::EvictOne(Cycles now) {
  const FrameId victim = replacement_->ChooseVictim(&frames_, now);
  const FrameInfo& info = frames_.info(victim);
  DSA_ASSERT(info.occupied && !info.pinned, "policy chose an invalid victim");
  DSA_TRACE_EMIT(tracer_, EventKind::kVictimChosen, info.page.value, victim.value);
  EvictFrame(victim, now);
  return victim;
}

bool Pager::RetireFrame(FrameId frame, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  if (frame.value >= frames_.frame_count()) {
    return false;
  }
  const FrameInfo& info = frames_.info(frame);
  if (info.retired || info.pinned) {
    return false;
  }
  if (frames_.usable_frame_count() <= 1) {
    return false;  // never retire the last frame; the pager must keep paging
  }
  if (info.occupied) {
    EvictFrame(frame, now);
  }
  frames_.RetireFrame(frame);
  SyncRetirementStats();
  return true;
}

Cycles Pager::ChargeFetchTransfer([[maybe_unused]] PageId page, const PageHome& from,
                                  Cycles at) {
  DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, page.value, from.level,
                 /*direction=*/0);
  const StorageLevel& level = from.store->level();
  Cycles wait = 0;
  if (from.store->IsBad(from.slot)) {
    // The page's contents were lost with its sector; the device still spins
    // through a full transfer of zeros from the replacement area.
    const Cycles duration = level.TransferTime(config_.page_words);
    if (from.channel != nullptr) {
      const TransferChannel::Completion done =
          from.channel->Schedule(level, config_.page_words, at);
      wait = done.finish - at;
    } else {
      wait = duration;
    }
    stats_.transfer_cycles += duration;
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, from.level, wait);
    return wait;
  }
  // Nothing reads the fetched words: charge the transfer without copying.
  if (from.channel != nullptr) {
    const TransferChannel::Completion done =
        from.channel->Schedule(level, config_.page_words, at);
    wait = done.finish - at;
    // Account the device time once; Fetch() tracks device-side counters.
    stats_.transfer_cycles += from.store->Fetch(from.slot, config_.page_words, nullptr);
  } else {
    wait = from.store->Fetch(from.slot, config_.page_words, nullptr);
    stats_.transfer_cycles += wait;
  }
  DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, page.value, from.level, wait);
  return wait;
}

Expected<Cycles, PageAccessError> Pager::FetchInto(PageId page, FrameId frame, Cycles now,
                                                   bool demand) {
  ReliabilityStats& rel = stats_.reliability;
  const int max_retries = injector_ != nullptr ? injector_->max_retries() : 0;
  Cycles wait = 0;
  const PageHome from = HomeOf(page);
  // A page with no copy anywhere zero-fills without a transfer.
  for (int attempt = 0; from.store != nullptr; ++attempt) {
    const Cycles attempt_wait = ChargeFetchTransfer(page, from, now + wait);
    wait += attempt_wait;
    if (attempt > 0) {
      rel.retry_cycles += attempt_wait;
    }
    const TransferFaultKind fault = injector_ != nullptr
                                        ? injector_->DrawTransferFault(from.level)
                                        : TransferFaultKind::kNone;
    if (fault == TransferFaultKind::kNone) {
      break;
    }
    if (fault == TransferFaultKind::kPermanentSlot) {
      // Bad sector under the read head.  If this slot held the page's only
      // copy the contents are unrecoverable; an empty slot just reads as
      // zeros from anywhere, so nothing is lost.
      const bool had_copy = from.store->Contains(from.slot);
      from.store->MarkBad(from.slot);
      if (tiers_ != nullptr) {
        tiers_->Forget(page);
      } else {
        slot_of_.erase(page.value);
      }
      ++rel.slot_failures;
      if (had_copy) {
        ++rel.lost_pages;
        DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                       static_cast<std::uint64_t>(RecoveryAction::kPageLost));
        frames_.ReturnFreeFrame(frame);
        return MakeUnexpected(
            PageAccessError{PageAccessErrorKind::kSlotUnreadable, page, wait});
      }
      break;
    }
    ++rel.transient_errors;
    if (attempt >= max_retries) {
      frames_.ReturnFreeFrame(frame);
      return MakeUnexpected(
          PageAccessError{PageAccessErrorKind::kTransferFailed, page, wait});
    }
    ++rel.retries;
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kRetry));
  }
  if (tiers_ != nullptr) {
    tiers_->OnFetched(page);
  }
  frames_.Load(frame, page, now);
  resident_.Insert(page.value, frame);
  replacement_->OnLoad(frame, page, now);
  if (advice_ != nullptr && advice_->IsKeepResident(page)) {
    frames_.Pin(frame);
  }
  if (on_load_) {
    on_load_(page, frame);
  }
  if (demand) {
    ++stats_.demand_fetches;
  } else {
    ++stats_.extra_fetches;
  }
  return wait;
}

void Pager::ApplyReleases(Cycles now) {
  if (advice_ != nullptr) {
    for (PageId page : advice_->TakeWontNeed()) {
      if (auto frame = FrameOf(page)) {
        if (!frames_.info(*frame).pinned) {
          EvictFrame(*frame, now);
          ++stats_.advised_releases;
        }
      }
    }
  }
  for (FrameId frame : replacement_->FramesToRelease(&frames_, now)) {
    if (frames_.info(frame).occupied && !frames_.info(frame).pinned) {
      EvictFrame(frame, now);
      ++stats_.policy_releases;
    }
  }
}

PageAccessResult Pager::Access(PageId page, AccessKind kind, Cycles now) {
  // Nothing BeginAccess does moves residency, so probing first finds the
  // frame the hit sequence would have found.
  if (const std::optional<FrameId> frame = FrameOf(page)) {
    return AccessResident(page, *frame, kind, now);
  }

  // --- page fault ----------------------------------------------------------
  BeginAccess(page, now);
  const bool write = kind == AccessKind::kWrite;
  ++stats_.faults;
  DSA_TRACE_EMIT(tracer_, EventKind::kPageFault, page.value);
  ApplyReleases(now);

  // Find a frame the new page can land in.  Core parity failures strike as
  // the transfer arrives: the fetch's time is charged, the frame is retired,
  // and the hunt continues with one fewer frame.
  Cycles wasted = 0;  // stall burned on landings that parity-failed
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
      const std::optional<FrameId> reclaimed = frames_.TakeFreeFrame();
      DSA_ASSERT(reclaimed.has_value(), "eviction did not free a frame");
      frame = reclaimed;
    }
    if (injector_ == nullptr || frames_.usable_frame_count() <= 1 ||
        !injector_->DrawFrameFailure()) {
      break;
    }
    // The transfer ran before the landing failed; charge it against the
    // page's current home (an eviction's drum spill may have moved it).
    if (const PageHome landing = HomeOf(page); landing.store != nullptr) {
      wasted += ChargeFetchTransfer(page, landing, now + wasted);
    }
    DSA_TRACE_EMIT(tracer_, EventKind::kFaultRecovery, page.value,
                   static_cast<std::uint64_t>(RecoveryAction::kFrameParity));
    frames_.RetireFrame(*frame);
    ++stats_.reliability.frame_failures;
    SyncRetirementStats();
  }

  const Expected<Cycles, PageAccessError> fetched =
      FetchInto(page, *frame, now + wasted, /*demand=*/true);
  if (!fetched.has_value()) {
    PageAccessError error = fetched.error();
    error.wait_cycles += wasted;
    ++stats_.reliability.failed_accesses;
    stats_.wait_cycles += error.wait_cycles;
    return MakeUnexpected(error);
  }

  PageAccessOutcome outcome;
  outcome.faulted = true;
  outcome.frame = *frame;
  outcome.wait_cycles = wasted + *fetched;
  stats_.wait_cycles += outcome.wait_cycles;

  // Piggybacked fetches never force a replacement: they fill free frames
  // only, and their transfer time overlaps the program's restart.
  for (PageId extra : fetch_->ExtraPages(page, now)) {
    if (IsResident(extra)) {
      continue;
    }
    if (page_valid_ && !page_valid_(extra)) {
      continue;
    }
    const std::optional<FrameId> spare = frames_.TakeFreeFrame();
    if (!spare.has_value()) {
      break;
    }
    if (!FetchInto(extra, *spare, now, /*demand=*/false).has_value()) {
      break;  // speculation is best-effort; the frame went back to the pool
    }
    ++outcome.extra_fetches;
  }

  const Cycles arrival = now + outcome.wait_cycles;
  frames_.Touch(outcome.frame, arrival, write, config_.touch_idle_threshold);
  replacement_->OnAccess(outcome.frame, page, arrival, write);

  // ATLAS: restore the vacant frame after the dust settles, off the critical
  // path of the *next* fault.  The page just demanded is exempt — evicting
  // it before the program restarts would be self-defeating.
  if (config_.keep_one_frame_vacant && frames_.free_count() == 0) {
    const bool was_pinned = frames_.info(outcome.frame).pinned;
    frames_.Pin(outcome.frame);
    if (frames_.HasEvictionCandidates()) {
      EvictOne(arrival);
    }
    if (!was_pinned) {
      frames_.Unpin(outcome.frame);
    }
  }
  return outcome;
}

void Pager::Release(PageId page, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  if (auto frame = FrameOf(page)) {
    if (!frames_.info(*frame).pinned) {
      EvictFrame(*frame, now);
    }
  }
}

namespace {

// The residency map as (page, frame) pairs sorted by page, so the index's
// slot order never reaches the bytes.
void SaveResidency(SnapshotWriter* w, const ResidentIndex& resident) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(resident.size());
  resident.ForEach(
      [&](std::uint64_t page, FrameId frame) { entries.emplace_back(page, frame.value); });
  std::sort(entries.begin(), entries.end());
  w->U64(entries.size());
  for (const auto& [page, frame] : entries) {
    w->U64(page);
    w->U64(frame);
  }
}

}  // namespace

void Pager::SaveState(SnapshotWriter* w) const {
  DSA_ASSERT(tiers_ == nullptr, "a pager over a drum/disk home does not checkpoint");
  frames_.SaveState(w);
  replacement_->SaveState(w);
  SaveResidency(w, resident_);
  std::vector<std::uint64_t> relocated;
  relocated.reserve(slot_of_.size());
  for (const auto& [page, slot] : slot_of_) {
    relocated.push_back(page);
  }
  std::sort(relocated.begin(), relocated.end());
  w->U64(relocated.size());
  for (std::uint64_t page : relocated) {
    w->U64(page);
    w->U64(slot_of_.at(page));
  }
  w->U64(stats_.accesses);
  w->U64(stats_.faults);
  w->U64(stats_.demand_fetches);
  w->U64(stats_.extra_fetches);
  w->U64(stats_.writebacks);
  w->U64(stats_.evictions);
  w->U64(stats_.advised_releases);
  w->U64(stats_.policy_releases);
  w->U64(stats_.wait_cycles);
  w->U64(stats_.transfer_cycles);
  const ReliabilityStats& rel = stats_.reliability;
  w->U64(rel.transient_errors);
  w->U64(rel.retries);
  w->U64(rel.retry_cycles);
  w->U64(rel.slot_failures);
  w->U64(rel.relocations);
  w->U64(rel.spill_relocations);
  w->U64(rel.frame_failures);
  w->U64(rel.retired_frames);
  w->U64(rel.residual_frames);
  w->U64(rel.failed_accesses);
  w->U64(rel.lost_pages);
}

void Pager::LoadState(SnapshotReader* r) {
  frames_.LoadState(r);
  replacement_->LoadState(r);
  const std::uint64_t resident_count = r->Count(frames_.frame_count());
  ResidentIndex resident(frames_.frame_count());
  for (std::uint64_t i = 0; i < resident_count && r->ok(); ++i) {
    const std::uint64_t page = r->U64();
    const FrameId frame{r->U64()};
    if (!r->ok()) {
      return;
    }
    if (frame.value >= frames_.frame_count() || !frames_.info(frame).occupied ||
        frames_.info(frame).page.value != page) {
      r->Fail(SnapshotErrorKind::kBadValue, "residency map disagrees with the frame table");
      return;
    }
    if (!resident.Insert(page, frame)) {
      r->Fail(SnapshotErrorKind::kBadValue, "page resident in two frames");
      return;
    }
  }
  if (r->ok() && resident_count != frames_.occupied_count()) {
    r->Fail(SnapshotErrorKind::kBadValue, "residency map does not cover every occupied frame");
    return;
  }
  const std::uint64_t relocated_count = r->Count(std::uint64_t{1} << 32);
  std::unordered_map<std::uint64_t, BackingStore::SlotId> slot_of;
  slot_of.reserve(relocated_count);
  for (std::uint64_t i = 0; i < relocated_count && r->ok(); ++i) {
    const std::uint64_t page = r->U64();
    const BackingStore::SlotId slot = r->U64();
    if (!slot_of.emplace(page, slot).second) {
      r->Fail(SnapshotErrorKind::kBadValue, "page relocated twice in the slot map");
      return;
    }
  }
  PagerStats stats;
  stats.accesses = r->U64();
  stats.faults = r->U64();
  stats.demand_fetches = r->U64();
  stats.extra_fetches = r->U64();
  stats.writebacks = r->U64();
  stats.evictions = r->U64();
  stats.advised_releases = r->U64();
  stats.policy_releases = r->U64();
  stats.wait_cycles = r->U64();
  stats.transfer_cycles = r->U64();
  ReliabilityStats& rel = stats.reliability;
  rel.transient_errors = r->U64();
  rel.retries = r->U64();
  rel.retry_cycles = r->U64();
  rel.slot_failures = r->U64();
  rel.relocations = r->U64();
  rel.spill_relocations = r->U64();
  rel.frame_failures = r->U64();
  rel.retired_frames = r->U64();
  rel.residual_frames = r->U64();
  rel.failed_accesses = r->U64();
  rel.lost_pages = r->U64();
  if (!r->ok()) {
    return;
  }
  resident_ = std::move(resident);
  slot_of_ = std::move(slot_of);
  stats_ = stats;
}

}  // namespace dsa
