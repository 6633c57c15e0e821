#include "src/paging/frame_table.h"

#include "src/core/assert.h"
#include "src/core/snapshot.h"
#include "src/obs/tracer.h"

namespace dsa {

FrameTable::FrameTable(std::size_t frames)
    : frames_(frames), fifo_(frames + 1), lru_(frames + 1) {
  DSA_ASSERT(frames > 0, "frame table needs at least one frame");
  free_.reserve(frames);
  // Stack ordered so the lowest index pops first.
  for (std::size_t f = frames; f > 0; --f) {
    free_.push_back(FrameId{f - 1});
  }
  // Both lists start empty: the sentinel points at itself.
  fifo_[frames] = Link{frames, frames};
  lru_[frames] = Link{frames, frames};
}

const FrameInfo& FrameTable::info(FrameId frame) const {
  DSA_ASSERT(frame.value < frames_.size(), "frame out of range");
  return frames_[frame.value];
}

FrameInfo& FrameTable::MutableInfo(FrameId frame) {
  DSA_ASSERT(frame.value < frames_.size(), "frame out of range");
  return frames_[frame.value];
}

void FrameTable::ListRemove(std::vector<Link>& list, std::size_t node) {
  list[list[node].prev].next = list[node].next;
  list[list[node].next].prev = list[node].prev;
}

void FrameTable::ListPushBack(std::vector<Link>& list, std::size_t node) {
  const std::size_t sentinel = frames_.size();
  list[node].prev = list[sentinel].prev;
  list[node].next = sentinel;
  list[list[sentinel].prev].next = node;
  list[sentinel].prev = node;
}

std::optional<FrameId> FrameTable::FirstUnpinned(const std::vector<Link>& list) const {
  const std::size_t sentinel = frames_.size();
  for (std::size_t node = list[sentinel].next; node != sentinel; node = list[node].next) {
    if (!frames_[node].pinned) {
      return FrameId{node};
    }
  }
  return std::nullopt;
}

std::optional<FrameId> FrameTable::OldestLoadedCandidate() const {
  return FirstUnpinned(fifo_);
}

std::optional<FrameId> FrameTable::LeastRecentlyUsedCandidate() const {
  return FirstUnpinned(lru_);
}

std::optional<FrameId> FrameTable::TakeFreeFrame() {
  if (free_.empty()) {
    return std::nullopt;
  }
  const FrameId frame = free_.back();
  free_.pop_back();
  return frame;
}

void FrameTable::ReturnFreeFrame(FrameId frame) {
  const FrameInfo& returned = info(frame);
  DSA_ASSERT(!returned.occupied, "returning an occupied frame to the free pool");
  DSA_ASSERT(!returned.retired, "returning a retired frame to the free pool");
  free_.push_back(frame);
}

void FrameTable::RetireFrame(FrameId frame) {
  FrameInfo& info = MutableInfo(frame);
  DSA_ASSERT(!info.occupied, "retiring an occupied frame; evict its page first");
  DSA_ASSERT(!info.retired, "retiring a frame twice");
  // The frame is either in the free pool or in the taken-but-never-loaded
  // limbo a failed fetch leaves behind; drop any free-pool entry so
  // TakeFreeFrame can never hand it out again.
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i] == frame) {
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  info = FrameInfo{};
  info.retired = true;
  ++retired_;
  DSA_TRACE_EMIT(tracer_, EventKind::kFrameRetire, frame.value);
}

void FrameTable::Load(FrameId frame, PageId page, Cycles now) {
  FrameInfo& info = MutableInfo(frame);
  DSA_ASSERT(!info.occupied, "loading into an occupied frame");
  DSA_ASSERT(!info.retired, "loading into a retired frame");
  info = FrameInfo{};
  info.occupied = true;
  info.page = page;
  info.load_time = now;
  info.last_use = now;
  ++occupied_;
  ListPushBack(fifo_, frame.value);
  ListPushBack(lru_, frame.value);
  DSA_TRACE_EMIT(tracer_, EventKind::kFrameLoad, page.value, frame.value);
}

void FrameTable::Evict(FrameId frame) {
  FrameInfo& info = MutableInfo(frame);
  DSA_ASSERT(info.occupied, "evicting an empty frame");
  DSA_ASSERT(!info.pinned, "evicting a pinned frame");
  DSA_TRACE_EMIT(tracer_, EventKind::kFrameEvict, info.page.value, frame.value);
  info = FrameInfo{};
  free_.push_back(frame);
  --occupied_;
  ListRemove(fifo_, frame.value);
  ListRemove(lru_, frame.value);
}

void FrameTable::Touch(FrameId frame, Cycles now, bool write, Cycles idle_threshold) {
  FrameInfo& info = MutableInfo(frame);
  DSA_ASSERT(info.occupied, "touching an empty frame");
  const Cycles idle = now > info.last_use ? now - info.last_use : 0;
  if (idle > idle_threshold) {
    // A period of inactivity just ended; remember its length for the ATLAS
    // learning program's next-use prediction.
    info.previous_idle = idle;
  }
  info.use = true;
  if (write) {
    info.modified = true;
  }
  info.last_use = now;
  // Most references repeat the page just used, whose frame is already the
  // LRU tail; relinking it there would leave the list unchanged.
  if (lru_[frames_.size()].prev != frame.value) {
    ListRemove(lru_, frame.value);
    ListPushBack(lru_, frame.value);
  }
}

void FrameTable::Pin(FrameId frame) {
  FrameInfo& info = MutableInfo(frame);
  DSA_ASSERT(info.occupied, "pinning an empty frame");
  if (!info.pinned) {
    ++pinned_;
  }
  info.pinned = true;
}

void FrameTable::Unpin(FrameId frame) {
  FrameInfo& info = MutableInfo(frame);
  if (info.pinned) {
    --pinned_;
  }
  info.pinned = false;
}

void FrameTable::ClearUse(FrameId frame) { MutableInfo(frame).use = false; }

void FrameTable::ClearModified(FrameId frame) { MutableInfo(frame).modified = false; }

void FrameTable::SaveState(SnapshotWriter* w) const {
  // Each intrusive list is serialized as its head-to-tail frame sequence; the
  // sequence, not the raw links, because a sequence can be validated (every
  // member occupied, no duplicates, all occupied frames present) before any
  // pointer surgery happens.
  const std::size_t sentinel = frames_.size();
  const auto save_order = [&](const std::vector<Link>& list) {
    w->U64(occupied_);
    for (std::size_t node = list[sentinel].next; node != sentinel; node = list[node].next) {
      w->U64(node);
    }
  };
  w->U64(frames_.size());
  for (const FrameInfo& info : frames_) {
    w->Bool(info.occupied);
    w->Bool(info.pinned);
    w->Bool(info.retired);
    w->U64(info.page.value);
    w->Bool(info.use);
    w->Bool(info.modified);
    w->U64(info.load_time);
    w->U64(info.last_use);
    w->U64(info.previous_idle);
  }
  w->U64(free_.size());
  for (FrameId f : free_) {
    w->U64(f.value);
  }
  save_order(fifo_);
  save_order(lru_);
}

void FrameTable::LoadState(SnapshotReader* r) {
  const std::uint64_t count = r->U64();
  if (r->ok() && count != frames_.size()) {
    r->Fail(SnapshotErrorKind::kBadValue, "frame table size mismatch");
  }
  if (!r->ok()) {
    return;
  }
  std::vector<FrameInfo> frames(frames_.size());
  std::size_t occupied = 0;
  std::size_t pinned = 0;
  std::size_t retired = 0;
  for (FrameInfo& info : frames) {
    info.occupied = r->Bool();
    info.pinned = r->Bool();
    info.retired = r->Bool();
    info.page = PageId{r->U64()};
    info.use = r->Bool();
    info.modified = r->Bool();
    info.load_time = r->U64();
    info.last_use = r->U64();
    info.previous_idle = r->U64();
    occupied += info.occupied ? 1 : 0;
    pinned += info.pinned ? 1 : 0;
    retired += info.retired ? 1 : 0;
    if (info.occupied && info.retired) {
      r->Fail(SnapshotErrorKind::kBadValue, "frame both occupied and retired");
    }
  }
  std::vector<FrameId> free;
  const std::uint64_t free_count = r->Count(frames_.size());
  free.reserve(free_count);
  for (std::uint64_t i = 0; i < free_count; ++i) {
    const std::uint64_t f = r->U64();
    if (r->ok() && (f >= frames.size() || frames[f].occupied || frames[f].retired)) {
      r->Fail(SnapshotErrorKind::kBadValue, "free-pool entry is not a vacant frame");
      return;
    }
    free.push_back(FrameId{f});
  }
  // Rebuild each intrusive list from its serialized order.
  const std::size_t sentinel = frames_.size();
  std::vector<Link> fifo(frames_.size() + 1);
  std::vector<Link> lru(frames_.size() + 1);
  for (std::vector<Link>* list : {&fifo, &lru}) {
    (*list)[sentinel] = Link{sentinel, sentinel};
    const std::uint64_t length = r->Count(frames_.size());
    if (r->ok() && length != occupied) {
      r->Fail(SnapshotErrorKind::kBadValue, "intrusive list order does not cover occupancy");
      return;
    }
    std::vector<bool> seen(frames_.size(), false);
    for (std::uint64_t i = 0; i < length; ++i) {
      const std::uint64_t node = r->U64();
      if (!r->ok()) {
        return;
      }
      if (node >= frames.size() || !frames[node].occupied || seen[node]) {
        r->Fail(SnapshotErrorKind::kBadValue, "intrusive list order names a non-occupied frame");
        return;
      }
      seen[node] = true;
      (*list)[node].prev = (*list)[sentinel].prev;
      (*list)[node].next = sentinel;
      (*list)[(*list)[sentinel].prev].next = node;
      (*list)[sentinel].prev = node;
    }
  }
  if (!r->ok()) {
    return;
  }
  frames_ = std::move(frames);
  free_ = std::move(free);
  occupied_ = occupied;
  pinned_ = pinned;
  retired_ = retired;
  fifo_ = std::move(fifo);
  lru_ = std::move(lru);
}

std::vector<FrameId> FrameTable::EvictionCandidates() const {
  std::vector<FrameId> candidates;
  candidates.reserve(occupied_);
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    if (frames_[f].occupied && !frames_[f].pinned) {
      candidates.push_back(FrameId{f});
    }
  }
  return candidates;
}

}  // namespace dsa
