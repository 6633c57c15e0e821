#include "src/seg/segment_manager.h"

#include <algorithm>

#include "src/core/assert.h"
#include "src/obs/tracer.h"

namespace dsa {

SegmentManager::SegmentManager(SegmentManagerConfig config, BackingStore* backing,
                               TransferChannel* channel)
    : config_(config),
      backing_(backing),
      channel_(channel),
      allocator_(config.core_words, MakePlacementPolicy(config.placement)),
      compactor_(config.packing) {
  DSA_ASSERT(backing_ != nullptr, "segment manager needs a backing store");
  DSA_ASSERT(config_.max_segment_extent <= config_.core_words,
             "segments must fit working storage when the segment is the allocation unit");
}

SegmentManager::SegmentInfo& SegmentManager::InfoFor(SegmentId segment) {
  auto it = segments_.find(segment.value);
  DSA_ASSERT(it != segments_.end(), "unknown segment");
  return it->second;
}

const SegmentManager::SegmentInfo& SegmentManager::InfoFor(SegmentId segment) const {
  auto it = segments_.find(segment.value);
  DSA_ASSERT(it != segments_.end(), "unknown segment");
  return it->second;
}

SegmentId SegmentManager::Create(WordCount extent) {
  DSA_ASSERT(extent > 0, "segments are nonempty");
  DSA_ASSERT(extent <= config_.max_segment_extent, "segment exceeds the maximum extent");
  const SegmentId id{next_segment_id_++};
  SegmentInfo info;
  info.extent = extent;
  segments_.emplace(id.value, info);
  return id;
}

void SegmentManager::Destroy(SegmentId segment) {
  SegmentInfo& info = InfoFor(segment);
  if (info.present) {
    resident_.erase(segment.value);
    resident_by_base_.erase(info.base.value);
    allocator_.Free(info.base);
  }
  if (info.has_backing_copy) {
    backing_->Discard(segment.value);
  }
  segments_.erase(segment.value);
}

bool SegmentManager::IsResident(SegmentId segment) const { return InfoFor(segment).present; }

WordCount SegmentManager::ExtentOf(SegmentId segment) const { return InfoFor(segment).extent; }

std::optional<SegmentId> SegmentManager::ChooseVictim(SegmentId requester) {
  const auto eligible = [requester](const auto& entry) {
    return !entry.second->pinned && entry.first != requester.value;
  };
  switch (config_.replacement) {
    case SegmentReplacementKind::kCyclic: {
      // Sweep segment ids cyclically from the cursor, wrapping once.
      const auto from = resident_.lower_bound(cyclic_cursor_);
      auto it = std::find_if(from, resident_.end(), eligible);
      if (it == resident_.end()) {
        it = std::find_if(resident_.begin(), from, eligible);
        if (it == from) {
          return std::nullopt;
        }
      }
      cyclic_cursor_ = it->first + 1;
      return SegmentId{it->first};
    }
    case SegmentReplacementKind::kLru: {
      // Strict `<` in id order: the lowest id wins among equal last uses.
      auto victim = resident_.end();
      for (auto it = resident_.begin(); it != resident_.end(); ++it) {
        if (eligible(*it) &&
            (victim == resident_.end() || it->second->last_use < victim->second->last_use)) {
          victim = it;
        }
      }
      if (victim == resident_.end()) {
        return std::nullopt;
      }
      return SegmentId{victim->first};
    }
    case SegmentReplacementKind::kRiceSecondChance: {
      // "Takes into account whether a copy of a segment exists in backing
      // storage and whether or not a segment has been used since it was last
      // considered for replacement."  Preference order: clean+unused,
      // unused, clean, anything — clearing use sensors as they are passed.
      // The second pass returns the first eligible segment, so falling out
      // of both passes means there is none.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& entry : resident_) {
          if (!eligible(entry)) {
            continue;
          }
          SegmentInfo& info = *entry.second;
          if (info.use) {
            info.use = false;  // second chance
            continue;
          }
          if (info.has_backing_copy && !info.modified) {
            return SegmentId{entry.first};  // free to discard
          }
          if (pass == 1) {
            return SegmentId{entry.first};  // unused but needs a write-back
          }
        }
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void SegmentManager::Evict(SegmentId victim, Cycles now) {
  SegmentInfo& info = InfoFor(victim);
  DSA_ASSERT(info.present, "evicting an absent segment");
  if (info.modified || !info.has_backing_copy) {
    ++stats_.writebacks;
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, victim.value, /*level=*/0,
                   /*direction=*/1);
    if (channel_ != nullptr) {
      channel_->Schedule(backing_->level(), info.extent, now);
    }
    [[maybe_unused]] const Cycles store_cycles = backing_->StoreZeros(victim.value, info.extent);
    DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, victim.value, /*level=*/0,
                   store_cycles);
    info.has_backing_copy = true;
    info.modified = false;
  }
  resident_.erase(victim.value);
  resident_by_base_.erase(info.base.value);
  allocator_.Free(info.base);
  info.present = false;
  ++stats_.evictions;
}

void SegmentManager::CompactCore(Cycles now) {
  (void)now;
  const CompactionResult result = compactor_.Compact(
      &allocator_, /*store=*/nullptr,
      [this](PhysicalAddress from, PhysicalAddress to, WordCount size) {
        (void)size;
        auto it = resident_by_base_.find(from.value);
        DSA_ASSERT(it != resident_by_base_.end(), "moved block is not a resident segment");
        const SegmentId segment = it->second;
        resident_by_base_.erase(it);
        resident_by_base_.emplace(to.value, segment);
        InfoFor(segment).base = to;  // the only stored absolute address
      });
  ++stats_.compactions;
  stats_.words_compacted += result.words_moved;
  stats_.compaction_cycles += result.move_cycles;
}

std::optional<Block> SegmentManager::MakeRoom(WordCount size, Cycles now, SegmentId requester) {
  for (;;) {
    if (auto block = allocator_.Allocate(size)) {
      return block;
    }
    // Enough free words but no hole big enough => fragmentation; compact if
    // the configuration allows, otherwise fall through to eviction.
    if (config_.compact_on_fragmentation && allocator_.free_list().total_free() >= size &&
        allocator_.free_list().largest_hole() < size) {
      CompactCore(now);
      continue;
    }
    const std::optional<SegmentId> victim = ChooseVictim(requester);
    if (!victim.has_value()) {
      return std::nullopt;
    }
    Evict(*victim, now);
  }
}

Cycles SegmentManager::FetchInto(SegmentId segment, Block block, Cycles now) {
  SegmentInfo& info = InfoFor(segment);
  DSA_TRACE_EMIT(tracer_, EventKind::kTransferStart, segment.value, /*level=*/0,
                 /*direction=*/0);
  // Nothing reads the fetched words: charge the transfer without copying.
  Cycles wait = 0;
  if (channel_ != nullptr) {
    const TransferChannel::Completion done =
        channel_->Schedule(backing_->level(), info.extent, now);
    wait = done.finish - now;
    backing_->Fetch(segment.value, info.extent, nullptr);
  } else {
    wait = backing_->Fetch(segment.value, info.extent, nullptr);
  }
  DSA_TRACE_EMIT(tracer_, EventKind::kTransferComplete, segment.value, /*level=*/0, wait);
  info.present = true;
  info.base = block.addr;
  resident_.emplace(segment.value, &info);
  resident_by_base_.emplace(block.addr.value, segment);
  return wait;
}

Expected<SegmentAccessOutcome, Fault> SegmentManager::Access(SegmentId segment, WordCount offset,
                                                             AccessKind kind, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  ++stats_.accesses;
  auto it = segments_.find(segment.value);
  if (it == segments_.end()) {
    Fault fault;
    fault.kind = FaultKind::kInvalidSegment;
    fault.segment = segment;
    return MakeUnexpected(fault);
  }
  SegmentInfo& info = it->second;
  if (offset >= info.extent) {
    // The automatic subscript check segmentation buys.
    Fault fault;
    fault.kind = FaultKind::kBoundsViolation;
    fault.segment = segment;
    fault.name = Name{offset};
    return MakeUnexpected(fault);
  }

  if (!info.protection.Permits(kind)) {
    Fault fault;
    fault.kind = FaultKind::kProtectionViolation;
    fault.segment = segment;
    fault.name = Name{offset};
    return MakeUnexpected(fault);
  }

  SegmentAccessOutcome outcome;
  if (!info.present) {
    ++stats_.segment_faults;
    DSA_TRACE_EMIT(tracer_, EventKind::kSegmentFault, segment.value, info.extent);
    outcome.segment_fault = true;
    const std::optional<Block> block = MakeRoom(info.extent, now, segment);
    if (!block.has_value()) {
      Fault fault;
      fault.kind = FaultKind::kSegmentNotPresent;
      fault.segment = segment;
      return MakeUnexpected(fault);
    }
    outcome.wait_cycles = FetchInto(segment, *block, now);
    stats_.wait_cycles += outcome.wait_cycles;
  }

  info.use = true;
  info.last_use = now + outcome.wait_cycles;
  if (kind == AccessKind::kWrite) {
    info.modified = true;
  }
  outcome.address = PhysicalAddress{info.base.value + offset};
  return outcome;
}

Expected<SegmentAccessOutcome, Fault> SegmentManager::Resize(SegmentId segment, WordCount extent,
                                                             Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  DSA_ASSERT(extent > 0, "segments are nonempty");
  if (extent > config_.max_segment_extent) {
    Fault fault;
    fault.kind = FaultKind::kBoundsViolation;
    fault.segment = segment;
    fault.name = Name{extent};
    return MakeUnexpected(fault);
  }
  SegmentInfo& info = InfoFor(segment);
  SegmentAccessOutcome outcome;
  if (!info.present || extent <= info.extent) {
    // Absent segments just change their declared extent; shrinking a
    // resident segment keeps it in place (the tail is abandoned at the next
    // eviction — matching descriptor semantics, which carry one base+extent).
    info.extent = extent;
    if (info.present) {
      outcome.address = info.base;
    }
    // A stale backing copy of the old size is superseded on next write-back.
    return outcome;
  }
  // Growing a resident segment: obtain a new block, logically move the
  // contents, release the old one.
  const WordCount old_extent = info.extent;
  const std::optional<Block> grown = MakeRoom(extent, now, segment);
  if (!grown.has_value()) {
    Fault fault;
    fault.kind = FaultKind::kSegmentNotPresent;
    fault.segment = segment;
    return MakeUnexpected(fault);
  }
  // Read the old base only now: compacting inside MakeRoom may have moved it.
  resident_by_base_.erase(info.base.value);
  allocator_.Free(info.base);
  resident_by_base_.emplace(grown->addr.value, segment);
  info.base = grown->addr;
  info.extent = extent;
  info.modified = true;
  outcome.address = grown->addr;
  outcome.wait_cycles = config_.packing.MoveCost(old_extent);
  stats_.wait_cycles += outcome.wait_cycles;
  return outcome;
}

void SegmentManager::SetProtection(SegmentId segment, SegmentProtection protection) {
  InfoFor(segment).protection = protection;
}

SegmentProtection SegmentManager::ProtectionOf(SegmentId segment) const {
  return InfoFor(segment).protection;
}

void SegmentManager::AdviseKeepResident(SegmentId segment) { InfoFor(segment).pinned = true; }

void SegmentManager::RevokeKeepResident(SegmentId segment) { InfoFor(segment).pinned = false; }

void SegmentManager::AdviseWontNeed(SegmentId segment, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  SegmentInfo& info = InfoFor(segment);
  if (info.present && !info.pinned) {
    Evict(segment, now);
  }
}

Cycles SegmentManager::AdviseWillNeed(SegmentId segment, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  SegmentInfo& info = InfoFor(segment);
  if (info.present) {
    return 0;
  }
  // Advisory: fetch only if a hole already fits — never evict for advice.
  if (auto block = allocator_.Allocate(info.extent)) {
    return FetchInto(segment, *block, now);
  }
  return 0;
}

}  // namespace dsa
