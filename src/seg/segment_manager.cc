#include "src/seg/segment_manager.h"

#include <algorithm>
#include <bit>
#include <utility>

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
  DSA_ASSERT(Exists(segment), "unknown segment");
  return segments_[segment.value];
}

const SegmentManager::SegmentInfo& SegmentManager::InfoFor(SegmentId segment) const {
  DSA_ASSERT(Exists(segment), "unknown segment");
  return segments_[segment.value];
}

SegmentId SegmentManager::Create(WordCount extent) {
  DSA_ASSERT(extent > 0, "segments are nonempty");
  DSA_ASSERT(extent <= config_.max_segment_extent, "segment exceeds the maximum extent");
  const SegmentId id{segments_.size()};
  SegmentInfo& info = segments_.emplace_back();
  info.live = true;
  info.extent = extent;
  ++live_segments_;
  if (id.value / 64 == resident_.size()) {
    resident_.push_back(0);
  }
  return id;
}

void SegmentManager::Destroy(SegmentId segment) {
  SegmentInfo& info = InfoFor(segment);
  if (info.present) {
    ClearResident(segment.value);
    allocator_.Free(info.base);
  }
  if (info.has_backing_copy) {
    backing_->Discard(segment.value);
  }
  info = SegmentInfo{};
  --live_segments_;
}

std::uint64_t SegmentManager::NextResident(std::uint64_t from) const {
  std::size_t word = from / 64;
  if (word >= resident_.size()) {
    return kNoSegment;
  }
  std::uint64_t bits = resident_[word] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word == resident_.size()) {
      return kNoSegment;
    }
    bits = resident_[word];
  }
  return word * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
}

bool SegmentManager::IsResident(SegmentId segment) const { return InfoFor(segment).present; }

WordCount SegmentManager::ExtentOf(SegmentId segment) const { return InfoFor(segment).extent; }

std::optional<SegmentId> SegmentManager::ChooseVictim() {
  switch (config_.replacement) {
    case SegmentReplacementKind::kCyclic: {
      // Sweep segment ids cyclically: the next resident id from the cursor,
      // else wrap to the lowest resident id.
      std::uint64_t id = NextResident(cyclic_cursor_);
      if (id == kNoSegment) {
        id = NextResident(0);
        if (id == kNoSegment) {
          return std::nullopt;
        }
      }
      cyclic_cursor_ = id + 1;
      return SegmentId{id};
    }
    case SegmentReplacementKind::kLru: {
      // Strict `<` in id order: the lowest id wins among equal last uses.
      std::uint64_t victim = NextResident(0);
      if (victim == kNoSegment) {
        return std::nullopt;
      }
      for (std::uint64_t id = NextResident(victim + 1); id != kNoSegment;
           id = NextResident(id + 1)) {
        if (segments_[id].last_use < segments_[victim].last_use) {
          victim = id;
        }
      }
      return SegmentId{victim};
    }
    case SegmentReplacementKind::kRiceSecondChance: {
      // "Takes into account whether a copy of a segment exists in backing
      // storage and whether or not a segment has been used since it was last
      // considered for replacement."  Preference order: clean+unused,
      // unused, clean, anything — clearing use sensors as they are passed.
      // The second pass returns the first resident segment, so falling out
      // of both passes means none is resident.
      for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t id = NextResident(0); id != kNoSegment; id = NextResident(id + 1)) {
          SegmentInfo& info = segments_[id];
          if (info.use) {
            info.use = false;  // second chance
            continue;
          }
          if (info.has_backing_copy && !info.modified) {
            return SegmentId{id};  // free to discard
          }
          if (pass == 1) {
            return SegmentId{id};  // unused but needs a write-back
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
  ClearResident(victim.value);
  allocator_.Free(info.base);
  info.present = false;
  ++stats_.evictions;
}

void SegmentManager::CompactCore() {
  // The resident segments by base, taken once: compaction moves each live
  // block at most once, so the old bases stay the keys of every move.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_base;  // (base, id)
  for (std::uint64_t id = NextResident(0); id != kNoSegment; id = NextResident(id + 1)) {
    by_base.emplace_back(segments_[id].base.value, id);
  }
  std::sort(by_base.begin(), by_base.end());
  const CompactionResult result = compactor_.Compact(
      &allocator_, /*store=*/nullptr,
      [this, &by_base](PhysicalAddress from, PhysicalAddress to, WordCount size) {
        (void)size;
        const auto it = std::lower_bound(by_base.begin(), by_base.end(),
                                         std::pair{from.value, std::uint64_t{0}});
        DSA_ASSERT(it != by_base.end() && it->first == from.value,
                   "moved block is not a resident segment");
        segments_[it->second].base = to;  // the only stored absolute address
      });
  ++stats_.compactions;
  stats_.words_compacted += result.words_moved;
  stats_.compaction_cycles += result.move_cycles;
}

std::optional<Block> SegmentManager::MakeRoom(WordCount size, Cycles now) {
  for (;;) {
    if (auto block = allocator_.Allocate(size)) {
      return block;
    }
    // Enough free words but no hole big enough => fragmentation; compact if
    // the configuration allows, otherwise fall through to eviction.
    if (config_.compact_on_fragmentation && allocator_.free_list().total_free() >= size &&
        allocator_.free_list().largest_hole() < size) {
      CompactCore();
      continue;
    }
    const std::optional<SegmentId> victim = ChooseVictim();
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
  MarkResident(segment.value);
  return wait;
}

Expected<SegmentAccessOutcome, Fault> SegmentManager::Access(SegmentId segment, WordCount offset,
                                                             AccessKind kind, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  ++stats_.accesses;
  if (!Exists(segment)) {
    Fault fault;
    fault.kind = FaultKind::kInvalidSegment;
    fault.segment = segment;
    return MakeUnexpected(fault);
  }
  SegmentInfo& info = segments_[segment.value];
  if (offset >= info.extent) {
    // The automatic subscript check segmentation buys.
    Fault fault;
    fault.kind = FaultKind::kBoundsViolation;
    fault.segment = segment;
    fault.name = Name{offset};
    return MakeUnexpected(fault);
  }

  SegmentAccessOutcome outcome;
  if (!info.present) {
    ++stats_.segment_faults;
    DSA_TRACE_EMIT(tracer_, EventKind::kSegmentFault, segment.value, info.extent);
    outcome.segment_fault = true;
    const std::optional<Block> block = MakeRoom(info.extent, now);
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

void SegmentManager::AdviseWontNeed(SegmentId segment, Cycles now) {
  DSA_TRACE_CLOCK(tracer_, now);
  SegmentInfo& info = InfoFor(segment);
  if (info.present) {
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
