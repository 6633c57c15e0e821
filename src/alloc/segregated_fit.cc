#include "src/alloc/segregated_fit.h"

#include <algorithm>
#include <bit>

#include "src/alloc/cost.h"
#include "src/core/assert.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace dsa {

namespace {

SizeClassMap MakeMap(const SegregatedFitConfig& config) {
  return config.single_class ? SizeClassMap::SingleClass() : SizeClassMap(config.classes);
}

}  // namespace

SegregatedFitAllocator::SegregatedFitAllocator(WordCount capacity, SegregatedFitConfig config)
    : capacity_(capacity),
      config_(config),
      map_(MakeMap(config)),
      watermark_words_(config.park_watermark_words != 0 ? config.park_watermark_words
                                                        : capacity / 64),
      class_free_(map_.size()),
      binmap_((map_.size() + 63) / 64, 0),
      quick_(map_.size()) {
  DSA_ASSERT(capacity_ > 0, "allocator needs nonzero capacity");
  DSA_ASSERT(config_.min_split_remainder >= 1, "min_split_remainder must be >= 1");
  blocks_.emplace(0, Rec{capacity_, 0, State::kFree});
  InsertClassEntry(0, capacity_);
}

bool SegregatedFitAllocator::QuickEligible(std::size_t cls, WordCount size) const {
  return config_.quick_list_capacity > 0 && size <= config_.quick_size_max &&
         cls < quick_.size();
}

std::size_t SegregatedFitAllocator::NextNonEmptyClass(std::size_t from,
                                                      Cycles* cost) const {
  for (std::size_t w = from / 64; w < binmap_.size(); ++w) {
    *cost += alloc_cost::kClassIndex;  // one binmap word read
    std::uint64_t word = binmap_[w];
    if (w == from / 64) {
      word &= ~std::uint64_t{0} << (from % 64);
    }
    if (word != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
    }
  }
  return class_free_.size();
}

SegregatedFitAllocator::BlockMap::iterator SegregatedFitAllocator::SearchClasses(
    std::size_t cls, WordCount size, Cycles* cost) {
  // Own class: blocks here may be smaller than the request, so scan
  // address-ordered first fit.
  *cost += alloc_cost::kProbe;  // inspect the class head
  for (const auto& [addr, block_size] : class_free_[cls]) {
    *cost += alloc_cost::kProbe;
    if (block_size >= size) {
      return blocks_.find(addr);
    }
  }
  // Escalate: every block in a higher class exceeds every size the
  // request's class can hold, so the next nonempty class's first
  // (lowest-addressed) block is guaranteed to fit — and taking the lowest
  // address keeps allocations packed toward the bottom of storage, which
  // preserves the high wilderness as one large hole.
  const std::size_t next = NextNonEmptyClass(cls + 1, cost);
  if (next < class_free_.size()) {
    *cost += alloc_cost::kProbe;
    return blocks_.find(class_free_[next].begin()->first);
  }
  return blocks_.end();
}

WordCount SegregatedFitAllocator::CarveFrom(BlockMap::iterator it, WordCount size,
                                            Cycles* cost) {
  const std::uint64_t addr = it->first;
  const WordCount block_size = it->second.size;
  RemoveFromClassList(addr, block_size);
  *cost += alloc_cost::kCarve;
  WordCount granted = block_size;
  if (block_size - size >= config_.min_split_remainder) {
    // Split: the allocation keeps the low end, the remainder re-joins its
    // class as a fresh free block (no merge possible — it sits inside what
    // was a maximal free extent).
    const WordCount remainder = block_size - size;
    blocks_.emplace_hint(std::next(it), addr + size, Rec{remainder, 0, State::kFree});
    InsertClassEntry(addr + size, remainder);
    *cost += alloc_cost::kCarve;
    granted = size;
  }
  it->second = Rec{granted, size, State::kLive};
  return granted;
}

std::optional<Block> SegregatedFitAllocator::Allocate(WordCount size) {
  DSA_ASSERT(size > 0, "cannot allocate zero words");
  ++stats_.allocations;
  stats_.words_requested += size;
  Cycles cost = alloc_cost::kClassIndex;
  const std::size_t cls = map_.ClassFor(size);

  // Quick-list hit: newest parked block of the class that fits, taken whole
  // (the slack is bounded by the class width and avoids a split + a later
  // merge — the quick list's entire bargain).
  if (QuickEligible(cls, size)) {
    auto& parked = quick_[cls];
    for (std::size_t i = parked.size(); i-- > 0;) {
      cost += alloc_cost::kProbe;
      const auto it = blocks_.find(parked[i]);
      if (it->second.size >= size) {
        const std::uint64_t addr = it->first;
        const WordCount granted = it->second.size;
        parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(i));
        parked_words_ -= granted;
        it->second = Rec{granted, size, State::kLive};
        live_words_ += size;
        reserved_words_ += granted;
        ++quick_stats_.quick_hits;
        stats_.words_allocated += granted;
        stats_.alloc_cycles += cost;
        DSA_TRACE_EMIT(tracer_, EventKind::kAlloc, addr, size);
        return Block{PhysicalAddress{addr}, granted};
      }
    }
  }

  auto it = SearchClasses(cls, size, &cost);
  if (it != blocks_.end() && parked_words_ > 0 &&
      config_.escalation_drain_factor > 0 &&
      it->second.size >= size * config_.escalation_drain_factor) {
    // The only fit is a block far larger than the request — about to carve
    // the wilderness.  Coalesce the parked words first; they may merge into
    // a tighter fit (and the drain was owed eventually anyway).
    cost += DrainQuickLists();
    it = SearchClasses(cls, size, &cost);
  }
  if (it == blocks_.end()) {
    // Class miss: run the deferred coalescing now and retry — parked words
    // merged back may produce a big-enough block.
    DSA_TRACE_EMIT(tracer_, EventKind::kSizeClassMiss, cls, size);
    ++quick_stats_.class_misses;
    if (parked_words_ > 0) {
      cost += DrainQuickLists();
      it = SearchClasses(cls, size, &cost);
    }
  }
  if (it == blocks_.end()) {
    ++stats_.failures;
    stats_.alloc_cycles += cost;
    return std::nullopt;
  }

  const std::uint64_t addr = it->first;
  const WordCount granted = CarveFrom(it, size, &cost);
  live_words_ += size;
  reserved_words_ += granted;
  stats_.words_allocated += granted;
  stats_.alloc_cycles += cost;
  DSA_TRACE_EMIT(tracer_, EventKind::kAlloc, addr, size);
  return Block{PhysicalAddress{addr}, granted};
}

void SegregatedFitAllocator::Free(PhysicalAddress addr) {
  auto it = blocks_.find(addr.value);
  DSA_ASSERT(it != blocks_.end() && it->second.state == State::kLive,
             "free of unknown block");
  const WordCount size = it->second.size;
  const WordCount requested = it->second.requested;
  live_words_ -= requested;
  reserved_words_ -= size;
  ++stats_.frees;
  DSA_TRACE_EMIT(tracer_, EventKind::kFree, addr.value, requested);

  Cycles cost = alloc_cost::kClassIndex;
  const std::size_t cls = map_.ClassFor(size);
  if (QuickEligible(cls, size)) {
    if (quick_[cls].size() >= config_.quick_list_capacity) {
      // Class quick list full: flush it (Dyma's overflow rule), then park.
      cost += DrainClassQuickList(cls);
    }
    it->second = Rec{size, 0, State::kParked};
    quick_[cls].push_back(addr.value);
    parked_words_ += size;
    ++quick_stats_.quick_parks;
    cost += alloc_cost::kProbe;
    if (parked_words_ > watermark_words_) {
      cost += DrainQuickLists();
    }
  } else {
    it->second.requested = 0;
    cost += InsertFree(it);
  }
  stats_.free_cycles += cost;
}

Cycles SegregatedFitAllocator::InsertFree(BlockMap::iterator it) {
  Cycles cost = alloc_cost::kProbe;  // write the block's own tags
  std::uint64_t start = it->first;
  WordCount size = it->second.size;

  // Right neighbour via the successor entry — the boundary-tag header that
  // sits at this block's end word.
  auto right = std::next(it);
  if (right != blocks_.end() && right->second.state == State::kFree &&
      start + size == right->first) {
    size += right->second.size;
    RemoveFromClassList(right->first, right->second.size);
    blocks_.erase(right);
    ++quick_stats_.merges;
    cost += alloc_cost::kMerge;
  }
  // Left neighbour via the predecessor entry — the footer just below this
  // block's first word.
  if (it != blocks_.begin()) {
    auto left = std::prev(it);
    if (left->second.state == State::kFree && left->first + left->second.size == start) {
      size += left->second.size;
      start = left->first;
      RemoveFromClassList(left->first, left->second.size);
      blocks_.erase(it);
      it = left;
      ++quick_stats_.merges;
      cost += alloc_cost::kMerge;
    }
  }
  it->second = Rec{size, 0, State::kFree};
  InsertClassEntry(start, size);
  cost += alloc_cost::kProbe;
  return cost;
}

void SegregatedFitAllocator::InsertClassEntry(std::uint64_t addr, WordCount size) {
  const std::size_t cls = map_.ClassFor(size);
  class_free_[cls].emplace(addr, size);
  binmap_[cls / 64] |= std::uint64_t{1} << (cls % 64);
}

Cycles SegregatedFitAllocator::DrainClassQuickList(std::size_t cls) {
  Cycles cost = 0;
  std::uint64_t blocks = 0;
  WordCount words = 0;
  [[maybe_unused]] const std::uint64_t merges_before = quick_stats_.merges;
  for (const std::uint64_t addr : quick_[cls]) {
    auto it = blocks_.find(addr);
    parked_words_ -= it->second.size;
    words += it->second.size;
    ++blocks;
    it->second.requested = 0;
    cost += InsertFree(it);
  }
  quick_[cls].clear();
  if (blocks > 0) {
    ++quick_stats_.drains;
    quick_stats_.drained_blocks += blocks;
    DSA_TRACE_EMIT(tracer_, EventKind::kDeferredCoalesce, blocks, words,
                   quick_stats_.merges - merges_before);
  }
  return cost;
}

Cycles SegregatedFitAllocator::DrainQuickLists() {
  Cycles cost = 0;
  std::uint64_t blocks = 0;
  WordCount words = 0;
  [[maybe_unused]] const std::uint64_t merges_before = quick_stats_.merges;
  for (std::size_t cls = 0; cls < quick_.size(); ++cls) {
    for (const std::uint64_t addr : quick_[cls]) {
      auto it = blocks_.find(addr);
      parked_words_ -= it->second.size;
      words += it->second.size;
      ++blocks;
      it->second.requested = 0;
      cost += InsertFree(it);
    }
    quick_[cls].clear();
  }
  if (blocks > 0) {
    ++quick_stats_.drains;
    quick_stats_.drained_blocks += blocks;
    DSA_TRACE_EMIT(tracer_, EventKind::kDeferredCoalesce, blocks, words,
                   quick_stats_.merges - merges_before);
  }
  return cost;
}

void SegregatedFitAllocator::RemoveFromClassList(std::uint64_t addr, WordCount size) {
  const std::size_t cls = map_.ClassFor(size);
  auto& cls_map = class_free_[cls];
  const auto erased = cls_map.erase(addr);
  DSA_ASSERT(erased == 1, "free block missing from its class list");
  if (cls_map.empty()) {
    binmap_[cls / 64] &= ~(std::uint64_t{1} << (cls % 64));
  }
}

std::string SegregatedFitAllocator::name() const {
  std::string n = "segregated-fit";
  if (config_.single_class) {
    n += "/single";
  }
  if (config_.quick_list_capacity == 0) {
    n += "/eager";
  }
  return n;
}

std::vector<WordCount> SegregatedFitAllocator::HoleSizes() const {
  std::vector<WordCount> holes;
  WordCount run = 0;
  for (const auto& [addr, rec] : blocks_) {
    if (rec.state == State::kLive) {
      if (run > 0) {
        holes.push_back(run);
        run = 0;
      }
    } else {
      run += rec.size;
    }
  }
  if (run > 0) {
    holes.push_back(run);
  }
  return holes;
}

std::vector<Block> SegregatedFitAllocator::LiveBlocks() const {
  std::vector<Block> live;
  for (const auto& [addr, rec] : blocks_) {
    if (rec.state == State::kLive) {
      live.push_back(Block{PhysicalAddress{addr}, rec.size});
    }
  }
  return live;
}

void SegregatedFitAllocator::Relocate(PhysicalAddress from, PhysicalAddress to) {
  if (from == to) {
    return;
  }
  auto it = blocks_.find(from.value);
  DSA_ASSERT(it != blocks_.end() && it->second.state == State::kLive,
             "relocate of unknown block");
  DSA_ASSERT(parked_words_ == 0, "relocate with parked blocks (PrepareForCompaction skipped)");
  const WordCount size = it->second.size;
  const WordCount requested = it->second.requested;
  // Free the block eagerly; slide-down packing guarantees the destination
  // now starts a maximal free extent that holds the whole block.
  InsertFree(it);
  auto dst = blocks_.find(to.value);
  DSA_ASSERT(dst != blocks_.end() && dst->second.state == State::kFree &&
                 dst->second.size >= size,
             "relocation destination is not free");
  RemoveFromClassList(to.value, dst->second.size);
  if (dst->second.size > size) {
    const WordCount remainder = dst->second.size - size;
    blocks_.emplace_hint(std::next(dst), to.value + size, Rec{remainder, 0, State::kFree});
    InsertClassEntry(to.value + size, remainder);
  }
  dst->second = Rec{size, requested, State::kLive};
}

std::size_t SegregatedFitAllocator::parked_blocks() const {
  std::size_t count = 0;
  for (const auto& parked : quick_) {
    count += parked.size();
  }
  return count;
}

void SegregatedFitAllocator::PublishMetrics(MetricsRegistry* registry,
                                            const std::string& prefix) const {
  for (std::size_t cls = 0; cls < class_free_.size(); ++cls) {
    const std::string base =
        prefix + ".class" + (cls < 10 ? "0" : "") + std::to_string(cls);
    registry->GetCounter(base + ".free_blocks")->Set(class_free_[cls].size());
    registry->GetCounter(base + ".parked_blocks")->Set(quick_[cls].size());
  }
  registry->GetCounter(prefix + ".quick_hits")->Set(quick_stats_.quick_hits);
  registry->GetCounter(prefix + ".quick_parks")->Set(quick_stats_.quick_parks);
  registry->GetCounter(prefix + ".class_misses")->Set(quick_stats_.class_misses);
  registry->GetCounter(prefix + ".drains")->Set(quick_stats_.drains);
  registry->GetCounter(prefix + ".merges")->Set(quick_stats_.merges);
  registry->GetCounter(prefix + ".parked_words")->Set(parked_words_);
}

bool SegregatedFitAllocator::CheckInvariants(std::string* error) const {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };

  // 1. The block map tiles [0, capacity) with no gaps or overlaps.
  std::uint64_t cursor = 0;
  WordCount live = 0;
  WordCount reserved = 0;
  WordCount parked = 0;
  WordCount free = 0;
  const Rec* prev = nullptr;
  for (const auto& [addr, rec] : blocks_) {
    if (addr != cursor) {
      return fail("block map gap/overlap at address " + std::to_string(addr));
    }
    if (rec.size == 0) {
      return fail("zero-sized block at " + std::to_string(addr));
    }
    cursor += rec.size;
    switch (rec.state) {
      case State::kLive:
        live += rec.requested;
        reserved += rec.size;
        if (rec.requested == 0 || rec.requested > rec.size) {
          return fail("live block with inconsistent requested size at " +
                      std::to_string(addr));
        }
        break;
      case State::kFree:
        free += rec.size;
        if (prev != nullptr && prev->state == State::kFree) {
          return fail("adjacent free blocks left unmerged at " + std::to_string(addr));
        }
        break;
      case State::kParked:
        parked += rec.size;
        break;
    }
    prev = &blocks_.at(addr);
  }
  if (cursor != capacity_) {
    return fail("block map does not reach capacity");
  }

  // 2. Byte conservation across deferred coalescing.
  if (reserved + free + parked != capacity_) {
    return fail("words not conserved: reserved + free + parked != capacity");
  }
  if (live != live_words_ || reserved != reserved_words_ || parked != parked_words_) {
    return fail("words counters disagree with the block map");
  }

  // 3. Index membership: every free block in exactly its class list, every
  //    parked block on exactly one quick list, and nothing on both.
  std::size_t indexed_free = 0;
  for (std::size_t cls = 0; cls < class_free_.size(); ++cls) {
    const bool bit = (binmap_[cls / 64] >> (cls % 64)) & 1;
    if (bit != !class_free_[cls].empty()) {
      return fail("binmap bit out of sync for class " + std::to_string(cls));
    }
    for (const auto& [addr, size] : class_free_[cls]) {
      const auto it = blocks_.find(addr);
      if (it == blocks_.end() || it->second.state != State::kFree ||
          it->second.size != size || map_.ClassFor(size) != cls) {
        return fail("class list entry out of sync at " + std::to_string(addr));
      }
      ++indexed_free;
    }
  }
  std::size_t indexed_parked = 0;
  for (std::size_t cls = 0; cls < quick_.size(); ++cls) {
    for (const std::uint64_t addr : quick_[cls]) {
      const auto it = blocks_.find(addr);
      if (it == blocks_.end() || it->second.state != State::kParked ||
          map_.ClassFor(it->second.size) != cls) {
        return fail("quick list entry out of sync at " + std::to_string(addr));
      }
      ++indexed_parked;
    }
  }
  std::size_t free_blocks = 0;
  std::size_t parked_count = 0;
  for (const auto& [addr, rec] : blocks_) {
    free_blocks += rec.state == State::kFree;
    parked_count += rec.state == State::kParked;
  }
  if (indexed_free != free_blocks) {
    return fail("free block count disagrees with the class lists");
  }
  if (indexed_parked != parked_count) {
    return fail("parked block count disagrees with the quick lists");
  }
  return true;
}

}  // namespace dsa
