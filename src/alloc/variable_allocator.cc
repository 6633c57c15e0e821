#include "src/alloc/variable_allocator.h"

#include <limits>

#include "src/alloc/cost.h"
#include "src/core/assert.h"
#include "src/obs/tracer.h"

namespace dsa {

namespace {

// Index-probing policies (best/worst fit) answer from the free list's
// sorted size index; their honest search cost is the depth of a balanced
// search over it, not the single "hole examined" they report.
bool UsesSizeIndex(const PlacementPolicy& policy) {
  return policy.kind() == PlacementStrategyKind::kBestFit ||
         policy.kind() == PlacementStrategyKind::kWorstFit;
}

}  // namespace

VariableAllocator::VariableAllocator(WordCount capacity, std::unique_ptr<PlacementPolicy> policy)
    : capacity_(capacity), policy_(std::move(policy)), free_(capacity) {
  DSA_ASSERT(capacity_ > 0, "allocator needs nonzero capacity");
  DSA_ASSERT(capacity_ <= std::numeric_limits<std::uint32_t>::max(),
             "allocator capacity exceeds its 32-bit size tags");
  DSA_ASSERT(policy_ != nullptr, "allocator needs a placement policy");
  size_tags_.assign(capacity_, 0);
}

std::optional<Block> VariableAllocator::Allocate(WordCount size) {
  DSA_ASSERT(size > 0, "cannot allocate zero words");
  ++stats_.allocations;
  stats_.words_requested += size;
  const std::uint64_t examined_before = policy_->holes_examined();
  const std::optional<PhysicalAddress> addr = policy_->Choose(free_, size);
  stats_.alloc_cycles +=
      UsesSizeIndex(*policy_)
          ? alloc_cost::TreeDescent(free_.hole_count())
          : (policy_->holes_examined() - examined_before) * alloc_cost::kProbe;
  if (!addr.has_value()) {
    ++stats_.failures;
    return std::nullopt;
  }
  free_.TakeRange(*addr, size);
  // Carving also re-files any remainder in the by-size index.
  stats_.alloc_cycles += alloc_cost::kCarve + alloc_cost::TreeDescent(free_.hole_count());
  size_tags_[addr->value] = static_cast<std::uint32_t>(size);
  live_words_ += size;
  stats_.words_allocated += size;
  DSA_TRACE_EMIT(tracer_, EventKind::kAlloc, addr->value, size);
  return Block{*addr, size};
}

void VariableAllocator::Free(PhysicalAddress addr) {
  DSA_ASSERT(addr.value < capacity_ && size_tags_[addr.value] != 0, "free of unknown block");
  const WordCount size = size_tags_[addr.value];
  size_tags_[addr.value] = 0;
  live_words_ -= size;
  ++stats_.frees;
  DSA_TRACE_EMIT(tracer_, EventKind::kFree, addr.value, size);
  const std::size_t holes_before = free_.hole_count();
  free_.Insert(Block{addr, size});
  // Inserting adds one hole; every coalescing merge removes one back.
  const std::size_t merges = holes_before + 1 - free_.hole_count();
  stats_.free_cycles += alloc_cost::TreeDescent(free_.hole_count()) +
                        static_cast<Cycles>(merges) * alloc_cost::kMerge;
  policy_->NoteFree(addr, size);
}

std::string VariableAllocator::name() const {
  return std::string("variable/") + policy_->name();
}

std::vector<Block> VariableAllocator::LiveBlocks() const {
  // Every word lies in exactly one live block or one hole, so the walk
  // alternates between tag steps and hole steps.
  std::vector<Block> blocks;
  auto hole = free_.begin();
  for (std::uint64_t addr = 0; addr < capacity_;) {
    if (const WordCount size = size_tags_[addr]; size != 0) {
      blocks.push_back(Block{PhysicalAddress{addr}, size});
      addr += size;
    } else {
      DSA_ASSERT(hole != free_.end() && hole->first == addr, "word neither live nor free");
      addr += hole->second;
      ++hole;
    }
  }
  return blocks;
}

WordCount VariableAllocator::LiveBlockSize(PhysicalAddress addr) const {
  DSA_ASSERT(addr.value < capacity_ && size_tags_[addr.value] != 0,
             "LiveBlockSize of unknown block");
  return size_tags_[addr.value];
}

void VariableAllocator::Relocate(PhysicalAddress from, PhysicalAddress to) {
  if (from == to) {
    return;
  }
  DSA_ASSERT(from.value < capacity_ && size_tags_[from.value] != 0, "relocate of unknown block");
  const std::uint32_t size = size_tags_[from.value];
  // Temporarily free the block; the destination must then be wholly free
  // (i.e. overlap only the block's own old extent or existing holes).
  size_tags_[from.value] = 0;
  free_.Insert(Block{from, size});
  DSA_ASSERT(free_.RangeIsFree(to, size), "relocation destination is not free");
  free_.TakeRange(to, size);
  size_tags_[to.value] = size;
}

}  // namespace dsa
