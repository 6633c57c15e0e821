// Variable-unit allocator: an address-ordered free list driven by a
// pluggable placement policy.  This is the allocation engine of the
// B5000-style systems where "the unit of allocation ... directly reflects
// the allocation request".
//
// Live blocks carry boundary tags: the size of each live block is written at
// its start address in a side array of one tag per storage word (zero: no
// block starts here).  Freeing, sizing and relocating a block are therefore
// O(1) lookups that allocate nothing; the array is the only per-word cost,
// four bytes a word, paid once at construction.

#ifndef SRC_ALLOC_VARIABLE_ALLOCATOR_H_
#define SRC_ALLOC_VARIABLE_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/alloc/compactible.h"
#include "src/alloc/free_list.h"
#include "src/alloc/placement.h"

namespace dsa {

class VariableAllocator : public Allocator, public Compactible {
 public:
  VariableAllocator(WordCount capacity, std::unique_ptr<PlacementPolicy> policy);

  std::optional<Block> Allocate(WordCount size) override;
  void Free(PhysicalAddress addr) override;

  std::string name() const override;
  WordCount capacity() const override { return capacity_; }
  WordCount live_words() const override { return live_words_; }
  WordCount reserved_words() const override { return live_words_; }
  std::vector<WordCount> HoleSizes() const override { return free_.HoleSizes(); }
  const AllocatorStats& stats() const override { return stats_; }

  const PlacementPolicy& policy() const { return *policy_; }
  const FreeList& free_list() const { return free_; }

  // Compactible: live blocks in address order (compaction input), read off
  // the tags by stepping over each block and each hole: O(blocks + holes).
  std::vector<Block> LiveBlocks() const override;
  std::size_t HoleCount() const override { return free_.hole_count(); }

  // Size of the live block starting at `addr`; asserts it exists.
  WordCount LiveBlockSize(PhysicalAddress addr) const;

  // Compaction support: atomically relocates the live block at `from` to
  // `to`, updating the free list.  The destination must be free (other than
  // any overlap with the block itself, which slide-down compaction creates).
  void Relocate(PhysicalAddress from, PhysicalAddress to) override;

 private:
  WordCount capacity_;
  std::unique_ptr<PlacementPolicy> policy_;
  FreeList free_;
  // Size of the live block starting at each address; 0 where none starts.
  // The capacity bounds every size, so 32 bits hold any tag.
  std::vector<std::uint32_t> size_tags_;
  WordCount live_words_{0};
  AllocatorStats stats_;
};

}  // namespace dsa

#endif  // SRC_ALLOC_VARIABLE_ALLOCATOR_H_
