// The free-storage bookkeeping shared by every variable-unit allocator: an
// address-ordered set of holes with automatic coalescing of adjacent frees.
//
// Coalescing is the invariant that makes "numerous little sets of contiguous
// locations" (the paper's definition of fragmentation) a meaningful metric:
// two adjacent holes are always recorded as one.
//
// Alongside the address-ordered map (the coalescing source of truth) the
// list maintains a size-ordered secondary index, so best-fit and worst-fit
// placement resolve in O(log holes) instead of scanning every hole.  The
// index orders by (size, address); ties on size therefore resolve to the
// lowest address, exactly as an address-ordered scan would.

#ifndef SRC_ALLOC_FREE_LIST_H_
#define SRC_ALLOC_FREE_LIST_H_

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/alloc/block.h"
#include "src/core/types.h"

namespace dsa {

class FreeList {
 public:
  using HoleMap = std::map<std::uint64_t, WordCount>;  // start address -> size
  using const_iterator = HoleMap::const_iterator;

  FreeList() = default;

  // Initialises with one hole covering [0, capacity).
  explicit FreeList(WordCount capacity);

  // Inserts a hole, coalescing with any adjacent holes.  The range must not
  // overlap an existing hole (that would mean a double free).
  void Insert(Block hole);

  // Removes [addr, addr+size), which must lie entirely inside one hole.
  // The hole is split in up to two remainders.
  void TakeRange(PhysicalAddress addr, WordCount size);

  // True if the given range is entirely free.
  bool RangeIsFree(PhysicalAddress addr, WordCount size) const;

  const_iterator begin() const { return holes_.begin(); }
  const_iterator end() const { return holes_.end(); }

  std::size_t hole_count() const { return holes_.size(); }
  WordCount total_free() const { return total_free_; }
  WordCount largest_hole() const;
  bool empty() const { return holes_.empty(); }

  // O(log holes) placement queries over the size index.
  //
  // Best fit: start of the smallest hole of at least `size` words (lowest
  // address among equally sized holes), or nullopt when nothing fits.
  std::optional<PhysicalAddress> SmallestHoleAtLeast(WordCount size) const;
  // Worst fit: start of the largest hole, provided it holds at least `size`
  // words (lowest address among equally sized holes), or nullopt.
  std::optional<PhysicalAddress> LargestHoleAtLeast(WordCount size) const;

  std::vector<WordCount> HoleSizes() const;
  std::vector<Block> Holes() const;

  void Clear() {
    holes_.clear();
    by_size_.clear();
    total_free_ = 0;
  }

 private:
  HoleMap holes_;
  // (size, start address) for every hole in holes_.
  std::set<std::pair<WordCount, std::uint64_t>> by_size_;
  WordCount total_free_{0};
};

}  // namespace dsa

#endif  // SRC_ALLOC_FREE_LIST_H_
