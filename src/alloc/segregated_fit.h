// Segregated size-class allocator with per-class quick lists and deferred
// coalescing — the variable-unit design that won in practice after the
// paper's survey (dlmalloc's bins, dgd's schunks/lchunks split, the CSAPP
// segregated-list allocators).
//
// Free storage is indexed two ways:
//
//   * segregated free lists — one address-ordered list per size class (see
//     size_class.h), so a request probes its own class first and escalates
//     to larger classes only on a miss.  Any block in a class above the
//     request's class is guaranteed to fit, so escalation consults a binmap
//     (one bit per class, dlmalloc's binmap idiom) and jumps straight to
//     the next nonempty class, taking its lowest-addressed block;
//   * quick lists — small frees are *parked* per class without coalescing.
//     A later request of the same class takes a parked block whole in O(1),
//     skipping both the tree search and the split.  Parked blocks rejoin
//     the coalesced world lazily: when a class search misses (the paper's
//     "combining ... when a request cannot be satisfied", made per-class)
//     or when total parked words cross a watermark.
//
// The heap layout lives in one address-ordered block map covering every
// word of storage (live, free, and parked blocks tile [0, capacity)).
// Neighbouring map entries stand in for the boundary-tag header/footer
// words a real allocator would write at the block edges: from a block's
// position, both neighbours are reachable in constant time, so each
// coalescing merge is O(1) — the tariff charged is alloc_cost::kMerge per
// merge, exactly what tag surgery costs on a real heap.
//
// Determinism: every container iterated is address-ordered (std::map /
// std::set) or an explicitly ordered vector (quick lists, scanned LIFO), so
// identical traces produce identical placements, stats, and events on every
// platform and at any sweep width.

#ifndef SRC_ALLOC_SEGREGATED_FIT_H_
#define SRC_ALLOC_SEGREGATED_FIT_H_

#include <map>
#include <string>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/alloc/compactible.h"
#include "src/alloc/size_class.h"

namespace dsa {

class MetricsRegistry;

struct SegregatedFitConfig {
  SizeClassMapConfig classes{};
  // One class spanning every size (with quick lists off this degenerates to
  // address-ordered first fit — the parity anchor in the property tests).
  bool single_class{false};
  // Parked blocks held per class before that class's quick list flushes;
  // 0 disables quick lists entirely (every free coalesces eagerly).
  std::size_t quick_list_capacity{4};
  // Only blocks of at most this many words park on quick lists; larger
  // frees coalesce eagerly (holding big blocks uncoalesced starves the
  // upper classes and scatters the heap for little reuse benefit).
  WordCount quick_size_max{24};
  // Total parked words that trigger a full drain; 0 means capacity / 64.
  WordCount park_watermark_words{0};
  // Smallest remainder worth splitting off as a new free block; smaller
  // remainders ride along with the allocation as internal waste (unusable
  // slivers on the free lists only scatter the heap).
  WordCount min_split_remainder{12};
  // When the best the search found is at least this many times the
  // request (typically the wilderness block), drain the quick lists and
  // re-search first: parked words may coalesce into a tighter fit and
  // spare the large block.  0 disables the pre-split drain.
  WordCount escalation_drain_factor{3};
};

class SegregatedFitAllocator : public Allocator, public Compactible {
 public:
  explicit SegregatedFitAllocator(WordCount capacity, SegregatedFitConfig config = {});

  std::optional<Block> Allocate(WordCount size) override;
  void Free(PhysicalAddress addr) override;

  std::string name() const override;
  WordCount capacity() const override { return capacity_; }
  WordCount live_words() const override { return live_words_; }
  WordCount reserved_words() const override { return reserved_words_; }
  // Free extents as the storage actually holds them: maximal runs of
  // non-live words.  Parked blocks are free storage (one drain away from
  // any shape a request needs), so adjacent parked/free blocks report as
  // one hole — the coalesced view a failing request would see.
  std::vector<WordCount> HoleSizes() const override;
  const AllocatorStats& stats() const override { return stats_; }

  // Compactible: packing slides live blocks down; quick lists must drain
  // first so every free word is visible as a hole.
  std::vector<Block> LiveBlocks() const override;
  void Relocate(PhysicalAddress from, PhysicalAddress to) override;
  void PrepareForCompaction() override { DrainQuickLists(); }
  std::size_t HoleCount() const override { return HoleSizes().size(); }

  // Flushes every parked block into the coalesced free lists (emits one
  // kDeferredCoalesce event).  Returns the charged bookkeeping cycles.
  Cycles DrainQuickLists();

  struct QuickStats {
    std::uint64_t quick_hits{0};    // allocations served whole from a quick list
    std::uint64_t quick_parks{0};   // frees parked without coalescing
    std::uint64_t class_misses{0};  // searches that found no block in any class
    std::uint64_t drains{0};        // quick-list flushes (miss, watermark, overflow)
    std::uint64_t drained_blocks{0};
    std::uint64_t merges{0};        // boundary-tag merges performed
  };
  const QuickStats& quick_stats() const { return quick_stats_; }

  WordCount parked_words() const { return parked_words_; }
  std::size_t parked_blocks() const;
  const SizeClassMap& size_classes() const { return map_; }

  // Registers/updates per-class occupancy gauges plus the quick-list
  // counters under `<prefix>.` (e.g. "alloc.class03.free_blocks").
  void PublishMetrics(MetricsRegistry* registry, const std::string& prefix) const;

  // Exhaustive structural audit for the property tests: the block map tiles
  // [0, capacity), every free/parked block is indexed exactly once, no
  // block is on both a quick list and a free list, adjacent free blocks do
  // not exist (eager merges ran), and every words counter reconciles.
  bool CheckInvariants(std::string* error = nullptr) const;

 private:
  enum class State : std::uint8_t { kLive, kFree, kParked };
  struct Rec {
    WordCount size{0};       // extent of the block
    WordCount requested{0};  // caller's request (live blocks only)
    State state{State::kFree};
  };
  using BlockMap = std::map<std::uint64_t, Rec>;

  // First fit within the request's class, first block of the next nonempty
  // higher class (found via the binmap).  Returns blocks_.end() on miss;
  // charges probes to *cost.
  BlockMap::iterator SearchClasses(std::size_t cls, WordCount size, Cycles* cost);
  // Lowest nonempty class index >= from, or class count if none; charges
  // one class-index lookup per binmap word examined.
  std::size_t NextNonEmptyClass(std::size_t from, Cycles* cost) const;
  // Adds a free block to its class list and sets the class's binmap bit.
  void InsertClassEntry(std::uint64_t addr, WordCount size);
  // Carves `size` words from the free block at `it` (splitting when the
  // remainder is worth keeping) and returns the granted extent.
  WordCount CarveFrom(BlockMap::iterator it, WordCount size, Cycles* cost);
  // Flips the block at `it` to free and merges both neighbours; the block
  // must not be on any index.  Returns the charged cycles.
  Cycles InsertFree(BlockMap::iterator it);
  // Flushes one class's quick list (overflow path); no event.
  Cycles DrainClassQuickList(std::size_t cls);
  void RemoveFromClassList(std::uint64_t addr, WordCount size);
  bool QuickEligible(std::size_t cls, WordCount size) const;

  WordCount capacity_;
  SegregatedFitConfig config_;
  SizeClassMap map_;
  WordCount watermark_words_;
  BlockMap blocks_;
  // Per-class (addr -> size) of free blocks; sizes duplicate blocks_ so an
  // in-class scan touches one node per probe.
  std::vector<std::map<std::uint64_t, WordCount>> class_free_;
  // Bit per class, set iff class_free_[cls] is nonempty; escalation skips
  // empty classes in word-sized jumps instead of probing every head.
  std::vector<std::uint64_t> binmap_;
  // Per-class parked block addresses in park order (scanned newest-first).
  std::vector<std::vector<std::uint64_t>> quick_;
  WordCount live_words_{0};
  WordCount reserved_words_{0};
  WordCount parked_words_{0};
  AllocatorStats stats_;
  QuickStats quick_stats_;
};

}  // namespace dsa

#endif  // SRC_ALLOC_SEGREGATED_FIT_H_
