// The deterministic cycle-cost model of allocator bookkeeping.
//
// bench_alloc's "allocation latency" must be a pure function of the trace
// and the allocator (byte-identical at any --jobs width), so it cannot be
// wall-clock.  Instead every allocator charges cycles for the data-structure
// work a request performs, with one shared tariff:
//
//   * examining one free-list node, quick-list entry, or buddy level costs
//     one cycle (the paper's own search-length metric);
//   * descending a balanced size index costs the tree depth — a best-fit
//     "single probe" is really ceil(log2(n+1)) comparisons;
//   * carving a remainder or merging one boundary-tag neighbour costs one
//     cycle (constant-time pointer/tag surgery).
//
// The charges model the search the simulated machine performs, not the
// host structure that answers it: FreeList's flat sorted vectors and
// VariableAllocator's size tags are charged as a balanced size index would
// be, so the hole counts, merge counts and every charged cycle are
// independent of how the host stores the holes and the live blocks.
//
// The model intentionally favours nothing: segregated fits win on it only
// by doing less bookkeeping per request, which is the design's actual
// claim.  Wall-clock per-cell timings are also reported by bench_alloc but
// stripped before any byte comparison.

#ifndef SRC_ALLOC_COST_H_
#define SRC_ALLOC_COST_H_

#include <bit>

#include "src/core/types.h"

namespace dsa::alloc_cost {

inline constexpr Cycles kProbe = 1;       // look at one list node / level / entry
inline constexpr Cycles kClassIndex = 1;  // O(1) size -> class table lookup
inline constexpr Cycles kCarve = 1;       // split a block, write the new tags
inline constexpr Cycles kMerge = 1;       // one boundary-tag coalesce

// Depth of a balanced tree over n keys (>= 1 even when empty: the miss
// still costs the root comparison).
inline Cycles TreeDescent(std::size_t n) {
  return static_cast<Cycles>(std::bit_width(n + 1));
}

}  // namespace dsa::alloc_cost

#endif  // SRC_ALLOC_COST_H_
