// The common allocator interface plus shared accounting, so placement
// experiments can sweep heterogeneous designs (policy-parameterised
// free-list allocators, buddy, Rice chain) through one harness.

#ifndef SRC_ALLOC_ALLOCATOR_H_
#define SRC_ALLOC_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/alloc/block.h"
#include "src/core/snapshot.h"
#include "src/core/types.h"
#include "src/obs/event.h"
#include "src/stats/fragmentation.h"

namespace dsa {

class EventTracer;

struct AllocatorStats {
  std::uint64_t allocations{0};
  std::uint64_t failures{0};
  std::uint64_t frees{0};
  WordCount words_requested{0};  // what callers asked for
  WordCount words_allocated{0};  // what the allocator actually handed out (buddy rounds up)
  // Deterministic bookkeeping cost under the shared tariff of
  // src/alloc/cost.h; bench_alloc's latency metric (never wall-clock).
  Cycles alloc_cycles{0};
  Cycles free_cycles{0};

  double MeanAllocCycles() const {
    return allocations == 0
               ? 0.0
               : static_cast<double>(alloc_cycles) / static_cast<double>(allocations);
  }
  double MeanFreeCycles() const {
    return frees == 0 ? 0.0 : static_cast<double>(free_cycles) / static_cast<double>(frees);
  }
};

inline void SaveAllocatorStats(SnapshotWriter* w, const AllocatorStats& stats) {
  w->U64(stats.allocations);
  w->U64(stats.failures);
  w->U64(stats.frees);
  w->U64(stats.words_requested);
  w->U64(stats.words_allocated);
  w->U64(stats.alloc_cycles);
  w->U64(stats.free_cycles);
}

class Allocator {
 public:
  virtual ~Allocator() = default;

  // Allocates `size` words.  Returns the block actually reserved (which may
  // be larger than `size` for rounding designs) or nullopt when the request
  // cannot be satisfied.
  virtual std::optional<Block> Allocate(WordCount size) = 0;

  // Releases a previously allocated block by its starting address.
  virtual void Free(PhysicalAddress addr) = 0;

  virtual std::string name() const = 0;
  virtual WordCount capacity() const = 0;

  // Live words as requested by callers (excludes rounding waste).
  virtual WordCount live_words() const = 0;
  // Words currently reserved (includes rounding waste).
  virtual WordCount reserved_words() const = 0;

  // Current free extents, for fragmentation analysis.
  virtual std::vector<WordCount> HoleSizes() const = 0;

  virtual const AllocatorStats& stats() const = 0;

  FragmentationReport Fragmentation() const {
    return ReportFromHoles(capacity(), live_words(), reserved_words(), HoleSizes());
  }

  // Attaches the shared event tracer; concrete allocators emit alloc/free
  // records for every satisfied request (stamped by the tracer's clock —
  // allocation itself is timeless in this model).
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

 protected:
  EventTracer* tracer_{nullptr};
};

}  // namespace dsa

#endif  // SRC_ALLOC_ALLOCATOR_H_
