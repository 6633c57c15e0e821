// Placement strategies: "some strategy is needed for deciding where to put
// the information, assuming that a choice of available spaces exists.  The
// question arises only for systems which have a nonuniform unit of storage
// allocation."
//
// A policy chooses where inside the free list to satisfy a request; the
// VariableAllocator then carves that range.  Policies also count how many
// holes they inspected per request, because search cost is one of the
// bookkeeping differences the paper weighs (best-fit vs the two-ended
// strategy "which involves less bookkeeping").

#ifndef SRC_ALLOC_PLACEMENT_H_
#define SRC_ALLOC_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/alloc/free_list.h"
#include "src/core/strategy.h"
#include "src/core/types.h"

namespace dsa {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Returns an address such that [addr, addr+size) lies inside a hole of
  // `holes`, or nullopt when no hole fits.
  virtual std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) = 0;

  // Called after the allocator releases a range, for policies that keep
  // positional state (next-fit's roving pointer).
  virtual void NoteFree(PhysicalAddress addr, WordCount size) {
    (void)addr;
    (void)size;
  }

  virtual PlacementStrategyKind kind() const = 0;
  const char* name() const { return ToString(kind()); }

  // Holes examined across all Choose calls (the search-length metric).
  std::uint64_t holes_examined() const { return holes_examined_; }
  std::uint64_t choices() const { return choices_; }
  double MeanSearchLength() const {
    return choices_ == 0 ? 0.0
                         : static_cast<double>(holes_examined_) / static_cast<double>(choices_);
  }

 protected:
  void CountSearch(std::uint64_t examined) {
    holes_examined_ += examined;
    ++choices_;
  }

 private:
  std::uint64_t holes_examined_{0};
  std::uint64_t choices_{0};
};

// Lowest-addressed hole that fits.
class FirstFitPlacement : public PlacementPolicy {
 public:
  std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) override;
  PlacementStrategyKind kind() const override { return PlacementStrategyKind::kFirstFit; }
};

// First fit starting from a roving pointer that advances past each
// allocation, spreading small remainders across storage.
class NextFitPlacement : public PlacementPolicy {
 public:
  std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) override;
  void NoteFree(PhysicalAddress addr, WordCount size) override;
  PlacementStrategyKind kind() const override { return PlacementStrategyKind::kNextFit; }

 private:
  std::uint64_t rover_{0};
};

// "A common and frequently satisfactory strategy is to place the information
// in the smallest space which is sufficient to contain it."
class BestFitPlacement : public PlacementPolicy {
 public:
  std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) override;
  PlacementStrategyKind kind() const override { return PlacementStrategyKind::kBestFit; }
};

// Largest hole (included as the classic foil for best-fit).
class WorstFitPlacement : public PlacementPolicy {
 public:
  std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) override;
  PlacementStrategyKind kind() const override { return PlacementStrategyKind::kWorstFit; }
};

// "An alternative strategy, which involves less bookkeeping, is to place
// large blocks of information starting at one end of storage and small
// blocks starting at the other end."  Requests of at least `large_threshold`
// words take the lowest fitting hole from the bottom; smaller requests are
// carved from the top of the highest fitting hole.
class TwoEndedPlacement : public PlacementPolicy {
 public:
  explicit TwoEndedPlacement(WordCount large_threshold) : large_threshold_(large_threshold) {}

  std::optional<PhysicalAddress> Choose(const FreeList& holes, WordCount size) override;
  PlacementStrategyKind kind() const override { return PlacementStrategyKind::kTwoEnded; }

  WordCount large_threshold() const { return large_threshold_; }

 private:
  WordCount large_threshold_;
};

// True for the kinds MakePlacementPolicy builds (first/next/best/worst/
// two-ended); false for the whole-allocator designs, which only
// MakeAllocator (src/alloc/allocator_factory.h) builds.
bool IsPlacementPolicyKind(PlacementStrategyKind kind);

// Factory over the enum, for builders and parameterized tests.  `large_threshold`
// applies to kTwoEnded only; `kind` must satisfy IsPlacementPolicyKind.
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(PlacementStrategyKind kind,
                                                     WordCount large_threshold = 256);

}  // namespace dsa

#endif  // SRC_ALLOC_PLACEMENT_H_
