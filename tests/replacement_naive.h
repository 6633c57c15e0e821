// Scan-based reference implementations of FIFO and LRU replacement.
//
// These are the original O(frames)-per-victim implementations, retained
// verbatim after the frame table grew its intrusive O(1) lists: they walk
// the full candidate set and take the argmin of load_time / last_use,
// breaking ties by lowest frame index.  They are test oracles only:
// test_replacement_parity proves the O(1) policies in
// src/paging/replacement_simple.h produce identical victim sequences and
// fault counts, and test_fault_injection holds the two engines in lockstep
// while frames retire mid-trace.

#ifndef TESTS_REPLACEMENT_NAIVE_H_
#define TESTS_REPLACEMENT_NAIVE_H_

#include "src/paging/replacement.h"

namespace dsa {

// Full scan for the earliest load_time among EvictionCandidates().
class ScanFifoReplacement : public ReplacementPolicy {
 public:
  FrameId ChooseVictim(FrameTable* frames, Cycles now) override;
  ReplacementStrategyKind kind() const override { return ReplacementStrategyKind::kFifo; }
};

// Full scan for the earliest last_use among EvictionCandidates().
class ScanLruReplacement : public ReplacementPolicy {
 public:
  FrameId ChooseVictim(FrameTable* frames, Cycles now) override;
  ReplacementStrategyKind kind() const override { return ReplacementStrategyKind::kLru; }
};

}  // namespace dsa

#endif  // TESTS_REPLACEMENT_NAIVE_H_
