#include "tests/replacement_naive.h"

#include "src/core/assert.h"

namespace dsa {

FrameId ScanFifoReplacement::ChooseVictim(FrameTable* frames, Cycles now) {
  (void)now;
  const auto candidates = frames->EvictionCandidates();
  DSA_ASSERT(!candidates.empty(), "no eviction candidates");
  FrameId victim = candidates.front();
  for (FrameId f : candidates) {
    if (frames->info(f).load_time < frames->info(victim).load_time) {
      victim = f;
    }
  }
  return victim;
}

FrameId ScanLruReplacement::ChooseVictim(FrameTable* frames, Cycles now) {
  (void)now;
  const auto candidates = frames->EvictionCandidates();
  DSA_ASSERT(!candidates.empty(), "no eviction candidates");
  FrameId victim = candidates.front();
  for (FrameId f : candidates) {
    if (frames->info(f).last_use < frames->info(victim).last_use) {
      victim = f;
    }
  }
  return victim;
}

}  // namespace dsa
