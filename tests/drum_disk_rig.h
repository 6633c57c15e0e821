// An LRU, demand-fetch pager over a drum+disk home, with the home kept
// beside the pager that borrows it.  Shared by the drum+disk tests in
// test_hierarchy_pager and test_fault_injection.

#ifndef TESTS_DRUM_DISK_RIG_H_
#define TESTS_DRUM_DISK_RIG_H_

#include <memory>

#include "src/mem/fault_injection.h"
#include "src/paging/drum_disk_backing.h"
#include "src/paging/fetch.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_simple.h"

namespace dsa {

struct DrumDiskRig {
  DrumDiskRig(PagerConfig core, DrumDiskConfig config, FaultInjector* injector = nullptr)
      : tiers(config),
        pager(core, &tiers, std::make_unique<LruReplacement>(), std::make_unique<DemandFetch>(),
              /*advice=*/nullptr, injector) {}
  // The pager holds the address of `tiers`.
  DrumDiskRig(const DrumDiskRig&) = delete;
  DrumDiskRig& operator=(const DrumDiskRig&) = delete;

  DrumDiskBacking tiers;
  Pager pager;
};

}  // namespace dsa

#endif  // TESTS_DRUM_DISK_RIG_H_
