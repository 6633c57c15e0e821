// Experiment E9 (extension): fetch strategy over several storage levels.
//
// "An additional complexity in fetch strategies arises when there are
// several levels of working storage ...  there is the problem of whether a
// given item should be fetched to a higher storage level, since this will be
// worthwhile only if the item is going to be used frequently."
//
// Sweep 1 prices the drum staging level: with no staging (evictions go
// straight to disk), every refault pays the disk; with staging, the reuse
// tail is served at drum speed.  Sweep 2 varies the drum's size.

#include <cstdio>
#include <memory>

#include "src/paging/drum_disk_backing.h"
#include "src/paging/fetch.h"
#include "src/paging/replacement_simple.h"
#include "src/stats/table.h"
#include "src/trace/synthetic.h"

namespace {

constexpr dsa::PagerConfig kCore{.page_words = 512, .frames = 16};  // 8K words of core

dsa::DrumDiskConfig BaseConfig() {
  dsa::DrumDiskConfig config;
  config.drum_pages = 32;  // 16K words of drum staging
  config.drum_level = dsa::MakeDrumLevel("drum", 1u << 18, /*word_time=*/2,
                                         /*rotational_delay=*/3000);
  config.disk_level = dsa::MakeDiskLevel("disk", 1u << 24, /*word_time=*/4,
                                         /*seek_plus_rotation=*/40000);
  return config;
}

struct RunResult {
  dsa::PagerStats pager;
  dsa::DrumDiskStats tiers;
};

RunResult Drive(const dsa::DrumDiskConfig& config, const dsa::ReferenceTrace& trace) {
  dsa::DrumDiskBacking tiers(config);
  dsa::Pager pager(kCore, &tiers, std::make_unique<dsa::LruReplacement>(),
                   std::make_unique<dsa::DemandFetch>(), /*advice=*/nullptr);
  dsa::Cycles now = 0;
  for (const dsa::Reference& ref : trace.refs) {
    const dsa::PageId page{ref.name.value / kCore.page_words};
    now += pager.Access(page, ref.kind, now)->wait_cycles + 1;
  }
  return RunResult{pager.stats(), tiers.stats()};
}

}  // namespace

int main() {
  std::printf("== E9 (extension): paging over a drum+disk hierarchy ==\n\n");

  dsa::WorkingSetTraceParams workload;
  workload.extent = 65536;  // 128 pages over 16 frames: heavy reuse traffic
  workload.region_words = 512;
  workload.regions_per_phase = 12;
  workload.phases = 8;
  workload.phase_length = 10000;
  const dsa::ReferenceTrace trace = dsa::MakeWorkingSetTrace(workload);

  std::printf("staging policy at fixed drum size (%zu pages):\n", BaseConfig().drum_pages);
  dsa::Table policy_table({"eviction target", "promote on disk fault", "faults", "drum hits",
                           "disk hits", "drum service %", "total wait (cyc)"});
  struct PolicyCase {
    const char* label;
    dsa::DemotionPolicy demotion;
    bool promote;
  };
  for (const PolicyCase& c :
       {PolicyCase{"disk only (no staging)", dsa::DemotionPolicy::kAlwaysDisk, false},
        PolicyCase{"disk, promote reused", dsa::DemotionPolicy::kAlwaysDisk, true},
        PolicyCase{"drum staging", dsa::DemotionPolicy::kAlwaysDrum, true}}) {
    dsa::DrumDiskConfig config = BaseConfig();
    config.demotion = c.demotion;
    config.promote_on_disk_fault = c.promote;
    const RunResult result = Drive(config, trace);
    policy_table.AddRow()
        .AddCell(c.label)
        .AddCell(c.promote ? "yes" : "no")
        .AddCell(result.pager.faults)
        .AddCell(result.tiers.drum_hits)
        .AddCell(result.tiers.disk_hits)
        .AddCell(100.0 * result.tiers.DrumServiceFraction(), 1)
        .AddCell(result.pager.wait_cycles);
  }
  std::printf("%s\n", policy_table.Render().c_str());

  std::printf("drum size sweep under drum staging:\n");
  dsa::Table size_table({"drum pages", "demotions", "drum service %", "total wait (cyc)"});
  for (const std::size_t pages : {4u, 16u, 64u, 256u}) {
    dsa::DrumDiskConfig config = BaseConfig();
    config.drum_pages = pages;
    const RunResult result = Drive(config, trace);
    size_table.AddRow()
        .AddCell(static_cast<std::uint64_t>(pages))
        .AddCell(result.tiers.demotions)
        .AddCell(100.0 * result.tiers.DrumServiceFraction(), 1)
        .AddCell(result.pager.wait_cycles);
  }
  std::printf("%s\n", size_table.Render().c_str());

  std::printf("Shape check (paper): staging frequently reused pages at the faster level\n"
              "moves most fault service from disk to drum, cutting total wait; the drum\n"
              "earns its keep in proportion to its size until it covers the reuse set.\n"
              "Fetching an item to a higher level pays exactly when it is reused.\n");
  return 0;
}
