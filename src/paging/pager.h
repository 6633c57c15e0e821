// The pager: binds the frame table, a replacement strategy, a fetch
// strategy, the advice registry, and the backing-store timing into the
// storage allocation engine of a paged system.
//
// The pager deals in opaque page ids; callers that page segments pack
// (segment, page) pairs into the id.  Residency callbacks keep whatever
// address mapper is in use coherent with the frame table.
//
// With a FaultInjector attached the pager becomes resilient rather than
// merely correct: transient transfer errors are retried (bounded by
// max_retries) with fresh latency charges, permanently failed backing slots
// relocate their pages to spare slots, and core frames that take parity
// hits are retired from service — the pager keeps running with one fewer
// frame.  An access that exhausts every recovery returns a PageAccessError
// instead of aborting.  With no injector (or a zero-rate one) behaviour is
// bit-identical to the fault-free pager.

#ifndef SRC_PAGING_PAGER_H_
#define SRC_PAGING_PAGER_H_

#include <functional>
#include <memory>
#include <unordered_map>

#include "src/core/expected.h"
#include "src/core/resident_index.h"
#include "src/core/types.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/mem/fault_injection.h"
#include "src/paging/advice.h"
#include "src/paging/fetch.h"
#include "src/paging/frame_table.h"
#include "src/paging/replacement.h"
#include "src/stats/reliability.h"

namespace dsa {

struct PagerConfig {
  WordCount page_words{512};
  std::size_t frames{32};
  // ATLAS: "the replacement strategy ... is used to ensure that one page
  // frame is kept vacant, ready for the next page demand."  Replacement then
  // happens after the fetch, off the fault's critical path.
  bool keep_one_frame_vacant{false};
  // Gap beyond which a quiet spell counts as a completed inactivity period
  // for the learning policy's sensors; defaults to the page size (one
  // page-sweep's worth of references).
  Cycles touch_idle_threshold{0};  // 0 => use page_words
};

struct PageAccessOutcome {
  bool faulted{false};
  FrameId frame;
  Cycles wait_cycles{0};        // stall time the program sees
  std::size_t extra_fetches{0};  // prefetch/advice fetches piggybacked on the fault
};

// Why an access could not be completed.  Only reachable with a fault
// injector attached (or with every frame pinned/retired); the fault-free
// pager never returns one.
enum class PageAccessErrorKind : std::uint8_t {
  kTransferFailed,  // transient transfer errors exhausted max_retries
  kSlotUnreadable,  // the only backing copy sat on a slot that went bad
  kNoUsableFrames,  // every frame is pinned or retired; nothing to evict
};

const char* ToString(PageAccessErrorKind kind);

struct PageAccessError {
  PageAccessErrorKind kind{PageAccessErrorKind::kTransferFailed};
  PageId page;
  // Stall the program saw before the pager gave up (retries charge time
  // even when they fail); callers advance their clocks by this.
  Cycles wait_cycles{0};
};

using PageAccessResult = Expected<PageAccessOutcome, PageAccessError>;

struct PagerStats {
  std::uint64_t accesses{0};
  std::uint64_t faults{0};
  std::uint64_t demand_fetches{0};
  std::uint64_t extra_fetches{0};   // prefetched or advised
  std::uint64_t writebacks{0};
  std::uint64_t evictions{0};
  std::uint64_t advised_releases{0};
  std::uint64_t policy_releases{0};  // working-set style voluntary shrink
  Cycles wait_cycles{0};
  Cycles transfer_cycles{0};
  ReliabilityStats reliability;

  double FaultRate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(faults) / static_cast<double>(accesses);
  }
};

class Pager {
 public:
  using LoadCallback = std::function<void(PageId page, FrameId frame)>;
  using EvictCallback = std::function<void(PageId page, FrameId frame)>;

  // `channel` may be null (transfers then cost pure level latency with no
  // queueing).  `advice` may be null (no predictive directives accepted).
  // `injector` may be null (all transfers succeed, all frames stay good).
  Pager(PagerConfig config, BackingStore* backing, TransferChannel* channel,
        std::unique_ptr<ReplacementPolicy> replacement, std::unique_ptr<FetchPolicy> fetch,
        AdviceRegistry* advice, FaultInjector* injector = nullptr);

  // Attaches the shared event tracer (forwarded to the frame table).  The
  // pager advances the tracer's watermark clock at every externally-timed
  // entry point, then emits fault / victim / transfer / recovery events.
  void SetTracer(EventTracer* tracer) {
    tracer_ = tracer;
    frames_.SetTracer(tracer);
  }

  void SetResidencyCallbacks(LoadCallback on_load, EvictCallback on_evict) {
    on_load_ = std::move(on_load);
    on_evict_ = std::move(on_evict);
  }

  // Restricts which page ids the fetch policy may bring in speculatively
  // (e.g. keys past the end of a segment's page table).  Demanded pages are
  // assumed valid by construction.
  void SetPageValidator(std::function<bool(PageId)> valid) { page_valid_ = std::move(valid); }

  // Performs one reference.  On a fault this selects victims, writes back
  // dirty pages, fetches the page (plus any policy extras), and reports the
  // stall time.  Returns a PageAccessError when every recovery path is
  // exhausted; the page is then simply not resident and the program may
  // retry or give up.
  PageAccessResult Access(PageId page, AccessKind kind, Cycles now);

  // Takes a frame out of service (an external parity report, or the
  // degradation bench's retirement schedule).  A resident page is first
  // evicted (writing back if dirty).  Returns false — and does nothing —
  // when the frame is pinned, already retired, or the last usable frame.
  bool RetireFrame(FrameId frame, Cycles now);

  bool IsResident(PageId page) const { return resident_.Contains(page.value); }
  std::optional<FrameId> FrameOf(PageId page) const { return resident_.Find(page.value); }

  // Advisory interface (routes through the registry when present).
  void AdviseWillNeed(PageId page);
  void AdviseWontNeed(PageId page);
  void AdviseKeepResident(PageId page);

  // Releases a resident page immediately (writing back if dirty).
  void Release(PageId page, Cycles now);

  const FrameTable& frames() const { return frames_; }
  const PagerStats& stats() const { return stats_; }
  const ReplacementPolicy& replacement() const { return *replacement_; }
  const PagerConfig& config() const { return config_; }

  // Resident words right now (the space term of the space-time product).
  WordCount ResidentWords() const { return frames_.occupied_count() * config_.page_words; }

  // Checkpoint serialization: the frame table, the replacement policy's
  // decision state, the residency and relocation maps (sorted by page id),
  // and the full stats block.  The attached stores, channel, advice registry
  // and injector are serialized by their owners; the fetch policy is
  // stateless.  LoadState cross-checks the residency map against the frame
  // table (same page, occupied frame, full coverage) and reports mismatches
  // through the reader.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

 private:
  // Frees one frame via the replacement policy; returns it.
  FrameId EvictOne(Cycles now);
  // Vacates a specific frame, writing back if modified.
  void EvictFrame(FrameId frame, Cycles now);
  // Transfers `page` into `frame`; returns the program-visible wait.  On
  // error the frame has been returned to the free pool.
  Expected<Cycles, PageAccessError> FetchInto(PageId page, FrameId frame, Cycles now,
                                              bool demand);
  // Writes the page's core copy out to its backing slot, retrying and
  // relocating around failed slots; an error means the contents are lost.
  Status<PageAccessError> WriteBack(PageId page, Cycles now);
  // Charges one fetch transfer (channel occupancy + device time) issued at
  // `at`; returns the program-visible wait of that single attempt.
  Cycles ChargeFetchTransfer(PageId page, Cycles at);
  // The page's current backing slot (relocations move pages off their
  // identity slot).
  BackingStore::SlotId SlotFor(PageId page) const;
  // Applies wont-need advice and policy shrink before hunting for frames.
  void ApplyReleases(Cycles now);
  // Refreshes the retirement gauges after a frame leaves service.
  void SyncRetirementStats();

  PagerConfig config_;
  EventTracer* tracer_{nullptr};
  BackingStore* backing_;
  TransferChannel* channel_;
  std::unique_ptr<ReplacementPolicy> replacement_;
  std::unique_ptr<FetchPolicy> fetch_;
  AdviceRegistry* advice_;
  FaultInjector* injector_;
  FrameTable frames_;
  ResidentIndex resident_;
  // Pages relocated off their identity slot by permanent slot failures.
  std::unordered_map<std::uint64_t, BackingStore::SlotId> slot_of_;
  LoadCallback on_load_;
  EvictCallback on_evict_;
  std::function<bool(PageId)> page_valid_;
  PagerStats stats_;
};

}  // namespace dsa

#endif  // SRC_PAGING_PAGER_H_
