// The frame table: occupancy and the hardware usage sensors for every page
// frame of working storage.
//
// "Typical examples of special hardware for information gathering are
// sensors which record the fact of usage or of modifications of the
// information constituting a page ...  Such sensors can then be interrogated
// in order to guide the actions of a replacement strategy."  The `use` and
// `modified` bits here are those sensors; replacement policies may read and
// clear them.
//
// Besides the sensors, the table maintains two intrusive orderings over the
// occupied frames — a load-order (FIFO) list and a recency (LRU) list — so
// that the corresponding replacement policies choose victims in O(1) instead
// of scanning every frame.  Both lists are kept coherent by Load / Touch /
// Evict; ties that a full scan would break by frame index cannot arise as
// long as the simulated clock is monotone per reference (which the pager
// guarantees), so list order and scan order agree.

#ifndef SRC_PAGING_FRAME_TABLE_H_
#define SRC_PAGING_FRAME_TABLE_H_

#include <optional>
#include <vector>

#include "src/core/assert.h"
#include "src/core/types.h"
#include "src/obs/event.h"

namespace dsa {

class EventTracer;
class SnapshotReader;
class SnapshotWriter;

struct FrameInfo {
  bool occupied{false};
  bool pinned{false};      // "kept permanently in working storage" (MULTICS directive)
  bool retired{false};     // parity failure took the frame out of service
  PageId page;             // meaningful when occupied
  bool use{false};         // set on every access; cleared by policies
  bool modified{false};    // set on write accesses; cleared on write-back
  Cycles load_time{0};     // when the page arrived (FIFO's ordering)
  Cycles last_use{0};      // refreshed on every access (LRU's ordering)
  Cycles previous_idle{0}; // length of the last completed inactivity period (ATLAS)
};

class FrameTable {
 public:
  explicit FrameTable(std::size_t frames);

  // Attaches the shared tracer; the table emits frame-load / frame-evict /
  // frame-retire events (stamped by the tracer's watermark clock, since the
  // table itself never sees the simulated time of Evict and RetireFrame).
  void SetTracer(EventTracer* tracer) { tracer_ = tracer; }

  std::size_t frame_count() const { return frames_.size(); }
  std::size_t occupied_count() const { return occupied_; }
  std::size_t pinned_count() const { return pinned_; }
  // Frames permanently out of service, and those still usable.  Retired
  // frames never appear in the free pool, the intrusive lists, or any
  // eviction candidate set, so every replacement engine (including the
  // retained scan references) skips them by construction.
  std::size_t retired_count() const { return retired_; }
  std::size_t usable_frame_count() const { return frames_.size() - retired_; }
  // Frames available to TakeFreeFrame (taken-but-not-yet-loaded frames count
  // as neither free nor occupied).
  std::size_t free_count() const { return free_.size(); }

  const FrameInfo& info(FrameId frame) const {
    DSA_ASSERT(frame.value < frames_.size(), "frame out of range");
    return frames_[frame.value];
  }

  // Pops a free frame, lowest index first.
  std::optional<FrameId> TakeFreeFrame();

  // Installs `page` in `frame` (which must be free).
  void Load(FrameId frame, PageId page, Cycles now);

  // Vacates `frame` (which must be occupied and unpinned).
  void Evict(FrameId frame);

  // Returns a frame obtained from TakeFreeFrame but never loaded (a fetch
  // into it failed); it becomes the next frame TakeFreeFrame hands out.
  void ReturnFreeFrame(FrameId frame);

  // Takes `frame` permanently out of service (a core parity failure).  The
  // frame must be vacant: callers evict its page first.  Graceful capacity
  // degradation, not an assert — the table simply runs with one fewer
  // frame.
  void RetireFrame(FrameId frame);

  // Records an access: sets the use sensor, refreshes recency, and closes
  // the current inactivity period for the ATLAS learning policy.
  // `idle_threshold` is the gap, in cycles, beyond which the quiet spell
  // counts as a completed period of inactivity.  Defined here, with info,
  // MutableInfo and the list helpers, because every resident reference
  // makes this call.
  void Touch(FrameId frame, Cycles now, bool write, Cycles idle_threshold) {
    FrameInfo& info = MutableInfo(frame);
    DSA_ASSERT(info.occupied, "touching an empty frame");
    const Cycles idle = now > info.last_use ? now - info.last_use : 0;
    if (idle > idle_threshold) {
      // A period of inactivity just ended; remember its length for the ATLAS
      // learning program's next-use prediction.
      info.previous_idle = idle;
    }
    info.use = true;
    if (write) {
      info.modified = true;
    }
    info.last_use = now;
    // Most references repeat the page just used, whose frame is already the
    // LRU tail; relinking it there would leave the list unchanged.
    if (lru_[frames_.size()].prev != frame.value) {
      ListRemove(lru_, frame.value);
      ListPushBack(lru_, frame.value);
    }
  }

  void Pin(FrameId frame);
  void Unpin(FrameId frame);

  // Clears the use sensor (clock hand sweep / periodic harvest).
  void ClearUse(FrameId frame);
  // Clears the modified sensor (page written back).
  void ClearModified(FrameId frame);

  // Occupied, unpinned frames — the candidate set for any replacement.
  std::vector<FrameId> EvictionCandidates() const;

  // Checkpoint serialization: every sensor and both intrusive list orders
  // (FIFO and LRU sequences head to tail), so a restored table selects the
  // identical victim sequence.  LoadState re-derives the occupancy counters
  // and rebuilds the links from the serialized orders, reporting structural
  // violations (a listed frame that is not occupied, a count mismatch)
  // through the reader — never an abort.  The table must be constructed
  // with the same frame count the snapshot was taken at.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

  // True iff EvictionCandidates() would be non-empty, in O(1).
  bool HasEvictionCandidates() const { return occupied_ > pinned_; }

  // O(1) victim queries over the intrusive lists (plus a skip per pinned
  // frame at the head).  Returns the occupied, unpinned frame with the
  // earliest load time / least recent use, or nullopt when none exists.
  std::optional<FrameId> OldestLoadedCandidate() const;
  std::optional<FrameId> LeastRecentlyUsedCandidate() const;

 private:
  // Intrusive doubly-linked list over frame indices with a sentinel node at
  // index frame_count(); head.next is the eviction end (oldest), tail is the
  // most recent.
  struct Link {
    std::size_t prev{0};
    std::size_t next{0};
  };

  FrameInfo& MutableInfo(FrameId frame) {
    DSA_ASSERT(frame.value < frames_.size(), "frame out of range");
    return frames_[frame.value];
  }

  void ListRemove(std::vector<Link>& list, std::size_t node) {
    list[list[node].prev].next = list[node].next;
    list[list[node].next].prev = list[node].prev;
  }
  void ListPushBack(std::vector<Link>& list, std::size_t node) {
    const std::size_t sentinel = frames_.size();
    list[node].prev = list[sentinel].prev;
    list[node].next = sentinel;
    list[list[sentinel].prev].next = node;
    list[sentinel].prev = node;
  }
  std::optional<FrameId> FirstUnpinned(const std::vector<Link>& list) const;

  EventTracer* tracer_{nullptr};
  std::vector<FrameInfo> frames_;
  std::vector<FrameId> free_;
  std::size_t occupied_{0};
  std::size_t pinned_{0};
  std::size_t retired_{0};
  std::vector<Link> fifo_;  // load order; size frame_count()+1, last is sentinel
  std::vector<Link> lru_;   // recency order; same layout
};

}  // namespace dsa

#endif  // SRC_PAGING_FRAME_TABLE_H_
