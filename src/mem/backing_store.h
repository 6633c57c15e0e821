// Backing storage (drum/disk/tape) holding pages or segments by slot id.
//
// Content is kept so transfers round-trip; timing comes from the level spec.
// Slots are sized by the caller (a page for paging systems, a whole segment
// for the B5000/Rice machines).
//
// Fault injection (src/mem/fault_injection.h) can retire individual slots as
// permanently bad — a drum sector whose parity check fails for good.  A bad
// slot keeps refusing reads and writes; the resilience layer relocates its
// page to a spare slot allocated here, above the caller's id range.

#ifndef SRC_MEM_BACKING_STORE_H_
#define SRC_MEM_BACKING_STORE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/snapshot.h"
#include "src/core/types.h"
#include "src/mem/storage_level.h"

namespace dsa {

class BackingStore {
 public:
  using SlotId = std::uint64_t;

  // Spare slots hand out ids from here upward so they can never collide
  // with caller-chosen slot ids (page / segment numbers).
  static constexpr SlotId kSpareSlotBase = SlotId{1} << 62;

  explicit BackingStore(StorageLevel level) : level_(std::move(level)) {}

  const StorageLevel& level() const { return level_; }

  // True if the slot has ever been stored (an unstored slot reads as zeros,
  // modelling the zero-fill of a first-touch page).
  bool Contains(SlotId slot) const { return slots_.contains(slot); }

  // Writes `data` to `slot`, charging transfer time for data.size() words.
  Cycles Store(SlotId slot, std::vector<Word> data);

  // Store() of `words` zero words, written into the slot's own buffer, so
  // rewriting a slot allocates nothing.  The pagers' write-backs model only
  // the transfer and use this.
  Cycles StoreZeros(SlotId slot, WordCount words);

  // Reads `words` words of `slot` into `out` (zero-filled when absent),
  // charging transfer time.  A null `out` charges the same time and
  // counters and copies nothing, for callers that model only the transfer.
  Cycles Fetch(SlotId slot, WordCount words, std::vector<Word>* out) const;

  // Drops a slot without a transfer (a destroyed segment's backing copy).
  void Discard(SlotId slot);

  // Retires `slot` permanently: its content is lost and Store/Fetch against
  // it must not be issued again (the resilience layer relocates instead).
  void MarkBad(SlotId slot);
  bool IsBad(SlotId slot) const { return bad_slots_.contains(slot); }
  std::size_t bad_slot_count() const { return bad_slots_.size(); }

  // Allocates a fresh spare slot for a relocated page, or nullopt when the
  // level cannot hold `words` more (the caller then spills to the next
  // level, or records the page as lost).
  std::optional<SlotId> AllocateSpareSlot(WordCount words);

  // True if `words` more would still fit under the level's capacity.
  bool HasRoomFor(WordCount words) const {
    return occupied_words_ + words <= level_.capacity_words;
  }

  // Words currently occupied across all slots.
  WordCount OccupiedWords() const { return occupied_words_; }

  std::size_t slot_count() const { return slots_.size(); }

  // Checkpoint serialization: slot contents (sorted by slot id so the bytes
  // are deterministic regardless of hash-table iteration order), bad slots,
  // the spare-slot cursor, and the transfer counters.  The level spec itself
  // is construction-time configuration and is not serialized.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

  // Lifetime transfer accounting.
  std::uint64_t stores() const { return stores_; }
  std::uint64_t fetches() const { return fetches_; }
  Cycles busy_cycles() const { return busy_cycles_; }

 private:
  StorageLevel level_;
  std::unordered_map<SlotId, std::vector<Word>> slots_;
  std::unordered_set<SlotId> bad_slots_;
  SlotId next_spare_{kSpareSlotBase};
  WordCount occupied_words_{0};
  mutable std::uint64_t stores_{0};
  mutable std::uint64_t fetches_{0};
  mutable Cycles busy_cycles_{0};
};

}  // namespace dsa

#endif  // SRC_MEM_BACKING_STORE_H_
