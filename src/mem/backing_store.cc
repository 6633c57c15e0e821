#include "src/mem/backing_store.h"

#include <algorithm>

#include "src/core/assert.h"

namespace dsa {

Cycles BackingStore::Store(SlotId slot, std::vector<Word> data) {
  DSA_ASSERT(!IsBad(slot), "storing to a retired slot");
  const Cycles cost = level_.TransferTime(data.size());
  std::vector<Word>& held = slots_[slot];
  occupied_words_ = occupied_words_ - held.size() + data.size();
  held = std::move(data);
  ++stores_;
  busy_cycles_ += cost;
  return cost;
}

Cycles BackingStore::StoreZeros(SlotId slot, WordCount words) {
  DSA_ASSERT(!IsBad(slot), "storing to a retired slot");
  const Cycles cost = level_.TransferTime(words);
  std::vector<Word>& held = slots_[slot];
  occupied_words_ = occupied_words_ - held.size() + words;
  held.assign(words, Word{0});  // reuses the slot's buffer once it is big enough
  ++stores_;
  busy_cycles_ += cost;
  return cost;
}

Cycles BackingStore::Fetch(SlotId slot, WordCount words, std::vector<Word>* out) const {
  DSA_ASSERT(!IsBad(slot), "fetching from a retired slot");
  const Cycles cost = level_.TransferTime(words);
  if (out != nullptr) {
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
      out->assign(words, Word{0});
    } else {
      *out = it->second;
      out->resize(words, Word{0});
    }
  }
  ++fetches_;
  busy_cycles_ += cost;
  return cost;
}

void BackingStore::Discard(SlotId slot) {
  auto it = slots_.find(slot);
  if (it != slots_.end()) {
    occupied_words_ -= it->second.size();
    slots_.erase(it);
  }
}

void BackingStore::MarkBad(SlotId slot) {
  Discard(slot);
  bad_slots_.insert(slot);
}

std::optional<BackingStore::SlotId> BackingStore::AllocateSpareSlot(WordCount words) {
  if (!HasRoomFor(words)) {
    return std::nullopt;
  }
  return next_spare_++;
}

void BackingStore::SaveState(SnapshotWriter* w) const {
  std::vector<SlotId> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, words] : slots_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<SlotId> bad(bad_slots_.begin(), bad_slots_.end());
  std::sort(bad.begin(), bad.end());
  // Every field is a u64: the counts, (id, size) per slot, the words, the
  // bad ids and the five trailing scalars.
  w->Reserve(sizeof(std::uint64_t) * (2 + 2 * ids.size() + occupied_words_ + bad.size() + 5));
  w->U64(ids.size());
  for (SlotId id : ids) {
    const std::vector<Word>& words = slots_.at(id);
    w->U64(id);
    w->U64(words.size());
    w->U64s(words.data(), words.size());
  }
  w->U64(bad.size());
  w->U64s(bad.data(), bad.size());
  w->U64(next_spare_);
  w->U64(occupied_words_);
  w->U64(stores_);
  w->U64(fetches_);
  w->U64(busy_cycles_);
}

void BackingStore::LoadState(SnapshotReader* r) {
  const std::uint64_t slot_count = r->Count(level_.capacity_words + 1);
  std::unordered_map<SlotId, std::vector<Word>> slots;
  slots.reserve(slot_count);
  WordCount total_words = 0;
  for (std::uint64_t i = 0; i < slot_count && r->ok(); ++i) {
    const SlotId id = r->U64();
    const std::uint64_t words = r->Count(level_.capacity_words);
    std::vector<Word> data;
    data.reserve(words);
    for (std::uint64_t j = 0; j < words && r->ok(); ++j) {
      data.push_back(r->U64());
    }
    total_words += data.size();
    if (!slots.emplace(id, std::move(data)).second) {
      r->Fail(SnapshotErrorKind::kBadValue, "duplicate backing-store slot id");
      return;
    }
  }
  const std::uint64_t bad_count = r->Count(level_.capacity_words + 1);
  std::unordered_set<SlotId> bad;
  bad.reserve(bad_count);
  for (std::uint64_t i = 0; i < bad_count && r->ok(); ++i) {
    bad.insert(r->U64());
  }
  const SlotId next_spare = r->U64();
  const WordCount occupied = r->U64();
  const std::uint64_t stores = r->U64();
  const std::uint64_t fetches = r->U64();
  const Cycles busy = r->U64();
  if (r->ok() && occupied != total_words) {
    r->Fail(SnapshotErrorKind::kBadValue, "occupied-words does not match slot contents");
  }
  if (r->ok() && next_spare < kSpareSlotBase) {
    r->Fail(SnapshotErrorKind::kBadValue, "spare-slot cursor below the spare base");
  }
  if (!r->ok()) {
    return;
  }
  slots_ = std::move(slots);
  bad_slots_ = std::move(bad);
  next_spare_ = next_spare;
  occupied_words_ = occupied;
  stores_ = stores;
  fetches_ = fetches;
  busy_cycles_ = busy;
}

}  // namespace dsa
