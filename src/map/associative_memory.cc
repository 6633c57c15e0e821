#include "src/map/associative_memory.h"

namespace dsa {

void AssociativeMemory::Insert(std::uint64_t key, std::uint64_t value, Cycles now) {
  if (entries_ == 0) {
    return;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key == key) {
      slots_[i].value = value;
      slots_[i].last_use = now;
      recent_ = i;
      return;
    }
  }
  if (slots_.size() < entries_) {
    recent_ = slots_.size();
    slots_.push_back(Slot{key, value, now});
    return;
  }
  // Evict the least recently used slot.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].last_use < slots_[victim].last_use) {
      victim = i;
    }
  }
  slots_[victim] = Slot{key, value, now};
  recent_ = victim;
}

void AssociativeMemory::Invalidate(std::uint64_t key) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].key == key) {
      slots_[i] = slots_.back();
      slots_.pop_back();
      return;
    }
  }
}

void AssociativeMemory::InvalidateAll() { slots_.clear(); }

}  // namespace dsa
