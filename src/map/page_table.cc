#include "src/map/page_table.h"

#include <algorithm>
#include <bit>
#include <string>

#include "src/core/assert.h"

namespace dsa {

const PageTableEntry& PageTable::entry(PageId page) const {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  return entries_[page.value];
}

void PageTable::Map(PageId page, FrameId frame) {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  PageTableEntry& entry = entries_[page.value];
  const std::size_t chunk = page.value / kChunkEntries;
  if (!entry.present) {
    ++chunk_present_[chunk];
  }
  entry = PageTableEntry{true, frame};
  ++chunk_versions_[chunk];
}

void PageTable::Unmap(PageId page) {
  DSA_ASSERT(page.value < entries_.size(), "page out of table range");
  PageTableEntry& entry = entries_[page.value];
  const std::size_t chunk = page.value / kChunkEntries;
  if (entry.present) {
    --chunk_present_[chunk];
  }
  entry = PageTableEntry{};
  ++chunk_versions_[chunk];
}

PageTableMapper::PageTableMapper(WordCount page_words, std::size_t pages,
                                 std::size_t tlb_entries, MappingCostModel costs)
    : page_words_(page_words), table_(pages), tlb_(tlb_entries), costs_(costs) {
  DSA_ASSERT(page_words_ > 0 && std::has_single_bit(page_words_),
             "page size must be a power of two");
  offset_bits_ = std::bit_width(page_words_) - 1;
}

TranslationResult PageTableMapper::Translate(Name name, AccessKind kind, Cycles now) {
  (void)kind;
  const PageId page = PageOf(name);
  const WordCount offset = OffsetOf(name);
  Cycles cost = 0;

  if (page.value >= table_.page_count()) {
    Fault fault{FaultKind::kInvalidName, name, {}, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }

  // Last-translation line: a repeat reference to the page most recently
  // translated skips the table walk while reporting the identical cost the
  // walk would have charged.
  if (line_valid_ && tlb_.capacity() == 0 && page == line_page_) {
    ++line_hits_;
    cost = costs_.core_reference;
    CountTranslation(cost);
    return Translation{PhysicalAddress{line_frame_ * page_words_ + offset}, cost, false};
  }

  // Associative probe first, when the facility exists.
  if (tlb_.capacity() > 0) {
    cost += costs_.associative_search;
    if (auto frame = tlb_.Lookup(page.value, now)) {
      CountTranslation(cost);
      return Translation{PhysicalAddress{*frame * page_words_ + offset}, cost, true};
    }
  }

  // Slow path: read the page table entry from core.
  cost += costs_.core_reference;
  const PageTableEntry& entry = table_.entry(page);
  if (!entry.present) {
    Fault fault{FaultKind::kPageNotPresent, name, {}, page, cost};
    CountFault(cost);
    return MakeUnexpected(fault);
  }
  if (tlb_.capacity() > 0) {
    tlb_.Insert(page.value, entry.frame.value, now);
  }
  line_valid_ = true;
  line_page_ = page;
  line_frame_ = entry.frame.value;
  CountTranslation(cost);
  return Translation{PhysicalAddress{entry.frame.value * page_words_ + offset}, cost, false};
}

void PageTableMapper::Map(PageId page, FrameId frame) {
  table_.Map(page, frame);
  if (line_valid_ && line_page_ == page) {
    line_valid_ = false;
  }
}

void PageTableMapper::Unmap(PageId page) {
  table_.Unmap(page);
  tlb_.Invalidate(page.value);
  if (line_valid_ && line_page_ == page) {
    line_valid_ = false;
  }
}

namespace {

// Reads one entry in SaveChunk's encoding; an absent entry must carry frame
// 0, the only absent encoding Save ever writes.
PageTableEntry ReadEntry(SnapshotReader* r) {
  PageTableEntry entry;
  entry.present = r->Bool();
  entry.frame = FrameId{r->U64()};
  if (r->ok() && !entry.present && entry.frame.value != 0) {
    r->Fail(SnapshotErrorKind::kBadValue, "absent page-table entry with a non-zero frame");
  }
  return entry;
}

// Bytes SaveChunk writes per entry: the present flag and the frame.
constexpr std::size_t kEntryBytes = 1 + 8;

}  // namespace

std::size_t PageTable::chunk_entries(std::size_t chunk) const {
  DSA_ASSERT(chunk < ChunkCount(), "chunk out of range");
  return std::min(kChunkEntries, entries_.size() - chunk * kChunkEntries);
}

const PageTable::SharedChunk& PageTable::EmptyChunk() {
  static const SharedChunk empty = [] {
    SharedChunk chunk;
    chunk.body = std::make_shared<const std::string>(kChunkEntries * kEntryBytes, '\0');
    chunk.hash = Fnv64(*chunk.body);
    return chunk;
  }();
  return empty;
}

void PageTable::SaveChunk(std::size_t chunk, SnapshotWriter* w) const {
  DSA_ASSERT(chunk < ChunkCount(), "chunk out of range");
  const std::size_t begin = chunk * kChunkEntries;
  const std::size_t end = std::min(begin + kChunkEntries, entries_.size());
  // An absent entry encodes as kEntryBytes zero bytes (Unmap clears the
  // frame), so only present entries are written into the zeroed body.
  char* out = w->Zeros((end - begin) * kEntryBytes);
  for (std::size_t i = begin; i < end; ++i, out += kEntryBytes) {
    if (entries_[i].present) {
      out[0] = 1;
      StoreU64Le(out + 1, entries_[i].frame.value);
    }
  }
}

void PageTable::LoadChunk(std::size_t chunk, SnapshotReader* r) {
  DSA_ASSERT(chunk < ChunkCount(), "chunk out of range");
  const std::size_t begin = chunk * kChunkEntries;
  const std::size_t end = std::min(begin + kChunkEntries, entries_.size());
  std::vector<PageTableEntry> entries(end - begin);
  std::uint32_t present = 0;
  for (std::size_t i = 0; i < entries.size() && r->ok(); ++i) {
    entries[i] = ReadEntry(r);
    present += entries[i].present ? 1 : 0;
  }
  if (!r->ok()) {
    return;
  }
  std::copy(entries.begin(), entries.end(), entries_.begin() + begin);
  ++chunk_versions_[chunk];
  chunk_present_[chunk] = present;
}

namespace {

std::string ChunkSectionName(std::size_t chunk) {
  return "map.pt." + std::to_string(chunk);
}

}  // namespace

void PageTableMapper::SaveSections(SectionedSnapshotWriter* w) const {
  {
    SnapshotWriter* head = w->Begin("map.head");
    head->U64(table_.page_count());
    tlb_.SaveState(head);
    head->Bool(line_valid_);
    head->U64(line_page_.value);
    head->U64(line_frame_);
    head->U64(line_hits_);
    SaveAccounting(head);
  }
  if (chunk_cache_.size() != table_.ChunkCount()) {
    chunk_cache_.assign(table_.ChunkCount(), ChunkCache{});
  }
  for (std::size_t k = 0; k < table_.ChunkCount(); ++k) {
    ChunkCache& cache = chunk_cache_[k];
    if (cache.version != table_.chunk_version(k)) {
      if (table_.chunk_present(k) == 0 && table_.chunk_entries(k) == PageTable::kChunkEntries) {
        const PageTable::SharedChunk& empty = PageTable::EmptyChunk();
        cache.body = empty.body;
        cache.hash = empty.hash;
      } else {
        SnapshotWriter cw;
        table_.SaveChunk(k, &cw);
        cache.body = std::make_shared<const std::string>(cw.TakePayload());
        cache.hash = Fnv64(*cache.body);
      }
      cache.version = table_.chunk_version(k);
    }
    w->Section(ChunkSectionName(k), cache.body, cache.hash);
  }
}

void PageTableMapper::LoadSections(SectionSource* src) {
  {
    SnapshotReader r = src->Open("map.head");
    const std::uint64_t pages = r.U64();
    if (r.ok() && pages != table_.page_count()) {
      r.Fail(SnapshotErrorKind::kBadValue, "page table size mismatch");
    }
    tlb_.LoadState(&r);
    const bool line_valid = r.Bool();
    const PageId line_page{r.U64()};
    const std::uint64_t line_frame = r.U64();
    const std::uint64_t line_hits = r.U64();
    LoadAccounting(&r);
    if (src->Close(&r, "map.head")) {
      line_valid_ = line_valid;
      line_page_ = line_page;
      line_frame_ = line_frame;
      line_hits_ = line_hits;
    }
  }
  for (std::size_t k = 0; k < table_.ChunkCount() && src->ok(); ++k) {
    const std::string name = ChunkSectionName(k);
    SnapshotReader r = src->Open(name);
    table_.LoadChunk(k, &r);
    src->Close(&r, name);
  }
}

void AtlasPageRegisterMapper::SaveState(SnapshotWriter* w) const {
  w->U64(registers_.size());
  for (const std::optional<PageId>& reg : registers_) {
    w->Bool(reg.has_value());
    w->U64(reg.has_value() ? reg->value : 0);
  }
  SaveAccounting(w);
}

void AtlasPageRegisterMapper::LoadState(SnapshotReader* r) {
  const std::uint64_t count = r->U64();
  if (r->ok() && count != registers_.size()) {
    r->Fail(SnapshotErrorKind::kBadValue, "atlas register count mismatch");
  }
  std::vector<std::optional<PageId>> registers(registers_.size());
  ResidentIndex frame_of_page(registers_.size());
  for (std::size_t f = 0; f < registers.size() && r->ok(); ++f) {
    const bool loaded = r->Bool();
    const std::uint64_t page = r->U64();
    if (r->ok() && !loaded && page != 0) {
      r->Fail(SnapshotErrorKind::kBadValue, "empty atlas register with a non-zero page");
      return;
    }
    if (loaded) {
      registers[f] = PageId{page};
      if (!frame_of_page.Insert(page, FrameId{f})) {
        r->Fail(SnapshotErrorKind::kBadValue, "one page in two atlas registers");
        return;
      }
    }
  }
  LoadAccounting(r);
  if (!r->ok()) {
    return;
  }
  registers_ = std::move(registers);
  frame_of_page_ = std::move(frame_of_page);
}

AtlasPageRegisterMapper::AtlasPageRegisterMapper(WordCount page_words, std::size_t frames,
                                                 MappingCostModel costs)
    : page_words_(page_words), registers_(frames), frame_of_page_(frames), costs_(costs) {
  DSA_ASSERT(page_words_ > 0 && std::has_single_bit(page_words_),
             "page size must be a power of two");
  DSA_ASSERT(frames > 0, "need at least one page frame");
  offset_bits_ = std::bit_width(page_words_) - 1;
}

TranslationResult AtlasPageRegisterMapper::Translate(Name name, AccessKind kind, Cycles now) {
  (void)kind;
  (void)now;
  const PageId page = PageOf(name);
  const WordCount offset = name.value & (page_words_ - 1);
  // The associative search happens in parallel across all registers: one
  // fixed hardware cost whether it hits or traps.  The reverse index makes
  // simulating that parallel search O(1) instead of a sweep of every
  // register.
  const Cycles cost = costs_.associative_search;
  if (const std::optional<FrameId> frame = frame_of_page_.Find(page.value)) {
    CountTranslation(cost);
    return Translation{PhysicalAddress{frame->value * page_words_ + offset}, cost, true};
  }
  Fault fault{FaultKind::kPageNotPresent, name, {}, page, cost};
  CountFault(cost);
  return MakeUnexpected(fault);
}

void AtlasPageRegisterMapper::LoadFrame(FrameId frame, PageId page) {
  ClearFrame(frame);
  // One page, one register: moving a page empties the register it left.
  if (const std::optional<FrameId> old = frame_of_page_.Find(page.value)) {
    ClearFrame(*old);
  }
  registers_[frame.value] = page;
  frame_of_page_.Insert(page.value, frame);
}

void AtlasPageRegisterMapper::ClearFrame(FrameId frame) {
  DSA_ASSERT(frame.value < registers_.size(), "frame out of range");
  if (registers_[frame.value].has_value()) {
    frame_of_page_.Erase(registers_[frame.value]->value);
  }
  registers_[frame.value].reset();
}

}  // namespace dsa
