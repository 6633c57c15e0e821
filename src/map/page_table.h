// Single-level page mapping: a page table in core, optionally fronted by a
// small associative memory (the Fig. 4 fast path without the segment level),
// plus the ATLAS page-address-register scheme where the associative memory
// *is* the map.

#ifndef SRC_MAP_PAGE_TABLE_H_
#define SRC_MAP_PAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/resident_index.h"
#include "src/core/snapshot.h"
#include "src/core/types.h"
#include "src/map/associative_memory.h"
#include "src/map/cost_model.h"
#include "src/map/mapper.h"

namespace dsa {

struct PageTableEntry {
  bool present{false};
  FrameId frame;
};

// The in-core table of page locations.  Use/modified sensors live with the
// frame table (src/paging/frame_table.h), matching the paper's description
// of per-page-frame recording hardware.
class PageTable {
 public:
  explicit PageTable(std::size_t pages)
      : entries_(pages), chunk_versions_(ChunkCount(), 1), chunk_present_(ChunkCount(), 0) {}

  std::size_t page_count() const { return entries_.size(); }

  const PageTableEntry& entry(PageId page) const;
  void Map(PageId page, FrameId frame);
  void Unmap(PageId page);

  // Words of core the table occupies (one word per entry).
  WordCount TableWords() const { return entries_.size(); }

  // --- chunked view, the delta-checkpoint dirty-tracking granule ---
  // The table is split into fixed chunks of kChunkEntries entries; every
  // Map/Unmap bumps the touched chunk's version, so a serialization cache
  // keyed on versions knows exactly which chunk bodies are stale.  This is
  // what collapses the ~2.3 MB page-table floor under steady-state tenant
  // snapshots: a commit re-encodes only the chunks the pager touched.
  static constexpr std::size_t kChunkEntries = 4096;

  std::size_t ChunkCount() const {
    return (entries_.size() + kChunkEntries - 1) / kChunkEntries;
  }
  std::uint64_t chunk_version(std::size_t chunk) const { return chunk_versions_[chunk]; }

  // Entries in `chunk`: kChunkEntries, except possibly for a shorter tail.
  std::size_t chunk_entries(std::size_t chunk) const;

  // Present entries in `chunk`, kept by Map/Unmap and recounted on load.
  std::size_t chunk_present(std::size_t chunk) const { return chunk_present_[chunk]; }

  // Serializes/loads one chunk's entries (no count prefix; the chunk's size
  // is implied by the table geometry).  Loads reject an absent entry with a
  // non-zero frame, which Unmap never leaves behind: every accepted table
  // then re-serializes to exactly the bytes it was loaded from.
  void SaveChunk(std::size_t chunk, SnapshotWriter* w) const;
  void LoadChunk(std::size_t chunk, SnapshotReader* r);

  // SaveChunk's encoding of a full-length chunk with no present entry, and
  // its fnv64.  One process-wide body, built on first use and never written
  // again, so concurrent seals may share it.
  struct SharedChunk {
    std::shared_ptr<const std::string> body;
    std::uint64_t hash{0};
  };
  static const SharedChunk& EmptyChunk();

 private:
  std::vector<PageTableEntry> entries_;
  std::vector<std::uint64_t> chunk_versions_;
  std::vector<std::uint32_t> chunk_present_;
};

// Name -> (page, offset) -> frame via the page table, with an optional TLB.
class PageTableMapper : public AddressMapper {
 public:
  // `page_words` must be a power of two.  `tlb_entries == 0` disables the
  // associative memory (every translation pays the table reference).
  PageTableMapper(WordCount page_words, std::size_t pages, std::size_t tlb_entries,
                  MappingCostModel costs = {});

  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override;

  std::string name() const override { return "page-table"; }

  // Page-load/unload hooks for the pager.  Unmap also shoots down the TLB.
  void Map(PageId page, FrameId frame);
  void Unmap(PageId page);

  WordCount page_words() const { return page_words_; }
  const PageTable& table() const { return table_; }
  const AssociativeMemory& tlb() const { return tlb_; }

  PageId PageOf(Name name) const { return PageId{name.value >> offset_bits_}; }
  WordCount OffsetOf(Name name) const { return name.value & (page_words_ - 1); }

  // Resident hits served from the last-translation line (see below).
  std::uint64_t line_hits() const { return line_hits_; }

  // Sectioned serialization for delta checkpoints: a "map.head" section
  // (geometry, TLB, translation line, accounting) followed by one
  // "map.pt.<k>" section per page-table chunk.  Chunk bodies and their
  // fnv64 are served from a version-keyed cache, so a chunk untouched since
  // the previous seal costs neither a re-encode, a copy nor a hash — and an
  // unchanged body then collapses to a 17-byte ref in the delta seal.  A
  // full-length chunk with no present entry takes PageTable::EmptyChunk()
  // and is never encoded or hashed at all.
  void SaveSections(SectionedSnapshotWriter* w) const;
  void LoadSections(SectionSource* src);

 private:
  // The body and its hash share one version key: both are rebuilt together
  // or not at all, so the hash can never describe a different body.
  struct ChunkCache {
    std::uint64_t version{0};  // 0 never matches a live chunk version
    std::shared_ptr<const std::string> body;
    std::uint64_t hash{0};  // Fnv64(*body)
  };

  WordCount page_words_;
  int offset_bits_;
  PageTable table_;
  AssociativeMemory tlb_;
  MappingCostModel costs_;
  // Software last-translation line: memoizes the most recent successful
  // translation so repeated references to the same page skip the table walk.
  // Invalidated whenever the page's mapping changes (Map/Unmap).  Only
  // consulted when no associative memory is configured — with a TLB the TLB
  // is the modeled fast path and its recency/hit statistics must keep
  // advancing exactly as the hardware's would.
  bool line_valid_{false};
  PageId line_page_{};
  std::uint64_t line_frame_{0};
  std::uint64_t line_hits_{0};
  // Serialization cache for SaveSections; mutable because caching chunk
  // bodies does not change observable mapper state.  Bodies are shared with
  // the writers they were handed to, so re-encoding a chunk never invalidates
  // a body an earlier, still-unsealed writer holds.
  mutable std::vector<ChunkCache> chunk_cache_;
};

// The Ferranti ATLAS scheme: one page-address register per page frame; the
// mapping is performed directly by an associative search over the registers.
// A miss *is* the not-in-core trap — there is no in-core table behind it.
class AtlasPageRegisterMapper : public AddressMapper {
 public:
  AtlasPageRegisterMapper(WordCount page_words, std::size_t frames, MappingCostModel costs = {});

  TranslationResult Translate(Name name, AccessKind kind, Cycles now) override;

  std::string name() const override { return "atlas-page-registers"; }

  void LoadFrame(FrameId frame, PageId page);
  void ClearFrame(FrameId frame);

  WordCount page_words() const { return page_words_; }
  std::size_t frame_count() const { return registers_.size(); }

  PageId PageOf(Name name) const { return PageId{name.value >> offset_bits_}; }

  // Checkpoint serialization: the registers plus accounting; the reverse
  // index is rebuilt, not stored.  Loads reject an empty register with a
  // non-zero page, which ClearFrame never leaves behind: every accepted
  // register file then re-serializes to exactly the bytes it was loaded
  // from.
  void SaveState(SnapshotWriter* w) const;
  void LoadState(SnapshotReader* r);

 private:
  WordCount page_words_;
  int offset_bits_;
  std::vector<std::optional<PageId>> registers_;
  // Reverse index (page -> frame) kept coherent with the registers.  The
  // modeled hardware searches every register in parallel at one fixed cost;
  // the index only makes the *simulation* of that search O(1).
  ResidentIndex frame_of_page_;
  MappingCostModel costs_;
};

}  // namespace dsa

#endif  // SRC_MAP_PAGE_TABLE_H_
