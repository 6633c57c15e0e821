// Versioned, checksummed binary snapshots — the serialization substrate of
// the crash-consistent service mode (src/serve).
//
// A snapshot is a byte string with a fixed header
//
//   magic "DSASNAP1" | format version u32 | payload length u64 | fnv64(payload)
//
// followed by the payload: fixed-width little-endian primitives written by
// SnapshotWriter and read back by SnapshotReader.  Components serialize
// themselves with SaveState(SnapshotWriter*) / LoadState(SnapshotReader*)
// member functions; every container is written in a deterministic order
// (address order, registration order, list order), so a snapshot of a given
// state is byte-identical on every platform — the property that lets the
// kill-and-resume soak compare checkpoints and outputs byte for byte.
//
// Failure discipline: a corrupt, truncated, stale, or tampered snapshot is
// DATA, not a bug.  Nothing in this layer aborts; the reader latches the
// first error (typed SnapshotError) and every subsequent Read returns a
// zero value, so load paths are straight-line code with one ok() check at
// the end.  DSA_ASSERT is deliberately absent from every load path.

#ifndef SRC_CORE_SNAPSHOT_H_
#define SRC_CORE_SNAPSHOT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/expected.h"

namespace dsa {

// The snapshot container format version.  Bump on any layout change; a
// reader faced with a different version reports kStaleVersion instead of
// guessing at field offsets.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

enum class SnapshotErrorKind : std::uint8_t {
  kTruncated,     // fewer bytes than the header or payload promised
  kBadMagic,      // not a snapshot at all
  kStaleVersion,  // written by a different format version
  kBadChecksum,   // payload bytes do not hash to the recorded fnv64
  kBadValue,      // a field parsed but violates a structural invariant
  kIo,            // the underlying file could not be read or written
};

const char* ToString(SnapshotErrorKind kind);

struct SnapshotError {
  SnapshotErrorKind kind{SnapshotErrorKind::kBadValue};
  std::string detail;

  std::string Describe() const;
};

// FNV-1a 64-bit over a byte range; the snapshot payload checksum.  Exactly
// the byte loop's value, but a run of zero 8-byte words costs one
// multiply by a power of the prime, so sparse payloads hash at the cost of
// their non-zero bytes.
std::uint64_t Fnv64(std::string_view bytes);

// The FNV-1a state before any byte: Fnv64(bytes) == Fnv64Over(kFnv64Offset,
// bytes, <extents of bytes>).
inline constexpr std::uint64_t kFnv64Offset = 0xcbf29ce484222325ULL;

// A byte range [offset, offset + length) of a larger byte string.
struct ByteExtent {
  std::size_t offset{0};
  std::size_t length{0};
};

// Fnv64(bytes), computed in the same scan that appends to `extents` the
// ranges of bytes' non-zero 8-byte words (adjacent words merged, a tail
// under 8 bytes taken as one word).  Every byte outside them is zero.
std::uint64_t Fnv64Extents(std::string_view bytes, std::vector<ByteExtent>* extents);

// FNV-1a continued from `state` over `bytes`, whose non-zero bytes all lie
// inside `extents` (ascending, disjoint, within bytes): exactly the byte
// loop's value from `state`, but each zero gap between extents costs one
// multiply by a power of the prime and its bytes are never read.
std::uint64_t Fnv64Over(std::uint64_t state, std::string_view bytes,
                        std::span<const ByteExtent> extents);

// Stores `v` as the 8 little-endian bytes SnapshotWriter::U64 appends.
inline void StoreU64Le(char* out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
}

class SnapshotWriter {
 public:
  void U8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  // The bytes of n U64 calls in one append: a single memcpy on a
  // little-endian host, a StoreU64Le loop elsewhere.
  void U64s(const std::uint64_t* v, std::size_t n);
  // Doubles are bit-cast through u64: the simulator's doubles are pure
  // functions of integer state, so bit-exact round-tripping is both
  // achievable and required.
  void F64(double v);
  void Str(const std::string& s);
  void Bytes(std::string_view bytes);

  // Finalized snapshot: header + payload.
  std::string Seal() const;

  // Raw payload without the container header; leaves the writer empty.
  // The sectioned writer uses this to frame component bodies as sections.
  std::string TakePayload() { return std::move(payload_); }

  std::size_t payload_size() const { return payload_.size(); }

  // Grows capacity so `bytes` more append without reallocating.
  void Reserve(std::size_t bytes) { payload_.reserve(payload_.size() + bytes); }

  // Appends `n` zero bytes and returns their start, for encoders that fill
  // in only the non-zero fields.  Valid until the next write.
  char* Zeros(std::size_t n) {
    const std::size_t at = payload_.size();
    payload_.resize(at + n);
    return payload_.data() + at;
  }

 private:
  std::string payload_;
};

class SnapshotReader {
 public:
  // Verifies magic, version, length, and checksum before any field reads;
  // a reader constructed over corrupt bytes starts out already failed.
  explicit SnapshotReader(std::string_view sealed);

  bool ok() const { return ok_; }
  const SnapshotError& error() const { return error_; }

  // Latches `kind` as this reader's error (first failure wins).  Component
  // LoadState implementations call this for structural violations.
  void Fail(SnapshotErrorKind kind, std::string detail);

  // Primitive reads.  After a failure they return zero values and never
  // touch out-of-range memory, so callers need no per-field checks.
  std::uint8_t U8();
  bool Bool() { return U8() != 0; }
  std::uint32_t U32();
  std::uint64_t U64();
  double F64();
  std::string Str();

  // A U64 that must fit a size the caller is about to allocate; anything
  // above `limit` fails the reader (a corrupt length must not become a
  // multi-gigabyte allocation).
  std::uint64_t Count(std::uint64_t limit);

  // True when every payload byte has been consumed (load paths end with
  // this to reject trailing garbage).
  bool AtEnd() const { return !ok_ || pos_ == payload_.size(); }

  // A reader over a raw payload (no container header, no checksum).  Section
  // bodies live inside an already-verified container, so they carry no
  // header of their own; SectionSource::Open hands them out through this.
  // The view must outlive the reader.
  static SnapshotReader ForPayload(std::string_view payload);

 private:
  SnapshotReader() = default;

  bool Need(std::size_t n);

  std::string_view payload_;
  std::size_t pos_{0};
  bool ok_{true};
  SnapshotError error_;
};

// ---------------------------------------------------------------------------
// Sectioned snapshots — the substrate of incremental (delta) checkpoints.
//
// A sectioned snapshot lives inside the same DSASNAP1 container; its payload
// is a sequence of named sections:
//
//   u8 kind (0 full | 1 delta) | u64 section count |
//   per section: str name | u8 tag (0 inline | 1 ref) |
//                inline -> bytes body | ref -> u64 fnv64(body)
//
// A FULL seal inlines every section body.  A DELTA seal compares each body's
// fnv64 against a baseline (the digest of the previous committed cut) and
// replaces unchanged bodies with their hash — dirty tracking by content, so
// a section that did not change costs ~its name plus 17 bytes.  A chain
// [full, delta, delta...] resolves newest-ref-wins: each ref must hash-match
// the body it resolves to, which catches a delta applied over the wrong base
// as kBadChecksum rather than silently restoring mixed state.

// Per-section content hashes of a sealed cut; the baseline a later delta
// seal diffs against.  Empty baseline => every section is emitted inline.
struct SectionBaseline {
  std::map<std::string, std::uint64_t> hashes;

  bool empty() const { return hashes.empty(); }
};

// Whole pages mapped straight from the OS and unmapped on release; throws
// std::bad_alloc when the mapping fails.
void* MapPages(std::size_t bytes);
void UnmapPages(void* pages, std::size_t bytes) noexcept;

// An allocator of whole mapped pages, for the few large buffers a service
// keeps across cuts.  Kept in the malloc heap, such a buffer would pin the
// heap around it, and each regrowth would leave a hole that the next,
// larger seal cannot use; a mapping leaves the heap alone, and the pages of
// its capacity that no seal has reached are never resident.
template <class T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return static_cast<T*>(MapPages(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { UnmapPages(p, n * sizeof(T)); }

  friend bool operator==(const PageAllocator&, const PageAllocator&) { return true; }
};

// The bytes of one sealed checkpoint member, in a buffer a store keeps from
// cut to cut.
using SealBuffer = std::basic_string<char, std::char_traits<char>, PageAllocator<char>>;

// What a seal returns beside its bytes: the container checksum (Fnv64 of
// the payload) and Fnv64 of the whole sealed file, header included.
struct SealHashes {
  std::uint64_t checksum{0};
  std::uint64_t file{0};
};

// Builds a sectioned snapshot.  Components stream into Begin()'s writer
// through their own SaveState(SnapshotWriter*); cached pre-serialized bodies
// go in via Section() without re-encoding.
//
// Hashing contract: one scan per body per content version, and no hash
// pass over zeros.  A section streamed in through Begin() or handed in as a
// plain body is scanned once, when it closes, by Fnv64Extents: the scan
// yields its fnv64 and the extents of its non-zero words, kept side by side
// in the writer (one extents vector per writer, an index range per
// section).  A body handed in with its hash and extents (a cached
// page-table chunk, or PageTable::EmptyChunk(), which has no extents) is
// never read here at all.  Digest() and both seals share those hashes.  A
// seal sizes its payload first, writes header and payload into the
// caller's buffer, and derives both its checksums from the extents: the
// framing bytes plus each inline body's extents shifted to its place in
// the payload, so every zero gap costs one multiply (Fnv64Over).
class SectionedSnapshotWriter {
 public:
  // Opens a new section; the returned writer is valid until the next Begin/
  // Section/Seal/Digest call.  Section names must be unique within a seal.
  SnapshotWriter* Begin(const std::string& name);

  // Adds a section from an already-serialized body (a raw payload, no
  // container header) — the delta path's cache hit.
  void Section(const std::string& name, std::string body);

  // The same, for a shared cached body whose fnv64 and non-zero extents the
  // caller already holds.  `hash` and `extents` must be what
  // Fnv64Extents(*body) gives: a stale hash that matches the baseline would
  // seal a ref to the old body, and the chain would restore old state
  // without any checksum noticing.  The body is shared, not copied; the
  // extents are copied into the writer's one extents vector.
  void Section(const std::string& name, std::shared_ptr<const std::string> body,
               std::uint64_t hash, std::span<const ByteExtent> extents);

  // Seals into `out`, which is cleared first and keeps its capacity, so a
  // buffer reused across cuts is allocated once (a buffer too short for the
  // seal grows to twice the seal's size).  A null `base` seals every
  // section inline (a full cut); otherwise sections whose fnv64 matches
  // `base` become hash references and changed or baseline-absent sections
  // stay inline (a delta cut).
  SealHashes Seal(const SectionBaseline* base, SealBuffer* out);

  // The same seal into a fresh string: every section inline, or a delta
  // over `base`.
  std::string SealFull();
  std::string SealDelta(const SectionBaseline& base);

  // Content hashes of all sections added so far — the baseline for the next
  // delta once this seal commits.
  SectionBaseline Digest();

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<const std::string> body;
    std::uint64_t hash{0};  // Fnv64(*body)
    // The body's non-zero extents: extents_[extents_begin, extents_end).
    std::size_t extents_begin{0};
    std::size_t extents_end{0};
  };

  void Finish();
  void AddScanned(std::string name, std::shared_ptr<const std::string> body);
  template <class Bytes>
  SealHashes SealInto(const SectionBaseline* base, Bytes* out);

  std::vector<Entry> sections_;
  std::vector<ByteExtent> extents_;
  SnapshotWriter current_;
  std::string current_name_;
  bool open_{false};
};

// The resolved view of a checkpoint chain: section name -> body bytes, in
// the head cut's section order.  Load paths Open() each section they expect
// and Close() it when done; like SnapshotReader, the first failure latches
// and everything after reads as empty, so restores stay straight-line.
class SectionSource {
 public:
  bool ok() const { return ok_; }
  const SnapshotError& error() const { return error_; }
  void Fail(SnapshotErrorKind kind, std::string detail);

  bool Has(const std::string& name) const;

  // Reader over the named section's raw body; a missing name latches
  // kBadValue and returns an empty (already-failed) reader.
  SnapshotReader Open(const std::string& name);

  // Folds the section reader's outcome into this source: a read error or
  // trailing bytes latch here.  Returns ok().
  bool Close(SnapshotReader* reader, const std::string& name);

  // Latches kBadValue if any section was never opened — a restore must
  // account for every byte of the chain it trusted.
  void FailIfUnopened();

  std::size_t section_count() const { return sections_.size(); }

 private:
  friend Expected<SectionSource, SnapshotError> ResolveSectionChain(
      const std::vector<std::string>& links);

  std::vector<std::pair<std::string, std::string>> sections_;  // (name, body)
  std::map<std::string, std::size_t> index_;
  std::set<std::string> opened_;
  bool ok_{true};
  SnapshotError error_;
};

// Resolves a checkpoint chain — links[0] a full sectioned seal, each later
// link a delta over its predecessor — into the final section bodies.  Fails
// typed on: a non-full head, a delta head, a ref naming a section absent
// from the resolved base (kBadValue), or a ref whose recorded hash does not
// match the base body (kBadChecksum — the mis-chained-delta detector).
Expected<SectionSource, SnapshotError> ResolveSectionChain(
    const std::vector<std::string>& links);

class Fs;

// Writes `sealed` to `path` crash-atomically through `fs` (see Fs in
// src/core/fsio.h): write to `<path>.tmp`, flush to disk, rename over
// `path`, fsync the parent directory.  A reader never observes a torn file —
// it sees the old content or the new, which is the foundation the checkpoint
// store's manifest protocol builds on.  FsError collapses to kIo here; the
// two-argument forms run against the process-wide RealFs.
Status<SnapshotError> WriteFileAtomic(Fs* fs, const std::string& path,
                                      std::string_view sealed);
Status<SnapshotError> WriteFileAtomic(const std::string& path, std::string_view sealed);

// Reads a whole file; kIo when it cannot be opened or read.
Expected<std::string, SnapshotError> ReadFileBytes(Fs* fs, const std::string& path);
Expected<std::string, SnapshotError> ReadFileBytes(const std::string& path);

}  // namespace dsa

#endif  // SRC_CORE_SNAPSHOT_H_
