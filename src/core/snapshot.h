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
#include <optional>
#include <set>
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

// Builds a sectioned snapshot.  Components stream into Begin()'s writer
// through their own SaveState(SnapshotWriter*); cached pre-serialized bodies
// go in via Section() without re-encoding.
//
// Hashing contract: each section's fnv64 is computed at most once per writer
// and shared by Digest() and SealDelta(), and a body handed in with its hash
// (a cached page-table chunk, or the one shared body of every empty chunk,
// PageTable::EmptyChunk()) is never hashed here at all.  SealFull() hashes
// no section; its one hash pass is the container checksum, which Fnv64's
// zero-run kernel prices at the payload's non-zero bytes.  Each seal
// writes into one buffer reserved at its final size.
class SectionedSnapshotWriter {
 public:
  // Opens a new section; the returned writer is valid until the next Begin/
  // Section/Seal/Digest call.  Section names must be unique within a seal.
  SnapshotWriter* Begin(const std::string& name);

  // Adds a section from an already-serialized body (a raw payload, no
  // container header) — the delta path's cache hit.
  void Section(const std::string& name, std::string body);

  // The same, for a shared cached body whose fnv64 the caller already holds.
  // `hash` must equal Fnv64(*body): a stale hash that matches the baseline
  // would seal a ref to the old body, and the chain would restore old state
  // without any checksum noticing.  The body is shared, not copied.
  void Section(const std::string& name, std::shared_ptr<const std::string> body,
               std::uint64_t hash);

  // Every section inline.
  std::string SealFull();

  // Sections whose fnv64 matches `base` become hash references; changed or
  // baseline-absent sections stay inline.
  std::string SealDelta(const SectionBaseline& base);

  // Content hashes of all sections added so far — the baseline for the next
  // delta once this seal commits.
  SectionBaseline Digest();

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<const std::string> body;
    std::optional<std::uint64_t> hash{};  // Fnv64(*body), once computed or given
  };

  void Finish();
  std::uint64_t HashOf(Entry* entry);
  std::string SealKind(std::uint8_t kind, const SectionBaseline* base);

  std::vector<Entry> sections_;
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
