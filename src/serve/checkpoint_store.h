// CheckpointStore: a directory of checkpoint members committed as one
// consistent cut through a manifest, with incremental (delta) cuts chained
// onto periodic full cuts.
//
// Layout:
//
//   <dir>/<member>.<gen>.ckpt   one sealed snapshot per member per link
//   <dir>/MANIFEST              the commit point (text, written atomically)
//
// The MANIFEST names the current generation N, the base generation F of the
// last FULL cut, and for every member every live chain link — generation,
// kind (f full | d delta), file size, fnv64 content checksum:
//
//   DSAMANIFEST 2
//   gen <N>
//   base <F>
//   member <name> <gen> <f|d> <bytes> <fnv64-hex>
//   ...
//   end
//
// A member's restore chain is the suffix of its entries starting at its
// last `f` link; a delta commit appends a `d` link per staged member while
// re-listing (not rewriting) the untouched earlier links.  Entries pinned
// at gen F survive even for members no longer in the current cut — they are
// the FALLBACK cut recovery retreats to when a newer link is damaged.  A
// full commit re-seals every member, advances F to N, and lets the old
// chain files become removable orphans.
//
// Commit protocol (unchanged from v1): every new member file is written
// first (each via write-temp-then-rename + parent fsync through the Fs
// seam), then the manifest is rewritten atomically, then files no longer
// referenced are deleted.  A crash anywhere leaves either the old cut or
// the new cut fully intact.
//
// Recovery discipline: the manifest is the sole source of truth.  A damaged
// link (missing file, wrong length, checksum mismatch, bad container
// header) invalidates the WHOLE CHAIN it belongs to, which invalidates the
// whole current cut — restoring a partial cut or a partial chain would
// break bit-identical resume.  Damaged current-cut files newer than F are
// renamed to *.quarantine (uniquified when a previous incident already left
// evidence at that name) and recovery falls back to the gen-F full cut; if
// the fallback is damaged too — or the current cut IS the full cut — the
// whole store is quarantined and service starts fresh.  Falling back
// atomically rewrites the MANIFEST to name the fallback cut, so a crash
// mid-recovery re-runs the same decision.  Nothing in this layer aborts.

#ifndef SRC_SERVE_CHECKPOINT_STORE_H_
#define SRC_SERVE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/fsio.h"
#include "src/core/snapshot.h"

namespace dsa {

enum class CutKind : std::uint8_t {
  kFull,   // every staged member is a complete snapshot; advances the base
  kDelta,  // delta-staged members append to their chains; base stays put
};

class CheckpointStore {
 public:
  // Every durable op goes through `fs` (null: the process-wide RealFs) —
  // the seam the fault-point sweep injects failures into.
  explicit CheckpointStore(std::string dir, Fs* fs = nullptr)
      : dir_(std::move(dir)), fs_(fs != nullptr ? fs : &SystemFs()) {}

  struct QuarantineRecord {
    std::string file;  // path moved aside as *.quarantine evidence
    SnapshotError error;
  };

  struct Recovered {
    std::uint64_t generation{0};       // 0: no committed cut
    std::uint64_t base_generation{0};  // gen of the last full cut (<= generation)
    // name -> validated chain link bytes, full link first then deltas in
    // commit order.  Single-element chains for full cuts.
    std::map<std::string, std::vector<std::string>> members;
    std::vector<QuarantineRecord> quarantined;  // damaged files, if any
    // True when the current cut was damaged and the store retreated to the
    // last intact full cut (generation == base_generation afterwards).
    bool fell_back{false};
  };

  // Scans the directory: validates the committed cut against the manifest,
  // quarantines damage, falls back to the last full cut when a newer link
  // is hurt, deletes uncommitted orphan member files.  Only
  // unreadable-directory class failures are errors; a damaged cut is
  // recovered-as-older-or-empty with the quarantine records explaining why.
  // Must be called before Stage/Commit.
  Expected<Recovered, SnapshotError> Recover();

  // An empty buffer for `name`'s next seal, holding the capacity of the
  // bytes `name` last staged (the store keeps each member's bytes once they
  // commit), so sealing a steady member allocates nothing.  Taking the
  // buffer of a member staged but not yet committed unstages it.
  SealBuffer TakeSealBuffer(const std::string& name);

  // Stages `sealed` as `name`'s link in the next commit.  kFull restarts the
  // member's chain at the new generation; kDelta appends a link to its
  // committed chain, which only Commit(kDelta) accepts, and only for a
  // member that has one (a typed error at Commit time otherwise).  Every
  // commit publishes a complete cut: members not re-staged are NOT carried
  // over.  `file_hash` must equal Fnv64(sealed): the manifest records it as
  // the link checksum without reading the bytes again, and Recover checks
  // it against the file.
  void Stage(const std::string& name, SealBuffer sealed, std::uint64_t file_hash,
             CutKind kind);

  // Publishes the staged cut as the next generation (see the protocol
  // above) and clears the staging area.  kDelta with no committed base yet
  // is promoted to a full cut (the first commit seeds the chains).
  Status<SnapshotError> Commit(CutKind kind = CutKind::kFull);

  std::uint64_t generation() const { return generation_; }
  std::uint64_t base_generation() const { return base_generation_; }
  const std::string& dir() const { return dir_; }

 private:
  struct Link {
    std::uint64_t gen{0};
    bool delta{false};
    std::uint64_t bytes{0};
    std::uint64_t checksum{0};
  };
  struct StagedMember {
    SealBuffer sealed;
    std::uint64_t file_hash{0};  // Fnv64(sealed)
    bool delta{false};
  };

  std::string ManifestPath() const;
  std::string MemberPath(const std::string& name, std::uint64_t gen) const;
  // Renames `path` aside as quarantine evidence, probing `<path>.quarantine`,
  // `<path>.quarantine.1`, ... so an earlier incident's evidence at the same
  // name is never clobbered.  Failures (already gone, IO trouble) are
  // ignored — quarantine is best-effort evidence preservation.
  void QuarantineFile(const std::string& path);
  // Removes every .ckpt file in the store not named in `keep` (orphans of a
  // crashed or superseded commit).  `strict` reports list failures;
  // post-commit cleanup passes false because the commit itself already
  // happened.
  Status<SnapshotError> RemoveOrphans(const std::set<std::string>& keep, bool strict);

  std::string dir_;
  Fs* fs_;
  std::uint64_t generation_{0};
  std::uint64_t base_generation_{0};
  bool recovered_{false};
  // Committed state mirrored from the manifest: per-member chain links of
  // the current cut, plus the gen-F fallback entries (which include members
  // that have since completed and left the current cut).
  std::map<std::string, std::vector<Link>> chains_;
  std::map<std::string, Link> fallback_;
  std::map<std::string, StagedMember> staged_;
  // The committed bytes of every member of the current cut, kept for their
  // capacity: TakeSealBuffer hands them back emptied.
  std::map<std::string, SealBuffer> seal_buffers_;
};

}  // namespace dsa

#endif  // SRC_SERVE_CHECKPOINT_STORE_H_
