// Per-tenant checkpoint sealing: a tenant checkpoint is one snapshot
// container (src/core/snapshot.h) holding the tenant's identity, its
// progress through the trace, the byte offset of its published event JSONL
// prefix, and the complete PagedLinearVm state.
//
// Identity is a pair of fingerprints: one over the system spec (so a
// checkpoint taken under a different configuration is rejected instead of
// silently restored into the wrong machine) and one over the raw trace
// bytes (so a checkpoint cannot resume against an edited workload).  Both
// are fnv64 over canonical renderings, platform-independent by
// construction.

#ifndef SRC_SERVE_CHECKPOINT_H_
#define SRC_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/snapshot.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace dsa {

// Identity and progress of one tenant at a checkpoint cut.
struct TenantCheckpointMeta {
  std::string tenant;                   // spool file name
  std::uint64_t spec_fingerprint{0};    // SpecFingerprint of the serving spec
  std::uint64_t trace_fingerprint{0};   // fnv64 of the raw spool file bytes
  std::uint64_t trace_size{0};          // reference count (cheap sanity)
  std::uint64_t next_ref{0};            // index of the next reference to step
  std::uint64_t events_published{0};    // events already in the tenant JSONL
  std::uint64_t jsonl_bytes{0};         // byte length of the published prefix
};

// fnv64 over a canonical rendering of every spec field the paged family
// consumes.  Two specs with equal fingerprints build identical systems.
std::uint64_t SpecFingerprint(const SystemSpec& spec);

// Meta + full VM state, framed as sections: a "meta" section followed by
// the VM's sections (see PagedLinearVm::SaveSections).  With a null
// `baseline` every section is inline (a full cut); with a baseline, sections
// whose content hash matches collapse to refs (a delta cut).  `digest_out`,
// when non-null, receives the cut's section hashes — the baseline for the
// next delta once this cut commits.
std::string SealTenantCheckpointSections(const TenantCheckpointMeta& meta,
                                         const PagedLinearVm& vm,
                                         const SectionBaseline* baseline,
                                         SectionBaseline* digest_out);

// Restores a tenant from a checkpoint chain — links[0] a full sectioned
// seal, later links deltas — into `vm`, which must be freshly Reset() and
// built from the spec whose fingerprint is `spec_fingerprint`.  Rejects
// (typed, never aborts) container corruption, fingerprint or trace-size
// mismatches, and a cursor past the trace end; whole-chain validation adds
// that a mis-chained delta fails kBadChecksum, and an unconsumed or missing
// section fails kBadValue.
Expected<TenantCheckpointMeta, SnapshotError> OpenTenantCheckpointChain(
    const std::vector<std::string>& links, std::uint64_t spec_fingerprint,
    std::uint64_t trace_fingerprint, std::uint64_t trace_size, PagedLinearVm* vm);

}  // namespace dsa

#endif  // SRC_SERVE_CHECKPOINT_H_
