#include "src/serve/checkpoint.h"

#include <cinttypes>
#include <cstdio>

namespace dsa {

namespace {

void AppendField(std::string* canon, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", key, value);
  canon->append(buf);
}

void AppendRate(std::string* canon, const char* key, double value) {
  // %.17g round-trips every double, so the rendering is injective.
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, value);
  canon->append(buf);
}

void AppendRates(std::string* canon, const FaultRates& rates) {
  AppendRate(canon, "transient", rates.transient_transfer);
  AppendRate(canon, "permanent", rates.permanent_slot);
  AppendRate(canon, "frame", rates.frame_failure);
}

}  // namespace

std::uint64_t SpecFingerprint(const SystemSpec& spec) {
  // Canonical key=value rendering of every field BuildSystem consumes.
  // The label is deliberately excluded: it names the run, it does not
  // change the machine.
  std::string canon;
  canon.reserve(512);
  AppendField(&canon, "ns", static_cast<std::uint64_t>(spec.characteristics.name_space));
  AppendField(&canon, "pred", static_cast<std::uint64_t>(spec.characteristics.predictive));
  AppendField(&canon, "psrc",
              static_cast<std::uint64_t>(spec.characteristics.prediction_source));
  AppendField(&canon, "contig", static_cast<std::uint64_t>(spec.characteristics.contiguity));
  AppendField(&canon, "unit", static_cast<std::uint64_t>(spec.characteristics.unit));
  AppendField(&canon, "fetch", static_cast<std::uint64_t>(spec.fetch));
  AppendField(&canon, "place", static_cast<std::uint64_t>(spec.placement));
  AppendField(&canon, "repl", static_cast<std::uint64_t>(spec.replacement));
  AppendField(&canon, "core", spec.core_words);
  AppendField(&canon, "page", spec.page_words);
  AppendField(&canon, "maxseg", spec.max_segment_extent);
  AppendField(&canon, "wseg", spec.workload_segment_words);
  AppendField(&canon, "blkind", static_cast<std::uint64_t>(spec.backing_level.kind));
  AppendField(&canon, "blcap", spec.backing_level.capacity_words);
  AppendField(&canon, "blword", spec.backing_level.cycles_per_word);
  AppendField(&canon, "bllat", spec.backing_level.access_latency);
  AppendField(&canon, "tlb", spec.tlb_entries);
  AppendField(&canon, "cpr", spec.cycles_per_reference);
  AppendField(&canon, "fseed", spec.fault_injection.seed);
  AppendField(&canon, "fretry", static_cast<std::uint64_t>(spec.fault_injection.max_retries));
  AppendRates(&canon, spec.fault_injection.rates);
  for (const auto& [level, rates] : spec.fault_injection.level_rates) {
    AppendField(&canon, "flevel", level);
    AppendRates(&canon, rates);
  }
  return Fnv64(canon);
}

std::string SealTenantCheckpointSections(const TenantCheckpointMeta& meta,
                                         const PagedLinearVm& vm,
                                         const SectionBaseline* baseline,
                                         SectionBaseline* digest_out) {
  SectionedSnapshotWriter w;
  {
    SnapshotWriter* s = w.Begin("meta");
    s->Str(meta.tenant);
    s->U64(meta.spec_fingerprint);
    s->U64(meta.trace_fingerprint);
    s->U64(meta.trace_size);
    s->U64(meta.next_ref);
    s->U64(meta.events_published);
    s->U64(meta.jsonl_bytes);
  }
  vm.SaveSections(&w);
  if (digest_out != nullptr) {
    *digest_out = w.Digest();
  }
  return baseline == nullptr ? w.SealFull() : w.SealDelta(*baseline);
}

Expected<TenantCheckpointMeta, SnapshotError> OpenTenantCheckpointChain(
    const std::vector<std::string>& links, std::uint64_t spec_fingerprint,
    std::uint64_t trace_fingerprint, std::uint64_t trace_size, PagedLinearVm* vm) {
  auto resolved = ResolveSectionChain(links);
  if (!resolved.has_value()) {
    return MakeUnexpected(resolved.error());
  }
  SectionSource& src = resolved.value();
  TenantCheckpointMeta meta;
  {
    SnapshotReader r = src.Open("meta");
    meta.tenant = r.Str();
    meta.spec_fingerprint = r.U64();
    meta.trace_fingerprint = r.U64();
    meta.trace_size = r.U64();
    meta.next_ref = r.U64();
    meta.events_published = r.U64();
    meta.jsonl_bytes = r.U64();
    if (r.ok() && meta.spec_fingerprint != spec_fingerprint) {
      r.Fail(SnapshotErrorKind::kBadValue,
             "checkpoint was taken under a different system spec");
    }
    if (r.ok() && meta.trace_fingerprint != trace_fingerprint) {
      r.Fail(SnapshotErrorKind::kBadValue,
             "checkpoint was taken against a different trace");
    }
    if (r.ok() && meta.trace_size != trace_size) {
      r.Fail(SnapshotErrorKind::kBadValue, "checkpoint trace length disagrees");
    }
    if (r.ok() && meta.next_ref > trace_size) {
      r.Fail(SnapshotErrorKind::kBadValue, "checkpoint cursor past the trace end");
    }
    src.Close(&r, "meta");
  }
  if (src.ok()) {
    vm->LoadSections(&src);
  }
  src.FailIfUnopened();
  if (!src.ok()) {
    return MakeUnexpected(src.error());
  }
  return meta;
}

}  // namespace dsa
