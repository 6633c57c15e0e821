// Snapshot substrate tests: writer/reader primitive round-trips, the
// container's corruption taxonomy (truncated / flipped byte / bad magic /
// stale version -> typed errors, zero-value reads, no aborts), Rng
// State()/Restore() continuation purity over 2^17 draws, and the headline
// component guarantee — a PagedLinearVm checkpointed mid-run and reloaded
// into a fresh instance continues bit-identically to the uninterrupted run,
// across every replacement policy service mode can host and both paged-VM
// mappers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/map/page_table.h"
#include "src/obs/metrics.h"
#include "src/obs/vm_metrics.h"
#include "src/sched/load_control.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

TEST(SnapshotPrimitivesTest, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.U8(0xab);
  w.Bool(true);
  w.Bool(false);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefULL);
  w.F64(0.6180339887498949);
  w.F64(-0.0);
  w.Str("hello snapshot");
  w.Str("");
  const std::string sealed = w.Seal();

  SnapshotReader r(sealed);
  ASSERT_TRUE(r.ok()) << r.error().Describe();
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.F64(), 0.6180339887498949);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "-0.0 must round-trip bit-exactly";
  EXPECT_EQ(r.Str(), "hello snapshot");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

// U64s against its oracle, n U64 calls, at aligned and unaligned offsets;
// Zeros and Reserve add exactly their bytes.
TEST(SnapshotPrimitivesTest, BulkU64sMatchNSingleCalls) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::uint64_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = i % 3 == 0 ? 0 : (i % 3 == 1 ? ~std::uint64_t{0} : rng.Next());
    }
    for (const bool unaligned : {false, true}) {
      SnapshotWriter bulk;
      SnapshotWriter oracle;
      if (unaligned) {
        bulk.U8(0x11);
        oracle.U8(0x11);
      }
      bulk.Reserve(8 * n);
      bulk.U64s(values.data(), n);
      for (const std::uint64_t v : values) {
        oracle.U64(v);
      }
      bulk.U64(n);
      oracle.U64(n);
      EXPECT_EQ(bulk.TakePayload(), oracle.TakePayload()) << n << " words";
    }
  }
}

TEST(SnapshotPrimitivesTest, ZerosAppendsZeroBytesInPlace) {
  SnapshotWriter w;
  w.U8(0xab);
  char* run = w.Zeros(9);
  StoreU64Le(run + 1, 0x0102030405060708ULL);
  w.Zeros(0);
  w.U8(0xcd);
  SnapshotWriter oracle;
  oracle.U8(0xab);
  oracle.U8(0);
  oracle.U64(0x0102030405060708ULL);
  oracle.U8(0xcd);
  EXPECT_EQ(w.TakePayload(), oracle.TakePayload());
}

TEST(SnapshotPrimitivesTest, SealIsDeterministic) {
  auto build = [] {
    SnapshotWriter w;
    w.U64(42);
    w.Str("tenant");
    return w.Seal();
  };
  EXPECT_EQ(build(), build());
}

TEST(SnapshotPrimitivesTest, CountEnforcesAllocationLimit) {
  SnapshotWriter w;
  w.U64(1u << 20);  // a "length" far beyond what the caller will accept
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  EXPECT_EQ(r.Count(1024), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadValue);
}

TEST(SnapshotPrimitivesTest, AtEndRejectsTrailingGarbage) {
  SnapshotWriter w;
  w.U64(1);
  w.U64(2);
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  (void)r.U64();
  EXPECT_FALSE(r.AtEnd()) << "one u64 of payload remains";
  (void)r.U64();
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotPrimitivesTest, ReadsPastEndLatchTruncatedAndReturnZero) {
  SnapshotWriter w;
  w.U32(7);
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 0u) << "read past end must return a zero value";
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
  // Every subsequent read stays zero; the first error is latched.
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
}

std::string SampleSealed() {
  SnapshotWriter w;
  w.U64(123456789);
  w.Str("payload under test");
  w.F64(3.5);
  return w.Seal();
}

TEST(SnapshotCorruptionTest, TruncatedFileIsTyped) {
  const std::string sealed = SampleSealed();
  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, std::size_t{19},
                           sealed.size() - 1}) {
    const std::string cut = sealed.substr(0, keep);
    SnapshotReader r(cut);
    EXPECT_FALSE(r.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated) << "kept " << keep;
    EXPECT_EQ(r.U64(), 0u);
  }
}

TEST(SnapshotCorruptionTest, EveryFlippedPayloadByteIsCaught) {
  const std::string sealed = SampleSealed();
  // Header: magic(8) + version(4) + length(8) + checksum(8).
  const std::size_t payload_start = 28;
  for (std::size_t i = payload_start; i < sealed.size(); ++i) {
    std::string bent = sealed;
    bent[i] = static_cast<char>(bent[i] ^ 0x40);
    SnapshotReader r(bent);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i;
    EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadChecksum) << "flip at " << i;
  }
}

TEST(SnapshotCorruptionTest, FlippedChecksumByteIsCaught) {
  std::string bent = SampleSealed();
  bent[20] = static_cast<char>(bent[20] ^ 0x01);  // first checksum byte
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadChecksum);
}

TEST(SnapshotCorruptionTest, BadMagicIsTyped) {
  std::string bent = SampleSealed();
  bent[0] = 'X';
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kBadMagic);

  SnapshotReader garbage("definitely not a snapshot, longer than a header");
  EXPECT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.error().kind, SnapshotErrorKind::kBadMagic);
}

TEST(SnapshotCorruptionTest, StaleVersionIsTypedNotGuessed) {
  std::string bent = SampleSealed();
  bent[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // version LSB
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kStaleVersion);
}

TEST(SnapshotCorruptionTest, LyingLengthFieldIsTruncated) {
  std::string bent = SampleSealed();
  bent[12] = static_cast<char>(bent[12] + 1);  // length LSB: promise more bytes
  SnapshotReader r(bent);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, SnapshotErrorKind::kTruncated);
}

// ---------------------------------------------------------------------------
// Rng State()/Restore() purity.

constexpr std::size_t kDrawHorizon = std::size_t{1} << 17;

TEST(RngSnapshotTest, RestoredStreamContinuesIdenticallyOverLongHorizon) {
  Rng original(0xfeedfaceULL);
  // Burn an odd prefix so the captured state is mid-stream, not post-seed.
  for (int i = 0; i < 12345; ++i) {
    (void)original.Next();
  }
  const RngState state = original.State();

  Rng restored(1);  // deliberately different seed; Restore must overwrite all
  restored.Restore(state);
  for (std::size_t i = 0; i < kDrawHorizon; ++i) {
    ASSERT_EQ(original.Next(), restored.Next()) << "diverged at draw " << i;
  }
}

TEST(RngSnapshotTest, RestoredGeneratorForksIdenticalChildren) {
  Rng original(0x5eedULL);
  for (int i = 0; i < 999; ++i) {
    (void)original.Next();
  }
  Rng restored(2);
  restored.Restore(original.State());

  for (std::uint64_t stream : {0ULL, 1ULL, 7ULL, 1000ULL}) {
    Rng a = original.Fork(stream);
    Rng b = restored.Fork(stream);
    for (std::size_t i = 0; i < kDrawHorizon / 8; ++i) {
      ASSERT_EQ(a.Next(), b.Next())
          << "fork stream " << stream << " diverged at draw " << i;
    }
  }
}

TEST(RngSnapshotTest, StateRoundTripsThroughSnapshotBytes) {
  Rng original(0xabcdefULL);
  for (int i = 0; i < 777; ++i) {
    (void)original.Next();
  }
  SnapshotWriter w;
  SaveRngState(&w, original.State());
  const std::string sealed_bytes = w.Seal();
  SnapshotReader r(sealed_bytes);
  const RngState loaded = LoadRngState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  EXPECT_EQ(loaded, original.State());
}

// ---------------------------------------------------------------------------
// Component round-trips.

TEST(ComponentSnapshotTest, MetricsRegistryRoundTripsAndMerges) {
  MetricsRegistry reg;
  reg.GetCounter("vm/references")->Increment(100);
  reg.GetCounter("vm/faults")->Increment(7);
  SnapshotWriter w;
  reg.SaveState(&w);
  const std::string sealed = w.Seal();

  MetricsRegistry fresh;
  SnapshotReader r(sealed);
  fresh.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  EXPECT_EQ(fresh.CounterValue("vm/references"), 100u);
  EXPECT_EQ(fresh.CounterValue("vm/faults"), 7u);

  // LoadState merges by NAME (new names register, existing names must agree
  // on kind) but restores each metric's value verbatim — the snapshot is
  // authoritative, pre-existing counts are overwritten, not accumulated.
  MetricsRegistry merged;
  merged.GetCounter("vm/references")->Increment(11);
  merged.GetCounter("local/only")->Increment(5);
  SnapshotReader r2(sealed);
  merged.LoadState(&r2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(merged.CounterValue("vm/references"), 100u);
  EXPECT_EQ(merged.CounterValue("local/only"), 5u);
}

TEST(ComponentSnapshotTest, LoadControllerRoundTripsDecisionState) {
  LoadControlConfig config;
  config.policy = LoadControlPolicy::kAdaptiveFaultRate;
  LoadController a(config, /*core_words=*/4096, /*page_words=*/128);
  // Feed an arbitrary but deterministic signal history.
  for (Cycles now = 0; now < 50000; now += 1000) {
    a.detector().RecordReference(now);
    if (now % 3000 == 0) {
      a.detector().RecordFault(now, /*wait=*/400);
    }
    a.detector().RecordSpaceTime(now, /*active_wt=*/static_cast<double>(now) * 10.0,
                                 /*waiting_wt=*/static_cast<double>(now) * 2.0);
  }
  SnapshotWriter w;
  a.SaveState(&w);
  const std::string sealed = w.Seal();

  LoadController b(config, 4096, 128);
  SnapshotReader r(sealed);
  b.LoadState(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();

  // The restored controller must make the same decisions the original
  // would: serialize both again and compare bytes.
  SnapshotWriter wa;
  a.SaveState(&wa);
  SnapshotWriter wb;
  b.SaveState(&wb);
  EXPECT_EQ(wa.Seal(), wb.Seal());
}

// ---------------------------------------------------------------------------
// Fnv64 exactness: the word-scanning, zero-run kernel must equal the plain
// FNV-1a byte loop on every input.

std::uint64_t ByteLoopFnv64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Fnv64Test, PublishedVectors) {
  EXPECT_EQ(Fnv64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv64Test, MatchesByteLoopAtEveryLengthAndStartOffset) {
  // Mostly-zero bytes, so zero words, non-zero words and runs of each occur
  // at every alignment.
  Rng rng(0xf00dULL);
  std::string buf(300 + 8 + 8, '\0');
  for (char& c : buf) {
    if (rng.Next() % 4 == 0) {
      c = static_cast<char>(rng.Next() & 0xff);
    }
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::string_view view(buf.data() + offset, length);
      ASSERT_EQ(Fnv64(view), ByteLoopFnv64(view)) << "offset " << offset << " length " << length;
    }
  }
}

TEST(Fnv64Test, ZeroRunsAcrossWordAndBlockBoundaries) {
  Rng rng(0xbeefULL);
  std::string dense(200, '\0');
  for (char& c : dense) {
    c = static_cast<char>(1 + rng.Next() % 255);
  }
  for (std::size_t start = 0; start < 40; ++start) {
    for (std::size_t run = 0; run <= 120; ++run) {
      std::string buf = dense;
      std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(start), run, '\0');
      ASSERT_EQ(Fnv64(buf), ByteLoopFnv64(buf)) << "zero run of " << run << " at " << start;
    }
  }
}

TEST(Fnv64Test, LongZeroBuffers) {
  std::string zeros(std::size_t{4} << 20, '\0');
  EXPECT_EQ(Fnv64(zeros), ByteLoopFnv64(zeros));
  zeros.back() = 1;
  EXPECT_EQ(Fnv64(zeros), ByteLoopFnv64(zeros));
  zeros.push_back(7);  // the only non-zero bytes now straddle the tail
  EXPECT_EQ(Fnv64(zeros), ByteLoopFnv64(zeros));
}

// ---------------------------------------------------------------------------
// PagedLinearVm mid-run checkpointing.

SystemSpec ServeSpec(ReplacementStrategyKind replacement) {
  SystemSpec spec;
  spec.label = "snapshot-vm";
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames
  spec.tlb_entries = 4;
  spec.replacement = replacement;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

ReferenceTrace VmTrace() {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  params.regions_per_phase = 6;
  params.phase_length = 1500;
  params.phases = 3;
  params.seed = 97;
  return MakeWorkingSetTrace(params);
}

std::string StepAll(PagedLinearVm* vm, const ReferenceTrace& trace,
                    std::size_t from) {
  for (std::size_t i = from; i < trace.refs.size(); ++i) {
    vm->Step(trace.refs[i]);
  }
  VmReport report = vm->Snapshot();
  report.label = trace.label;
  return RenderVmReport(report, Describe(vm->characteristics()), trace.label);
}

// A standalone VM snapshot: the full sectioned seal, with no baseline.
std::string SealVm(const PagedLinearVm& vm) {
  SectionedSnapshotWriter w;
  vm.SaveSections(&w);
  return w.SealFull();
}

// Restores a standalone snapshot into `vm`: the one-link chain must resolve,
// every section must load, and none may go unread.  Empty on success.
std::optional<SnapshotError> LoadVm(PagedLinearVm* vm, const std::string& sealed) {
  auto resolved = ResolveSectionChain({sealed});
  if (!resolved.has_value()) {
    return resolved.error();
  }
  SectionSource& src = resolved.value();
  vm->LoadSections(&src);
  src.FailIfUnopened();
  if (!src.ok()) {
    return src.error();
  }
  return std::nullopt;
}

TEST(PagedVmSnapshotTest, MidRunSaveLoadContinuesBitIdenticallyAcrossPolicies) {
  const ReferenceTrace trace = VmTrace();
  std::vector<std::pair<std::string, PagedVmConfig>> configs;
  for (ReplacementStrategyKind policy :
       {ReplacementStrategyKind::kLru, ReplacementStrategyKind::kFifo,
        ReplacementStrategyKind::kClock, ReplacementStrategyKind::kRandom,
        ReplacementStrategyKind::kM44Class, ReplacementStrategyKind::kWorkingSet}) {
    configs.emplace_back(ToString(policy), PagedConfigFromSpec(ServeSpec(policy)));
  }
  // The ATLAS register file is the mapper's whole state, saved as map.head.
  PagedVmConfig atlas = PagedConfigFromSpec(ServeSpec(ReplacementStrategyKind::kLru));
  atlas.mapper = PagedMapperKind::kAtlasRegisters;
  configs.emplace_back("atlas-registers", atlas);

  for (const auto& [label, config] : configs) {
    PagedLinearVm straight(config);
    const std::string expected = StepAll(&straight, trace, 0);

    // Interrupt at several cut points, including mid-phase ones.
    for (std::size_t cut : {std::size_t{1}, trace.refs.size() / 3,
                            trace.refs.size() / 2,
                            trace.refs.size() - 1}) {
      PagedLinearVm first(config);
      for (std::size_t i = 0; i < cut; ++i) {
        first.Step(trace.refs[i]);
      }
      const std::string sealed = SealVm(first);

      PagedLinearVm resumed(config);
      const std::optional<SnapshotError> error = LoadVm(&resumed, sealed);
      ASSERT_FALSE(error.has_value()) << label << " cut " << cut << ": "
                                      << error->Describe();
      EXPECT_EQ(SealVm(resumed), sealed) << label << " cut " << cut << ": reseal differs";
      EXPECT_EQ(StepAll(&resumed, trace, cut), expected) << label << " cut at " << cut;
    }
  }
}

TEST(PagedVmSnapshotTest, SealedSectionsAreDeterministicForIdenticalState) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  auto capture = [&] {
    PagedLinearVm vm(PagedConfigFromSpec(spec));
    for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
      vm.Step(trace.refs[i]);
    }
    return SealVm(vm);
  };
  EXPECT_EQ(capture(), capture());
}

TEST(PagedVmSnapshotTest, CorruptVmSnapshotFailsTypedWithoutCrashing) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < 1000; ++i) {
    vm.Step(trace.refs[i]);
  }
  const std::string sealed = SealVm(vm);

  // Truncation, payload flips at several depths, and a stale version must
  // all surface as typed errors — never an abort, never a partial load
  // that silently "works".
  std::vector<std::string> corrupt;
  corrupt.push_back(sealed.substr(0, sealed.size() / 2));
  for (std::size_t at : {std::size_t{28}, sealed.size() / 2, sealed.size() - 1}) {
    std::string bent = sealed;
    bent[at] = static_cast<char>(bent[at] ^ 0x10);
    corrupt.push_back(std::move(bent));
  }
  {
    std::string stale = sealed;
    stale[8] = static_cast<char>(kSnapshotFormatVersion + 3);
    corrupt.push_back(std::move(stale));
  }
  for (const std::string& bytes : corrupt) {
    PagedLinearVm fresh(PagedConfigFromSpec(spec));
    const std::optional<SnapshotError> error = LoadVm(&fresh, bytes);
    ASSERT_TRUE(error.has_value());
    EXPECT_FALSE(error->Describe().empty());
  }
}

TEST(PagedVmSnapshotTest, FaultInjectedRunResumesIdentically) {
  // The injector's Rng stream is part of the checkpoint: a resumed run must
  // see the same fault schedule tail.
  SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  spec.fault_injection.rates.transient_transfer = 0.05;
  spec.fault_injection.seed = 4242;
  const ReferenceTrace trace = VmTrace();

  PagedLinearVm straight(PagedConfigFromSpec(spec));
  const std::string expected = StepAll(&straight, trace, 0);

  const std::size_t cut = trace.refs.size() / 2;
  PagedLinearVm first(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < cut; ++i) {
    first.Step(trace.refs[i]);
  }
  PagedLinearVm resumed(PagedConfigFromSpec(spec));
  const std::optional<SnapshotError> error = LoadVm(&resumed, SealVm(first));
  ASSERT_FALSE(error.has_value()) << error->Describe();
  EXPECT_EQ(StepAll(&resumed, trace, cut), expected);
}

// Re-seals a standalone cut with `mutate` applied to the body of the
// section named `target`; every other section keeps its bytes.
std::string ResealWith(const std::string& sealed, const std::string& target,
                       const std::function<void(std::string*)>& mutate) {
  SnapshotReader r(sealed);
  r.U8();  // kind: a standalone cut is full
  const std::uint64_t count = r.U64();
  SectionedSnapshotWriter w;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string name = r.Str();
    EXPECT_EQ(r.U8(), 0u) << name << " is not inline";
    std::string body = r.Str();
    if (name == target) {
      mutate(&body);
    }
    w.Section(name, std::move(body));
  }
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return w.SealFull();
}

// A cut of `config` halfway through VmTrace().
std::string HalfwayCut(const PagedVmConfig& config) {
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(config);
  for (std::size_t i = 0; i < trace.refs.size() / 2; ++i) {
    vm.Step(trace.refs[i]);
  }
  return SealVm(vm);
}

void ExpectMapPagerMismatch(const PagedVmConfig& config, const std::string& sealed) {
  PagedLinearVm fresh(config);
  const std::optional<SnapshotError> error = LoadVm(&fresh, sealed);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->kind, SnapshotErrorKind::kBadValue) << error->Describe();
  EXPECT_NE(error->Describe().find("disagrees with the pager"), std::string::npos)
      << error->Describe();
}

// Every section loads on its own, but the page table (or its TLB) no longer
// maps the pages the pager holds: Step would take a hit's frame from the
// map, so the load must refuse the pair.
TEST(PagedVmSnapshotTest, PageTableThatDisagreesWithThePagerFailsTyped) {
  const PagedVmConfig config = PagedConfigFromSpec(ServeSpec(ReplacementStrategyKind::kLru));
  const std::string sealed = HalfwayCut(config);
  ASSERT_EQ(ResealWith(sealed, "", [](std::string*) {}), sealed);
  {
    PagedLinearVm fresh(config);
    ASSERT_FALSE(LoadVm(&fresh, sealed).has_value());
  }

  // Drop one present map.pt entry: it reads back as absent (zero bytes).
  bool dropped = false;
  const std::string no_entry = ResealWith(sealed, "map.pt.0", [&](std::string* body) {
    constexpr std::size_t kEntryBytes = 9;  // present flag + frame
    for (std::size_t at = 0; at < body->size(); at += kEntryBytes) {
      if ((*body)[at] == 1) {
        body->replace(at, kEntryBytes, kEntryBytes, '\0');
        dropped = true;
        return;
      }
    }
  });
  ASSERT_TRUE(dropped);
  ExpectMapPagerMismatch(config, no_entry);

  // Point the first TLB slot at another frame.  map.head: u64 page count,
  // u64 slot count, then (key, value, last_use) per slot.
  const std::string stale_slot = ResealWith(sealed, "map.head", [](std::string* body) {
    SnapshotReader head = SnapshotReader::ForPayload(*body);
    head.U64();
    ASSERT_GT(head.U64(), 0u);
    constexpr std::size_t kValueAt = 8 + 8 + 8;
    const std::uint64_t frame = SnapshotReader::ForPayload(body->substr(kValueAt, 8)).U64();
    StoreU64Le(body->data() + kValueAt, (frame + 1) % 16);
  });
  ExpectMapPagerMismatch(config, stale_slot);
}

TEST(PagedVmSnapshotTest, AtlasRegistersThatDisagreeWithThePagerFailTyped) {
  PagedVmConfig config = PagedConfigFromSpec(ServeSpec(ReplacementStrategyKind::kLru));
  config.mapper = PagedMapperKind::kAtlasRegisters;
  const std::string sealed = HalfwayCut(config);
  {
    PagedLinearVm fresh(config);
    ASSERT_FALSE(LoadVm(&fresh, sealed).has_value());
  }

  // Empty the first loaded register.  map.head: u64 register count, then
  // (loaded flag, page) per register; an empty one is all zero bytes.
  bool emptied = false;
  const std::string empty_register = ResealWith(sealed, "map.head", [&](std::string* body) {
    constexpr std::size_t kRegisterBytes = 9;
    const std::uint64_t registers = SnapshotReader::ForPayload(*body).U64();
    for (std::size_t f = 0; f < registers; ++f) {
      const std::size_t at = 8 + f * kRegisterBytes;
      if ((*body)[at] == 1) {
        body->replace(at, kRegisterBytes, kRegisterBytes, '\0');
        emptied = true;
        return;
      }
    }
  });
  ASSERT_TRUE(emptied);
  ExpectMapPagerMismatch(config, empty_register);
}

// --- Sectioned snapshots: the delta-checkpoint substrate.

std::string SealThreeSections(const std::string& b_body) {
  SectionedSnapshotWriter w;
  w.Begin("alpha")->U64(11);
  w.Section("beta", b_body);
  SnapshotWriter* c = w.Begin("gamma");
  c->Str("third");
  c->Bool(true);
  return w.SealFull();
}

TEST(SectionedSnapshotTest, FullSealRoundTripsInOrder) {
  auto resolved = ResolveSectionChain({SealThreeSections("bb")});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  EXPECT_EQ(src.section_count(), 3u);
  EXPECT_TRUE(src.Has("beta"));
  EXPECT_FALSE(src.Has("delta"));

  SnapshotReader a = src.Open("alpha");
  EXPECT_EQ(a.U64(), 11u);
  EXPECT_TRUE(src.Close(&a, "alpha"));
  SnapshotReader b = src.Open("beta");
  // "beta" was added pre-serialized: its body is the raw bytes verbatim.
  EXPECT_EQ(b.U8(), 'b');
  EXPECT_EQ(b.U8(), 'b');
  EXPECT_TRUE(src.Close(&b, "beta"));
  SnapshotReader c = src.Open("gamma");
  EXPECT_EQ(c.Str(), "third");
  EXPECT_TRUE(c.Bool());
  EXPECT_TRUE(src.Close(&c, "gamma"));
  src.FailIfUnopened();
  EXPECT_TRUE(src.ok()) << src.error().Describe();
}

TEST(SectionedSnapshotTest, DeltaSealRefsUnchangedSectionsAndResolves) {
  SectionedSnapshotWriter base_w;
  base_w.Begin("stable")->U64(1);
  base_w.Begin("hot")->U64(2);
  const SectionBaseline baseline = base_w.Digest();
  const std::string full = base_w.SealFull();

  SectionedSnapshotWriter next_w;
  next_w.Begin("stable")->U64(1);  // unchanged -> becomes a hash ref
  next_w.Begin("hot")->U64(99);    // changed -> stays inline
  const std::string delta = next_w.SealDelta(baseline);
  EXPECT_LT(delta.size(), next_w.SealFull().size());

  auto resolved = ResolveSectionChain({full, delta});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  SnapshotReader s = src.Open("stable");
  EXPECT_EQ(s.U64(), 1u);
  EXPECT_TRUE(src.Close(&s, "stable"));
  SnapshotReader h = src.Open("hot");
  EXPECT_EQ(h.U64(), 99u);
  EXPECT_TRUE(src.Close(&h, "hot"));
  src.FailIfUnopened();
  EXPECT_TRUE(src.ok()) << src.error().Describe();
}

TEST(SectionedSnapshotTest, MisChainedDeltaFailsChecksum) {
  // A delta sealed against base A resolved over base B: the ref's recorded
  // hash cannot match B's body, and the chain must fail typed rather than
  // restore mixed state.
  SectionedSnapshotWriter a;
  a.Begin("s")->U64(1);
  const SectionBaseline base_a = a.Digest();

  SectionedSnapshotWriter b;
  b.Begin("s")->U64(2);
  const std::string full_b = b.SealFull();

  SectionedSnapshotWriter d;
  d.Begin("s")->U64(1);  // unchanged vs A -> sealed as a ref to A's hash
  const std::string delta_over_a = d.SealDelta(base_a);

  auto resolved = ResolveSectionChain({full_b, delta_over_a});
  ASSERT_FALSE(resolved.has_value());
  EXPECT_EQ(resolved.error().kind, SnapshotErrorKind::kBadChecksum);
}

TEST(SectionedSnapshotTest, DeltaHeadAndRefToAbsentSectionAreTyped) {
  SectionedSnapshotWriter base_w;
  base_w.Begin("only")->U64(5);
  const SectionBaseline baseline = base_w.Digest();
  const std::string full = base_w.SealFull();

  SectionedSnapshotWriter d;
  d.Begin("only")->U64(5);
  const std::string delta = d.SealDelta(baseline);

  // A chain headed by a delta has no base to resolve against.
  auto headless = ResolveSectionChain({delta});
  ASSERT_FALSE(headless.has_value());
  EXPECT_EQ(headless.error().kind, SnapshotErrorKind::kBadValue);

  // A delta ref naming a section the base never had.
  SectionedSnapshotWriter other;
  other.Begin("elsewhere")->U64(7);
  const std::string full_other = other.SealFull();
  auto absent = ResolveSectionChain({full_other, delta});
  ASSERT_FALSE(absent.has_value());
  EXPECT_EQ(absent.error().kind, SnapshotErrorKind::kBadValue);
}

TEST(SectionedSnapshotTest, MissingSectionOpenAndUnopenedSectionsLatch) {
  {
    auto resolved = ResolveSectionChain({SealThreeSections("x")});
    ASSERT_TRUE(resolved.has_value());
    SectionSource src = std::move(resolved.value());
    SnapshotReader ghost = src.Open("no-such-section");
    EXPECT_FALSE(ghost.ok());
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, SnapshotErrorKind::kBadValue);
  }
  {
    auto resolved = ResolveSectionChain({SealThreeSections("x")});
    ASSERT_TRUE(resolved.has_value());
    SectionSource src = std::move(resolved.value());
    SnapshotReader a = src.Open("alpha");
    EXPECT_EQ(a.U64(), 11u);
    EXPECT_TRUE(src.Close(&a, "alpha"));
    src.FailIfUnopened();  // beta and gamma were trusted but never read
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, SnapshotErrorKind::kBadValue);
  }
}

TEST(SectionedSnapshotTest, PagedVmSectionedSaveMatchesChainRestore) {
  // The component-level delta property: step, full-cut, step more, delta-cut,
  // restore through the chain, and the restored VM both re-seals identically
  // and continues identically.
  SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  const std::size_t cut = trace.refs.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter full_w;
  vm.SaveSections(&full_w);
  const SectionBaseline baseline = full_w.Digest();
  const std::string full = full_w.SealFull();

  const std::size_t second = cut + (trace.refs.size() - cut) / 2;
  for (std::size_t i = cut; i < second; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter delta_w;
  vm.SaveSections(&delta_w);
  const std::string delta = delta_w.SealDelta(baseline);
  EXPECT_LT(delta.size(), full.size());

  auto resolved = ResolveSectionChain({full, delta});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  PagedLinearVm restored(PagedConfigFromSpec(spec));
  restored.LoadSections(&src);
  src.FailIfUnopened();
  ASSERT_TRUE(src.ok()) << src.error().Describe();

  SectionedSnapshotWriter lhs;
  vm.SaveSections(&lhs);
  SectionedSnapshotWriter rhs;
  restored.SaveSections(&rhs);
  EXPECT_EQ(lhs.SealFull(), rhs.SealFull());
  EXPECT_EQ(StepAll(&vm, trace, second), StepAll(&restored, trace, second));
}

// --- The section-hash cache.  A stale cached hash that still matches the
// baseline would seal a ref to an old body, and the chain would restore old
// state silently (the ref hash-matches its base).  These tests pin that the
// cache can only ever describe the body it sits beside.

// Names of the sections a sealed sectioned snapshot carries inline.
std::set<std::string> InlineSections(const std::string& sealed) {
  SnapshotReader r(sealed);
  r.U8();  // kind
  const std::uint64_t count = r.Count(1u << 20);
  std::set<std::string> names;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    std::string name = r.Str();
    if (r.U8() == 0) {
      r.Str();  // inline body
      names.insert(std::move(name));
    } else {
      r.U64();  // ref hash
    }
  }
  EXPECT_TRUE(r.ok() && r.AtEnd()) << r.error().Describe();
  return names;
}

TEST(SectionHashCacheTest, PrecomputedHashesSealIdenticallyToPlainBodies) {
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"a", "alpha"}, {"b", std::string(5000, 'b')}, {"c", ""}, {"d", "delta"}};
  auto fill = [&](SectionedSnapshotWriter* w, bool precomputed, const std::string& d_body) {
    for (const auto& [name, body] : bodies) {
      const std::string& b = name == "d" ? d_body : body;
      if (precomputed) {
        std::vector<ByteExtent> extents;
        const std::uint64_t hash = Fnv64Extents(b, &extents);
        w->Section(name, std::make_shared<const std::string>(b), hash, extents);
      } else {
        w->Section(name, b);
      }
    }
    w->Begin("streamed")->U64(42);
  };
  SectionedSnapshotWriter base;
  fill(&base, false, "delta");
  const SectionBaseline baseline = base.Digest();

  SectionedSnapshotWriter plain;
  SectionedSnapshotWriter cached;
  fill(&plain, false, "changed");
  fill(&cached, true, "changed");
  EXPECT_EQ(plain.Digest().hashes, cached.Digest().hashes);
  EXPECT_EQ(plain.SealFull(), cached.SealFull());
  const std::string delta = cached.SealDelta(baseline);
  EXPECT_EQ(plain.SealDelta(baseline), delta);
  EXPECT_EQ(InlineSections(delta), (std::set<std::string>{"d"}));
  // Sealing does not consume the writer: a second delta is the same bytes.
  EXPECT_EQ(cached.SealDelta(baseline), delta);
}

constexpr WordCount kMapPageWords = 64;
constexpr std::size_t kMapPages = 4 * PageTable::kChunkEntries;

PageId PageInChunk(std::size_t chunk, std::size_t slot) {
  return PageId{chunk * PageTable::kChunkEntries + slot};
}

std::set<std::string> ChunkNames(std::initializer_list<std::size_t> chunks) {
  std::set<std::string> names;
  for (const std::size_t k : chunks) {
    names.insert("map.pt." + std::to_string(k));
  }
  return names;
}

// One cut of a mapper: its full seal and the baseline for the next delta.
struct MapperCut {
  std::string full;
  SectionBaseline digest;
};

MapperCut CutMapper(const PageTableMapper& m) {
  SectionedSnapshotWriter w;
  m.SaveSections(&w);
  MapperCut cut;
  cut.digest = w.Digest();
  cut.full = w.SealFull();
  return cut;
}

// Seals `m` as a delta over `base` and returns the page-table chunks it
// inlines; also checks that the [full, delta] chain restores a mapper that
// re-seals byte-identically to `m`.
std::set<std::string> DeltaChunks(const PageTableMapper& m, const MapperCut& base) {
  SectionedSnapshotWriter w;
  m.SaveSections(&w);
  const std::string delta = w.SealDelta(base.digest);
  std::set<std::string> chunks;
  for (const std::string& name : InlineSections(delta)) {
    if (name.starts_with("map.pt.")) {
      chunks.insert(name);
    }
  }
  auto resolved = ResolveSectionChain({base.full, delta});
  EXPECT_TRUE(resolved.has_value()) << resolved.error().Describe();
  if (resolved.has_value()) {
    PageTableMapper restored(kMapPageWords, kMapPages, 0);
    restored.LoadSections(&resolved.value());
    resolved.value().FailIfUnopened();
    EXPECT_TRUE(resolved.value().ok()) << resolved.value().error().Describe();
    EXPECT_EQ(CutMapper(restored).full, CutMapper(m).full);
  }
  return chunks;
}

TEST(SectionHashCacheTest, EmptyChunksShareOneBodyEqualToSaveChunksEncoding) {
  PageTable table(2 * PageTable::kChunkEntries);
  table.Map(PageId{3}, FrameId{1});
  table.Unmap(PageId{3});  // empty again, not merely never touched
  SnapshotWriter w;
  table.SaveChunk(0, &w);
  const std::string encoded = w.TakePayload();
  const PageTable::SharedChunk& empty = PageTable::EmptyChunk();
  EXPECT_EQ(*empty.body, encoded);
  EXPECT_EQ(empty.hash, Fnv64(encoded));

  // Three of kMapPages' four chunks are empty: the mapper's cache and the
  // writer each hold the shared body once per empty chunk.
  const long users = empty.body.use_count();
  PageTableMapper m(kMapPageWords, kMapPages, 0);
  m.Map(PageInChunk(1, 2), FrameId{4});
  {
    SectionedSnapshotWriter sw;
    m.SaveSections(&sw);
    EXPECT_EQ(empty.body.use_count(), users + 6);
  }
  EXPECT_EQ(empty.body.use_count(), users + 3);
}

TEST(SectionHashCacheTest, ShortEmptyTailChunkRoundTrips) {
  const std::size_t pages = 2 * PageTable::kChunkEntries + 10;
  PageTableMapper m(kMapPageWords, pages, 0);
  m.Map(PageId{1}, FrameId{2});
  const MapperCut cut = CutMapper(m);
  auto resolved = ResolveSectionChain({cut.full});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  PageTableMapper restored(kMapPageWords, pages, 0);
  restored.LoadSections(&resolved.value());
  resolved.value().FailIfUnopened();
  ASSERT_TRUE(resolved.value().ok()) << resolved.value().error().Describe();
  EXPECT_EQ(CutMapper(restored).full, cut.full);
  EXPECT_EQ(restored.table().chunk_present(0), 1u);
  EXPECT_EQ(restored.table().chunk_present(2), 0u);
}

TEST(SectionHashCacheTest, DeltaInlinesExactlyTheChunksMapAndUnmapChanged) {
  PageTableMapper m(kMapPageWords, kMapPages, 0);
  const MapperCut empty = CutMapper(m);

  m.Map(PageInChunk(2, 5), FrameId{3});
  EXPECT_EQ(DeltaChunks(m, empty), ChunkNames({2}));
  const MapperCut one = CutMapper(m);

  // Bytes that change and change back are not a change; a new mapping is.
  m.Map(PageInChunk(1, 7), FrameId{9});
  m.Unmap(PageInChunk(1, 7));
  m.Map(PageInChunk(3, 0), FrameId{4});
  EXPECT_EQ(DeltaChunks(m, one), ChunkNames({3}));
  EXPECT_EQ(DeltaChunks(m, empty), ChunkNames({2, 3}));
  const MapperCut two = CutMapper(m);

  m.Unmap(PageInChunk(2, 5));
  EXPECT_EQ(DeltaChunks(m, two), ChunkNames({2}));
  EXPECT_EQ(DeltaChunks(m, one), ChunkNames({2, 3}));
  EXPECT_EQ(DeltaChunks(m, empty), ChunkNames({3}));
}

TEST(SectionHashCacheTest, DeltaAfterLoadChunkInlinesExactlyTheReloadedChanges) {
  // `warm` caches every chunk body and hash, then has its table replaced
  // under it by a chain restore; the cache must not survive the reload.
  PageTableMapper warm(kMapPageWords, kMapPages, 0);
  warm.Map(PageInChunk(0, 1), FrameId{1});
  warm.Map(PageInChunk(1, 1), FrameId{2});
  const MapperCut before = CutMapper(warm);

  PageTableMapper other(kMapPageWords, kMapPages, 0);
  other.Map(PageInChunk(0, 1), FrameId{1});  // same as warm
  other.Map(PageInChunk(1, 1), FrameId{7});  // differs from warm
  other.Map(PageInChunk(3, 9), FrameId{8});  // absent from warm
  auto resolved = ResolveSectionChain({CutMapper(other).full});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  warm.LoadSections(&resolved.value());
  ASSERT_TRUE(resolved.value().ok()) << resolved.value().error().Describe();

  EXPECT_EQ(DeltaChunks(warm, before), ChunkNames({1, 3}));
  EXPECT_EQ(CutMapper(warm).full, CutMapper(other).full);
}

TEST(SectionHashCacheTest, WarmVmRestoredFromChainResealsIdentically) {
  // The restore target has sealed its own, older state first, so every
  // chunk cache it holds is warm and wrong for the state it is about to
  // load.  The [full, delta] chain must still restore the source VM exactly.
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  const std::size_t cut = trace.refs.size() / 3;
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  PagedLinearVm restored(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < cut; ++i) {
    vm.Step(trace.refs[i]);
  }
  for (std::size_t i = 0; i < cut / 2; ++i) {
    restored.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter warm_up;
  restored.SaveSections(&warm_up);
  warm_up.SealFull();

  SectionedSnapshotWriter full_w;
  vm.SaveSections(&full_w);
  const SectionBaseline baseline = full_w.Digest();
  const std::string full = full_w.SealFull();
  for (std::size_t i = cut; i < 2 * cut; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter delta_w;
  vm.SaveSections(&delta_w);
  const std::string delta = delta_w.SealDelta(baseline);

  auto resolved = ResolveSectionChain({full, delta});
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  restored.LoadSections(&resolved.value());
  resolved.value().FailIfUnopened();
  ASSERT_TRUE(resolved.value().ok()) << resolved.value().error().Describe();

  SectionedSnapshotWriter lhs;
  vm.SaveSections(&lhs);
  SectionedSnapshotWriter rhs;
  restored.SaveSections(&rhs);
  EXPECT_EQ(lhs.SealFull(), rhs.SealFull());
  EXPECT_EQ(lhs.SealDelta(baseline), rhs.SealDelta(baseline));
  EXPECT_EQ(StepAll(&vm, trace, 2 * cut), StepAll(&restored, trace, 2 * cut));
}

// Byte pins for a serve-spec tenant's cuts: the sealed full and delta bytes
// must not move when the seal, the hash or the chunk encoder get faster.
// The values were recorded with the byte-at-a-time FNV-1a loop, the
// doubling-append seal and per-chunk encoding of empty page-table chunks.
TEST(SealBytePinTest, ServeTenantFullAndDeltaSealsKeepTheirBytes) {
  const SystemSpec spec = ServeSpec(ReplacementStrategyKind::kLru);
  const ReferenceTrace trace = VmTrace();
  PagedLinearVm vm(PagedConfigFromSpec(spec));
  for (std::size_t i = 0; i < 2000; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter full_w;
  vm.SaveSections(&full_w);
  const SectionBaseline baseline = full_w.Digest();
  const std::string full = full_w.SealFull();
  for (std::size_t i = 2000; i < 3500; ++i) {
    vm.Step(trace.refs[i]);
  }
  SectionedSnapshotWriter delta_w;
  vm.SaveSections(&delta_w);
  const std::string delta = delta_w.SealDelta(baseline);

  EXPECT_EQ(full.size(), 1182288u);
  EXPECT_EQ(Fnv64(full), 0xc426d1f4306817cdULL);
  EXPECT_EQ(delta.size(), 39583u);
  EXPECT_EQ(Fnv64(delta), 0xd0e6ff50557a62daULL);
}

}  // namespace
}  // namespace dsa
