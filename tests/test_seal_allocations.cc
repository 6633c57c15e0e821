// A checkpoint store keeps each member's seal buffer from cut to cut: a
// second full commit of the same tenants seals into the very buffers the
// first one filled, and nothing on the commit path allocates a block
// anywhere near a seal's size.
//
// This binary replaces the global operator new to count allocations, so it
// holds only tests that read the count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "src/serve/checkpoint.h"
#include "src/serve/checkpoint_store.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace {

std::size_t g_large_threshold = static_cast<std::size_t>(-1);
std::size_t g_large_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (size >= g_large_threshold) {
    ++g_large_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dsa {
namespace {

namespace fs = std::filesystem;

SystemSpec TenantSpec() {
  SystemSpec spec;
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames
  spec.tlb_entries = 4;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

ReferenceTrace TenantTrace(std::uint64_t seed) {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  params.regions_per_phase = 20;
  params.phase_length = 900;
  params.phases = 8;
  params.seed = seed;
  return MakeWorkingSetTrace(params);
}

struct Tenant {
  std::string member;
  ReferenceTrace trace;
  std::unique_ptr<PagedLinearVm> vm;
  std::size_t next_ref{0};
};

// Steps every tenant `refs` further, then seals and stages each as a full
// member and commits.  Returns the address of each member's sealed bytes.
std::vector<std::uintptr_t> StepAndCommitFull(std::vector<Tenant>* tenants, std::size_t refs,
                                              CheckpointStore* store,
                                              std::size_t* sealed_bytes) {
  std::vector<std::uintptr_t> buffers;
  for (Tenant& t : *tenants) {
    for (std::size_t end = t.next_ref + refs; t.next_ref < end; ++t.next_ref) {
      t.vm->Step(t.trace.refs[t.next_ref]);
    }
  }
  for (Tenant& t : *tenants) {
    TenantCheckpointMeta meta;
    meta.tenant = t.member;
    meta.trace_size = t.trace.size();
    meta.next_ref = t.next_ref;
    SealBuffer sealed = store->TakeSealBuffer(t.member);
    const SealHashes hashes =
        SealTenantCheckpointSections(meta, *t.vm, nullptr, nullptr, &sealed);
    buffers.push_back(reinterpret_cast<std::uintptr_t>(sealed.data()));
    *sealed_bytes = sealed.size();
    store->Stage(t.member, std::move(sealed), hashes.file, CutKind::kFull);
  }
  EXPECT_TRUE(store->Commit(CutKind::kFull).has_value());
  return buffers;
}

TEST(SealBufferReuseTest, SecondFullCommitSealsIntoTheFirstCommitsBuffers) {
  const fs::path dir =
      fs::temp_directory_path() / ("dsa_seal_reuse_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::vector<Tenant> tenants;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Tenant t;
    t.member = "tenant.t" + std::to_string(seed);
    t.trace = TenantTrace(seed);
    t.vm = std::make_unique<PagedLinearVm>(PagedConfigFromSpec(TenantSpec()));
    tenants.push_back(std::move(t));
  }
  CheckpointStore store(dir.string());
  ASSERT_TRUE(store.Recover().has_value());

  std::size_t sealed_bytes = 0;
  const std::vector<std::uintptr_t> first =
      StepAndCommitFull(&tenants, 2000, &store, &sealed_bytes);
  ASSERT_GT(sealed_bytes, std::size_t{1} << 20) << "a tenant seal must be a large block";
  // Anything at least half a seal's size counts: the page-table chunks and
  // section bodies the second cut re-encodes are a few tens of KB.
  g_large_threshold = sealed_bytes / 2;
  g_large_allocations = 0;
  const std::vector<std::uintptr_t> second =
      StepAndCommitFull(&tenants, 500, &store, &sealed_bytes);
  const std::size_t large = g_large_allocations;
  g_large_threshold = static_cast<std::size_t>(-1);

  EXPECT_EQ(second, first) << "each member must seal into the buffer it filled last time";
  EXPECT_EQ(large, 0u) << "the second full commit allocated a block of at least "
                       << sealed_bytes / 2 << " bytes";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dsa
