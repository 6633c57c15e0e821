// Property tests for hashing over non-zero extents: Fnv64Extents must equal
// the FNV-1a byte loop and report extents outside which every byte is zero,
// Fnv64Over must equal the byte loop from any start state, and a sectioned
// seal's checksums, taken over extents alone, must equal Fnv64 of the bytes
// it wrote, for every mix of section kinds and for full and delta seals.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/rng.h"
#include "src/core/snapshot.h"
#include "src/map/page_table.h"

namespace dsa {
namespace {

constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;

std::uint64_t ByteLoopFnv64(std::uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Fails unless `extents` are ascending, disjoint, inside `bytes`, separated
// by gaps (adjacent words merge), and cover every non-zero byte.
void ExpectExtentsCoverTheNonZeroBytes(std::string_view bytes,
                                       const std::vector<ByteExtent>& extents) {
  std::vector<bool> covered(bytes.size(), false);
  std::size_t at = 0;
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const ByteExtent& e = extents[i];
    ASSERT_GT(e.length, 0u);
    ASSERT_LE(e.offset + e.length, bytes.size());
    ASSERT_TRUE(i == 0 ? e.offset >= at : e.offset > at) << "extent " << i << " not after a gap";
    for (std::size_t b = e.offset; b < e.offset + e.length; ++b) {
      covered[b] = true;
    }
    at = e.offset + e.length;
  }
  for (std::size_t b = 0; b < bytes.size(); ++b) {
    ASSERT_TRUE(covered[b] || bytes[b] == 0) << "non-zero byte " << b << " outside every extent";
  }
}

// A buffer of zero runs of every length from 0 to `max_run` between short
// dense runs, so runs start and end at every offset within 8- and 32-byte
// blocks.
std::string SparseBuffer(Rng* rng, std::size_t max_run) {
  std::string buf;
  for (std::size_t run = 0; run <= max_run; ++run) {
    buf.append(run, '\0');
    const std::size_t dense = 1 + rng->Below(11);
    for (std::size_t i = 0; i < dense; ++i) {
      buf.push_back(static_cast<char>(rng->Below(4) == 0 ? 0 : 1 + rng->Below(255)));
    }
  }
  return buf;
}

TEST(FnvExtentsProperty, MatchesTheByteLoopAtEveryStartAndLength) {
  Rng rng(0x5eedULL);
  const std::string buf = SparseBuffer(&rng, 80);
  for (std::size_t start = 0; start < 40; ++start) {
    for (std::size_t length = 0; start + length <= buf.size(); length += 1 + length / 16) {
      const std::string_view view(buf.data() + start, length);
      std::vector<ByteExtent> extents;
      ASSERT_EQ(Fnv64Extents(view, &extents), ByteLoopFnv64(kFnv64Offset, view))
          << "start " << start << " length " << length;
      ExpectExtentsCoverTheNonZeroBytes(view, extents);
      const std::uint64_t state = rng.Next();
      ASSERT_EQ(Fnv64Over(state, view, extents), ByteLoopFnv64(state, view))
          << "start " << start << " length " << length;
    }
  }
}

TEST(FnvExtentsProperty, AppendsAfterExtentsAlreadyInTheVector) {
  // A writer keeps every body's extents in one vector, each body's offsets
  // its own: the second body's first extent starts where the first body's
  // last one ends, and must not be merged into it.
  std::vector<ByteExtent> extents;
  Fnv64Extents(std::string(8, '\1'), &extents);
  const std::string second = std::string(8, '\0') + std::string(8, '\2') +
                             std::string(16, '\0') + "tail";
  Fnv64Extents(second, &extents);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].offset, 0u);
  EXPECT_EQ(extents[0].length, 8u);
  EXPECT_EQ(extents[1].offset, 8u);
  EXPECT_EQ(extents[1].length, 8u);
  EXPECT_EQ(extents[2].offset, 32u);
  EXPECT_EQ(extents[2].length, 4u);
}

TEST(FnvExtentsProperty, SeededBuffersAndStartStates) {
  Rng rng(0xfeedULL);
  for (int trial = 0; trial < 400; ++trial) {
    std::string buf(rng.Below(600), '\0');
    const std::uint64_t density = 1 + rng.Below(40);
    for (char& c : buf) {
      if (rng.Below(density) == 0) {
        c = static_cast<char>(1 + rng.Below(255));
      }
    }
    std::vector<ByteExtent> extents;
    ASSERT_EQ(Fnv64Extents(buf, &extents), ByteLoopFnv64(kFnv64Offset, buf)) << "trial " << trial;
    ASSERT_EQ(Fnv64(buf), ByteLoopFnv64(kFnv64Offset, buf));
    ExpectExtentsCoverTheNonZeroBytes(buf, extents);
    const std::uint64_t state = rng.Next();
    ASSERT_EQ(Fnv64Over(state, buf, extents), ByteLoopFnv64(state, buf)) << "trial " << trial;
    // Any cover of the non-zero bytes gives the same value, one whole extent
    // included.
    const ByteExtent whole{0, buf.size()};
    ASSERT_EQ(Fnv64Over(state, buf, std::span<const ByteExtent>(&whole, buf.empty() ? 0 : 1)),
              ByteLoopFnv64(state, buf));
  }
}

// One section of a seeded mix, added the way the service's cuts add them.
enum class SectionKind { kStreamed, kPlainBody, kSharedCached, kEmptyChunk };

std::string SeededBody(Rng* rng) {
  switch (rng->Below(3)) {
    case 0:
      return SparseBuffer(rng, rng->Below(70));
    case 1:
      return std::string(rng->Below(4096), '\0');
    default: {
      std::string body(rng->Below(300), '\0');
      for (char& c : body) {
        c = static_cast<char>(rng->Below(256));
      }
      return body;
    }
  }
}

void AddSection(SectionedSnapshotWriter* w, const std::string& name, SectionKind kind,
                const std::string& body) {
  switch (kind) {
    case SectionKind::kStreamed:
      w->Begin(name)->Bytes(body);
      return;
    case SectionKind::kPlainBody:
      w->Section(name, body);
      return;
    case SectionKind::kSharedCached: {
      std::vector<ByteExtent> extents;
      const std::uint64_t hash = Fnv64Extents(body, &extents);
      w->Section(name, std::make_shared<const std::string>(body), hash, extents);
      return;
    }
    case SectionKind::kEmptyChunk: {
      const PageTable::SharedChunk& empty = PageTable::EmptyChunk();
      w->Section(name, empty.body, empty.hash, empty.extents);
      return;
    }
  }
}

// Checks one seal: the returned checksum is Fnv64 of the payload, the
// returned file hash is Fnv64 of the whole file, the header records the
// checksum, and the bytes equal the fresh-string seal's.
void ExpectSealHashesMatchTheBytes(const SealBuffer& sealed, const SealHashes& hashes,
                                   const std::string& fresh) {
  const std::string_view file(sealed.data(), sealed.size());
  ASSERT_GE(file.size(), kHeaderBytes);
  EXPECT_EQ(hashes.checksum, Fnv64(file.substr(kHeaderBytes)));
  EXPECT_EQ(hashes.file, Fnv64(file));
  EXPECT_EQ(file, fresh);
  SnapshotReader reader(file);
  EXPECT_TRUE(reader.ok()) << reader.error().Describe();
}

TEST(SealExtentsProperty, FullAndDeltaSealHashesEqualFnv64OfTheirBytes) {
  Rng rng(0xa11ceULL);
  SealBuffer buffer;  // reused across every seal, as a store reuses it
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t count = rng.Below(12);
    std::vector<std::string> names;
    std::vector<SectionKind> kinds;
    std::vector<std::string> bodies;
    for (std::size_t i = 0; i < count; ++i) {
      names.push_back("s." + std::to_string(i));
      kinds.push_back(static_cast<SectionKind>(rng.Below(4)));
      bodies.push_back(kinds.back() == SectionKind::kEmptyChunk ? *PageTable::EmptyChunk().body
                                                                : SeededBody(&rng));
    }
    SectionedSnapshotWriter base;
    for (std::size_t i = 0; i < count; ++i) {
      AddSection(&base, names[i], kinds[i], bodies[i]);
    }
    const SealHashes full = base.Seal(nullptr, &buffer);
    ExpectSealHashesMatchTheBytes(buffer, full, base.SealFull());
    const SectionBaseline baseline = base.Digest();

    // The next cut changes some bodies and section kinds; the delta keeps
    // the rest as refs.
    SectionedSnapshotWriter next;
    for (std::size_t i = 0; i < count; ++i) {
      if (rng.Below(3) == 0 && kinds[i] != SectionKind::kEmptyChunk) {
        bodies[i] = SeededBody(&rng);
      }
      const SectionKind kind = kinds[i] == SectionKind::kEmptyChunk
                                   ? SectionKind::kEmptyChunk
                                   : static_cast<SectionKind>(rng.Below(3));
      AddSection(&next, names[i], kind, bodies[i]);
    }
    const SealHashes delta = next.Seal(&baseline, &buffer);
    ExpectSealHashesMatchTheBytes(buffer, delta, next.SealDelta(baseline));
    const SealHashes next_full = next.Seal(nullptr, &buffer);
    ExpectSealHashesMatchTheBytes(buffer, next_full, next.SealFull());
  }
}

}  // namespace
}  // namespace dsa
