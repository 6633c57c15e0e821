// Kill-and-resume matrix for the crash-consistent service mode.
//
// The headline guarantee: a ServiceLoop stopped cold after K commits (no
// flush, no goodbye — the in-process stand-in for SIGKILL) and restarted
// from its checkpoint directory produces final per-tenant reports, event
// JSONL files, and SERVICE.txt that are BYTE-identical to an uninterrupted
// run.  The kill-point matrix is sharded over the SweepRunner, so the suite
// doubles as a jobs>1 determinism check.
//
// Alongside: the store's corruption taxonomy (torn member, flipped byte,
// stale version, checksum/manifest mismatch -> typed quarantine records,
// fresh-start completion, never a crash — pinned with a death test), and
// the --batch skip-and-report regression (malformed tenants are skipped,
// reported, and change the exit code without stopping the loadable cells).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fsio.h"
#include "src/core/snapshot.h"
#include "src/exec/sweep_runner.h"
#include "src/serve/batch.h"
#include "src/serve/checkpoint_store.h"
#include "src/serve/service.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/vm/system_builder.h"

namespace dsa {
namespace {

namespace fs = std::filesystem;

SystemSpec ServeSpec() {
  SystemSpec spec;
  spec.label = "resume-test";
  spec.core_words = 2048;
  spec.page_words = 128;  // 16 frames
  spec.tlb_entries = 4;
  spec.backing_level = MakeDrumLevel("drum", 1u << 17, /*word_time=*/2,
                                     /*rotational_delay=*/500);
  return spec;
}

// A scratch tree that cleans up after itself; every test gets its own.
struct Scratch {
  explicit Scratch(const std::string& tag)
      : root(fs::temp_directory_path() /
             ("dsa_resume_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(root);
    fs::create_directories(root / "spool");
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(root, ec);
  }
  std::string Spool() const { return (root / "spool").string(); }
  std::string Out(const std::string& name) const { return (root / name).string(); }

  fs::path root;
};

void SpoolTenant(const Scratch& scratch, const std::string& name,
                 std::uint64_t seed, std::size_t phase_length = 900) {
  WorkingSetTraceParams params;
  params.extent = 1 << 13;
  params.region_words = 128;
  // More regions than the 16 core frames, so every tenant faults steadily
  // and the service clock advances fast enough to cross many commit
  // cadences within these short traces.
  params.regions_per_phase = 20;
  params.phase_length = phase_length;
  params.phases = 3;
  params.seed = seed;
  const ReferenceTrace trace = MakeWorkingSetTrace(params);
  std::ofstream out(fs::path(scratch.Spool()) / name);
  ASSERT_TRUE(out) << name;
  WriteReferenceTrace(trace, &out);
}

void SpoolThreeTenants(const Scratch& scratch) {
  SpoolTenant(scratch, "alpha.trace", 11);
  SpoolTenant(scratch, "beta.trace", 22, /*phase_length=*/1200);
  SpoolTenant(scratch, "gamma.trace", 33, /*phase_length=*/600);
}

ServeConfig ConfigFor(const Scratch& scratch, const std::string& tag) {
  ServeConfig config;
  config.spool_dir = scratch.Spool();
  config.out_dir = scratch.Out(tag + ".out");
  config.checkpoint_dir = scratch.Out(tag + ".ckpt");
  config.checkpoint_every = 20000;
  config.rescan_spool = false;  // the spool is fully populated up front
  return config;
}

// Reads every file of a directory into name -> bytes, for whole-tree
// byte comparison.
std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

void ExpectSameTree(const std::map<std::string, std::string>& expected,
                    const std::map<std::string, std::string>& actual,
                    const std::string& context) {
  std::vector<std::string> expected_names;
  for (const auto& [name, bytes] : expected) {
    expected_names.push_back(name);
  }
  std::vector<std::string> actual_names;
  for (const auto& [name, bytes] : actual) {
    actual_names.push_back(name);
  }
  ASSERT_EQ(expected_names, actual_names) << context;
  for (const auto& [name, bytes] : expected) {
    EXPECT_EQ(bytes, actual.at(name)) << context << ": " << name
                                      << " differs from the uninterrupted run";
  }
}

// Runs the service to completion with no interruptions; the reference tree.
std::map<std::string, std::string> StraightThroughTree(const Scratch& scratch,
                                                       const std::string& tag) {
  ServeConfig config = ConfigFor(scratch, tag);
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  EXPECT_TRUE(outcome.has_value());
  if (outcome.has_value()) {
    EXPECT_TRUE(outcome->finished);
    EXPECT_EQ(outcome->tenants_completed, 3u);
    EXPECT_EQ(outcome->tenants_rejected, 0u);
  }
  return SlurpDir(config.out_dir);
}

TEST(CheckpointResumeTest, KillPointMatrixIsByteIdenticalShardedOverJobs) {
  Scratch scratch("matrix");
  SpoolThreeTenants(scratch);

  ServeConfig ref_config = ConfigFor(scratch, "ref");
  std::uint64_t total_commits = 0;
  {
    ServiceLoop loop(ServeSpec(), ref_config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->finished);
    ASSERT_EQ(outcome->tenants_completed, 3u);
    total_commits = outcome->commits;
  }
  const auto expected = SlurpDir(ref_config.out_dir);
  ASSERT_GE(total_commits, 6u) << "cadence too coarse for a six-point matrix";

  // Kill at six points spread across the run's actual commit count; each
  // cell restarts until the loop finishes and then compares the whole
  // output tree.  SweepRunner shards the cells across workers — every cell
  // owns its own directories.
  std::vector<int> kill_points = {
      1,
      2,
      static_cast<int>(total_commits / 4),
      static_cast<int>(total_commits / 2),
      static_cast<int>(2 * total_commits / 3),
      static_cast<int>(total_commits - 1)};
  // Dedupe: two cells at the same kill point would share scratch
  // directories and race.
  std::sort(kill_points.begin(), kill_points.end());
  kill_points.erase(std::unique(kill_points.begin(), kill_points.end()),
                    kill_points.end());
  ASSERT_GE(kill_points.size(), 4u);
  SweepRunner runner(/*jobs=*/4);
  const std::vector<std::string> failures =
      runner.Run(kill_points.size(), [&](std::size_t cell) {
        const std::string tag = "kill" + std::to_string(kill_points[cell]);
        ServeConfig config = ConfigFor(scratch, tag);
        config.stop_after_commits = kill_points[cell];
        // First run: dies mid-flight (finished == false), nothing flushed
        // beyond its committed cuts.
        {
          ServiceLoop loop(ServeSpec(), config);
          auto outcome = loop.Run();
          if (!outcome.has_value()) {
            return tag + ": kill run errored: " + outcome.error().Describe();
          }
          if (outcome->finished) {
            return tag + ": expected the loop to stop at the kill point";
          }
        }
        // Restart(s): keep resuming until the loop reports completion, as
        // the daemon supervisor would.
        config.stop_after_commits = -1;
        std::size_t resumed = 0;
        for (int attempt = 0; attempt < 4; ++attempt) {
          ServiceLoop loop(ServeSpec(), config);
          auto outcome = loop.Run();
          if (!outcome.has_value()) {
            return tag + ": resume errored: " + outcome.error().Describe();
          }
          resumed += outcome->tenants_resumed;
          if (!outcome->quarantined.empty()) {
            return tag + ": unexpected quarantine on a clean kill";
          }
          if (outcome->finished) {
            const auto actual = SlurpDir(config.out_dir);
            for (const auto& [name, bytes] : expected) {
              auto it = actual.find(name);
              if (it == actual.end()) {
                return tag + ": missing output " + name;
              }
              if (it->second != bytes) {
                return tag + ": " + name + " differs from uninterrupted run";
              }
            }
            if (actual.size() != expected.size()) {
              return tag + ": extra outputs";
            }
            // Early and mid-run kills must actually resume tenants from
            // the checkpoint; a kill near the end may legitimately find
            // every tenant already completed and committed.
            if (static_cast<std::uint64_t>(kill_points[cell]) <= total_commits / 2 &&
                resumed == 0) {
              return tag + ": nothing was actually resumed from checkpoint";
            }
            return std::string();
          }
        }
        return tag + ": loop never finished";
      });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(CheckpointResumeTest, ResumeAfterEveryCommitOfAShortRun) {
  // Exhaustive single-tenant variant: kill after EVERY commit index the
  // straight-through run performs, resume, compare.
  Scratch scratch("every");
  SpoolTenant(scratch, "solo.trace", 77);

  ServeConfig ref_config = ConfigFor(scratch, "ref");
  std::uint64_t total_commits = 0;
  {
    ServiceLoop loop(ServeSpec(), ref_config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->finished);
    total_commits = outcome->commits;
  }
  const auto expected = SlurpDir(ref_config.out_dir);
  ASSERT_GE(total_commits, 3u) << "cadence too coarse to exercise resume";

  std::size_t resumed_total = 0;
  for (std::uint64_t k = 1; k < total_commits; ++k) {
    const std::string tag = "at" + std::to_string(k);
    ServeConfig config = ConfigFor(scratch, tag);
    config.stop_after_commits = static_cast<int>(k);
    {
      ServiceLoop loop(ServeSpec(), config);
      auto outcome = loop.Run();
      ASSERT_TRUE(outcome.has_value()) << tag;
      ASSERT_FALSE(outcome->finished) << tag;
    }
    config.stop_after_commits = -1;
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value()) << tag;
    ASSERT_TRUE(outcome->finished) << tag;
    // A kill after the tenant's completion commit legitimately resumes
    // nothing (only finished state was checkpointed); mid-run kills must
    // resume the tenant, and most kill points are mid-run.
    resumed_total += outcome->tenants_resumed;
    ExpectSameTree(expected, SlurpDir(config.out_dir), tag);
  }
  EXPECT_GE(resumed_total, total_commits / 2)
      << "most kill points should land mid-run and actually resume";
}

TEST(DeltaCheckpointResumeTest, MixedChainKillMatrixAcrossLanesIsByteIdentical) {
  // The delta cadence must be invisible to the output: a kill landing on a
  // delta cut leaves [full, delta...] chains on disk, and the restarted
  // service restores through them to finish byte-identical to the all-full
  // reference — at every lane count, at every kill point.
  Scratch scratch("deltamatrix");
  SpoolThreeTenants(scratch);

  ServeConfig ref_config = ConfigFor(scratch, "ref");  // checkpoint_full_every = 1
  std::uint64_t total_commits = 0;
  {
    ServiceLoop loop(ServeSpec(), ref_config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->finished);
    total_commits = outcome->commits;
  }
  const auto expected = SlurpDir(ref_config.out_dir);
  ASSERT_GE(total_commits, 6u) << "cadence too coarse for a delta matrix";

  std::vector<int> kill_points = {1, 2, 3,
                                  static_cast<int>(total_commits / 2),
                                  static_cast<int>(total_commits - 1)};
  std::sort(kill_points.begin(), kill_points.end());
  kill_points.erase(std::unique(kill_points.begin(), kill_points.end()),
                    kill_points.end());
  const std::vector<unsigned> lane_grid = {1, 2, 4};
  const std::size_t cells = kill_points.size() * lane_grid.size();
  SweepRunner runner(/*jobs=*/4);
  const std::vector<std::string> failures =
      runner.Run(cells, [&](std::size_t cell) -> std::string {
        const int k = kill_points[cell % kill_points.size()];
        const unsigned lanes = lane_grid[cell / kill_points.size()];
        const std::string tag =
            "dl" + std::to_string(lanes) + "k" + std::to_string(k);
        ServeConfig config = ConfigFor(scratch, tag);
        config.checkpoint_full_every = 3;
        config.lanes = lanes;
        config.stop_after_commits = k;
        {
          ServiceLoop loop(ServeSpec(), config);
          auto outcome = loop.Run();
          if (!outcome.has_value()) {
            return tag + ": kill run errored: " + outcome.error().Describe();
          }
          if (outcome->finished) {
            return tag + ": expected the loop to stop at the kill point";
          }
        }
        // Commit i (0-based) is full iff i % 3 == 0, so a kill whose last
        // commit was a delta must leave delta links in the manifest — the
        // mixed chain this matrix exists to restore through.
        if ((k - 1) % 3 != 0) {
          auto manifest = ReadFileBytes(
              (fs::path(config.checkpoint_dir) / "MANIFEST").string());
          if (!manifest.has_value()) {
            return tag + ": unreadable manifest after kill";
          }
          if (manifest.value().find(" d ") == std::string::npos) {
            return tag + ": expected a delta link in the killed manifest";
          }
        }
        config.stop_after_commits = -1;
        std::size_t resumed = 0;
        for (int attempt = 0; attempt < 4; ++attempt) {
          ServiceLoop loop(ServeSpec(), config);
          auto outcome = loop.Run();
          if (!outcome.has_value()) {
            return tag + ": resume errored: " + outcome.error().Describe();
          }
          resumed += outcome->tenants_resumed;
          if (!outcome->quarantined.empty()) {
            return tag + ": unexpected quarantine on a clean kill";
          }
          if (outcome->finished) {
            const auto actual = SlurpDir(config.out_dir);
            if (actual.size() != expected.size()) {
              return tag + ": output tree size differs";
            }
            for (const auto& [name, bytes] : expected) {
              auto it = actual.find(name);
              if (it == actual.end()) {
                return tag + ": missing output " + name;
              }
              if (it->second != bytes) {
                return tag + ": " + name + " differs from the all-full run";
              }
            }
            if (static_cast<std::uint64_t>(k) <= total_commits / 2 &&
                resumed == 0) {
              return tag + ": nothing was actually resumed from the chain";
            }
            return std::string();
          }
        }
        return tag + ": loop never finished";
      });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

// ---------------------------------------------------------------------------
// Corruption: damaged checkpoints quarantine, report typed errors, and the
// service completes from a fresh start with byte-identical outputs.

fs::path FirstMember(const fs::path& ckpt) {
  std::vector<fs::path> members;
  for (const auto& entry : fs::directory_iterator(ckpt)) {
    if (entry.path().extension() == ".ckpt") {
      members.push_back(entry.path());
    }
  }
  EXPECT_FALSE(members.empty()) << "no members in " << ckpt;
  std::sort(members.begin(), members.end());
  return members.front();
}

void RunCorruptionCase(const std::string& tag,
                       void (*mutate)(const fs::path& ckpt),
                       SnapshotErrorKind expected_kind, bool expect_quarantine) {
  Scratch scratch(tag);
  SpoolThreeTenants(scratch);
  const auto expected = StraightThroughTree(scratch, "ref");

  ServeConfig config = ConfigFor(scratch, tag);
  config.stop_after_commits = 2;
  {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->finished);
  }
  mutate(fs::path(config.checkpoint_dir));

  config.stop_after_commits = -1;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  ASSERT_TRUE(outcome.has_value()) << outcome.error().Describe();
  ASSERT_TRUE(outcome->finished);
  EXPECT_EQ(outcome->tenants_resumed, 0u)
      << tag << ": a damaged cut must never be partially resumed";
  if (expect_quarantine) {
    ASSERT_FALSE(outcome->quarantined.empty()) << tag;
    bool kind_seen = false;
    for (const std::string& reason : outcome->quarantined) {
      if (reason.find(ToString(expected_kind)) != std::string::npos) {
        kind_seen = true;
      }
    }
    EXPECT_TRUE(kind_seen) << tag << ": expected a '" << ToString(expected_kind)
                           << "' quarantine record";
    // The damaged cut is preserved for forensics, renamed aside.
    bool quarantine_file = false;
    for (const auto& entry : fs::directory_iterator(config.checkpoint_dir)) {
      if (entry.path().extension() == ".quarantine") {
        quarantine_file = true;
      }
    }
    EXPECT_TRUE(quarantine_file) << tag;
  }
  ExpectSameTree(expected, SlurpDir(config.out_dir), tag);
}

TEST(CheckpointCorruptionTest, TruncatedMemberQuarantinesWholeCut) {
  RunCorruptionCase(
      "trunc",
      [](const fs::path& ckpt) {
        const fs::path member = FirstMember(ckpt);
        const auto size = fs::file_size(member);
        fs::resize_file(member, size / 2);
      },
      SnapshotErrorKind::kTruncated, /*expect_quarantine=*/true);
}

TEST(CheckpointCorruptionTest, FlippedByteQuarantinesWholeCut) {
  RunCorruptionCase(
      "flip",
      [](const fs::path& ckpt) {
        const fs::path member = FirstMember(ckpt);
        std::fstream f(member, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(64);
        char c = 0;
        f.get(c);
        f.seekp(64);
        f.put(static_cast<char>(c ^ 0x20));
      },
      SnapshotErrorKind::kBadChecksum, /*expect_quarantine=*/true);
}

TEST(CheckpointCorruptionTest, StaleContainerVersionQuarantinesWholeCut) {
  RunCorruptionCase(
      "stale",
      [](const fs::path& ckpt) {
        // Rewrite one member with a bumped container version; the manifest
        // checksum is updated to match so the STALENESS (not the checksum)
        // is what the recovery must catch.
        const fs::path member = FirstMember(ckpt);
        std::ifstream in(member, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        in.close();
        bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
        std::ofstream out(member, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        out.close();
        // Patch the manifest line for this member with the new checksum.
        const fs::path manifest = ckpt / "MANIFEST";
        std::ifstream min(manifest);
        std::string text((std::istreambuf_iterator<char>(min)),
                         std::istreambuf_iterator<char>());
        min.close();
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(Fnv64(bytes)));
        const std::string name = member.filename().string();
        // Member file names are "<member>.<gen>.ckpt"; manifest lines are
        // "member <name> <gen> <f|d> <bytes> <fnv64-hex>".  Patch only the
        // line for this member at this generation, keeping its chain kind.
        std::string stem = name.substr(0, name.rfind('.'));  // drop .ckpt
        const std::string gen = stem.substr(stem.rfind('.') + 1);
        const std::string member_name = stem.substr(0, stem.rfind('.'));
        std::string patched;
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
          std::istringstream tok(line);
          std::string tag, lname, lgen, lkind;
          if ((tok >> tag >> lname >> lgen >> lkind) && tag == "member" &&
              lname == member_name && lgen == gen) {
            patched += "member " + member_name + " " + gen + " " + lkind +
                       " " + std::to_string(bytes.size()) + " " + hex + "\n";
          } else {
            patched += line + "\n";
          }
        }
        std::ofstream mout(manifest, std::ios::trunc);
        mout << patched;
      },
      SnapshotErrorKind::kStaleVersion, /*expect_quarantine=*/true);
}

TEST(CheckpointCorruptionTest, ManifestChecksumMismatchQuarantinesWholeCut) {
  RunCorruptionCase(
      "manifest",
      [](const fs::path& ckpt) {
        // Corrupt the manifest's recorded checksum instead of the member.
        const fs::path manifest = ckpt / "MANIFEST";
        std::ifstream in(manifest);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        // Flip the last hex digit of the final member line.
        const std::size_t pos = text.rfind("member ");
        ASSERT_NE(pos, std::string::npos);
        const std::size_t digit = text.find('\n', pos) - 1;
        text[digit] = text[digit] == '0' ? '1' : '0';
        std::ofstream out(manifest, std::ios::trunc);
        out << text;
      },
      SnapshotErrorKind::kBadChecksum, /*expect_quarantine=*/true);
}

TEST(CheckpointCorruptionTest, GarbageManifestQuarantinesWholeCut) {
  RunCorruptionCase(
      "garbage",
      [](const fs::path& ckpt) {
        std::ofstream out(ckpt / "MANIFEST", std::ios::trunc);
        out << "not a manifest at all\n";
      },
      SnapshotErrorKind::kBadMagic, /*expect_quarantine=*/true);
}

TEST(CheckpointCorruptionTest, UnreadableMemberUnderInjectedIoErrorQuarantines) {
  // The store cannot tell a rotted member from an unreadable one, and must
  // not try: a persistent injected EIO on every .ckpt read makes the whole
  // cut quarantine as kIo, and the service then completes from a fresh
  // start with byte-identical outputs.
  Scratch scratch("ioerr");
  SpoolThreeTenants(scratch);
  const auto expected = StraightThroughTree(scratch, "ref");

  ServeConfig config = ConfigFor(scratch, "ioerr");
  // The default checkpoint dir is named "<tag>.ckpt", which the .ckpt path
  // filter below would match for EVERY file in the store (MANIFEST
  // included); keep the filter on member files only.
  config.checkpoint_dir = scratch.Out("ioerr.store");
  config.stop_after_commits = 2;
  {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->finished);
  }

  FsFaultConfig schedule;
  FsFaultWindow window;
  window.first_op = 1;
  window.ops = 0;  // persistent
  window.err = EIO;
  window.path_contains = ".ckpt";  // only the member reads; MANIFEST parses fine
  schedule.windows.push_back(window);
  FaultInjectingFs faulty(&SystemFs(), schedule);
  CheckpointStore store(config.checkpoint_dir, &faulty);
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
  ASSERT_FALSE(recovered->quarantined.empty());
  EXPECT_TRUE(recovered->members.empty())
      << "an unreadable member must invalidate the whole cut";
  bool io_kind_seen = false;
  for (const auto& [path, error] : recovered->quarantined) {
    if (error.kind == SnapshotErrorKind::kIo) {
      io_kind_seen = true;
    }
  }
  EXPECT_TRUE(io_kind_seen) << "expected a kIo quarantine record";

  // The quarantine renamed the cut aside through the (faulty) fs; resuming
  // with a healthy one must fresh-start and finish byte-identical.
  config.stop_after_commits = -1;
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  ASSERT_TRUE(outcome.has_value()) << outcome.error().Describe();
  ASSERT_TRUE(outcome->finished);
  EXPECT_EQ(outcome->tenants_resumed, 0u);
  ExpectSameTree(expected, SlurpDir(config.out_dir), "ioerr");
}

TEST(CheckpointCorruptionTest, RandomizedMemberFuzzNeverCrashes) {
  // Deterministic fuzz: flip one byte at a spread of offsets across a real
  // member file.  Every variant must recover-with-quarantine or
  // recover-as-empty — never abort, never resume damaged state.
  Scratch scratch("fuzz");
  SpoolTenant(scratch, "solo.trace", 5);
  ServeConfig config = ConfigFor(scratch, "fuzz");
  config.stop_after_commits = 1;
  {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
  }
  const fs::path ckpt(config.checkpoint_dir);
  const fs::path member = FirstMember(ckpt);
  std::ifstream in(member, std::ios::binary);
  const std::string pristine((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  const fs::path manifest = ckpt / "MANIFEST";
  std::ifstream min(manifest, std::ios::binary);
  const std::string manifest_pristine((std::istreambuf_iterator<char>(min)),
                                      std::istreambuf_iterator<char>());
  min.close();

  for (std::size_t step = 0; step < 64; ++step) {
    const std::size_t at = (pristine.size() * step) / 64;
    std::string bent = pristine;
    bent[at] = static_cast<char>(bent[at] ^ (1u << (step % 8)));
    {
      std::ofstream out(member, std::ios::binary | std::ios::trunc);
      out.write(bent.data(), static_cast<std::streamsize>(bent.size()));
    }
    CheckpointStore store(ckpt.string());
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.has_value()) << "offset " << at;
    if (recovered->quarantined.empty()) {
      // The flip landed on a byte the container does not cover only if it
      // produced an identical file — impossible for a real flip.
      ADD_FAILURE() << "flip at " << at << " went undetected";
    }
    // Restore the pristine cut (quarantine renamed the files aside).
    {
      std::ofstream out(member, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
      std::ofstream mout(manifest, std::ios::binary | std::ios::trunc);
      mout.write(manifest_pristine.data(),
                 static_cast<std::streamsize>(manifest_pristine.size()));
    }
    for (const auto& entry : fs::directory_iterator(ckpt)) {
      if (entry.path().extension() == ".quarantine") {
        fs::remove(entry.path());
      }
    }
  }
}

TEST(DeltaCheckpointCorruptionTest, BitFlipInAnyChainMemberQuarantinesWholeChain) {
  // Flip one byte in EVERY member file of a mixed full+delta chain, one
  // cell per file (sharded over the SweepRunner).  A damaged link — head or
  // delta — must quarantine, and the restarted service must either fall
  // back to the last intact full cut (damage newer than the base) or fresh
  // start (the base itself damaged), finishing byte-identical either way.
  Scratch scratch("deltafuzz");
  SpoolThreeTenants(scratch);
  const auto expected = StraightThroughTree(scratch, "ref");

  // Killed after 4 commits at full_every=4 the store holds a full head plus
  // three delta links per live member — the deepest chain this config makes.
  auto kill_run = [&](const std::string& tag, ServeConfig* config) -> std::string {
    *config = ConfigFor(scratch, tag);
    config->checkpoint_full_every = 4;
    config->stop_after_commits = 4;
    ServiceLoop loop(ServeSpec(), *config);
    auto outcome = loop.Run();
    if (!outcome.has_value()) {
      return tag + ": kill run errored: " + outcome.error().Describe();
    }
    if (outcome->finished) {
      return tag + ": finished before the kill point; trace too short";
    }
    return std::string();
  };

  // Prototype run: the member layout is deterministic, so one run names the
  // fuzz cells for everyone.
  std::vector<std::string> files;
  {
    ServeConfig config;
    ASSERT_EQ(kill_run("dfproto", &config), std::string());
    for (const auto& entry : fs::directory_iterator(config.checkpoint_dir)) {
      if (entry.path().extension() == ".ckpt") {
        files.push_back(entry.path().filename().string());
      }
    }
    std::sort(files.begin(), files.end());
  }
  ASSERT_GE(files.size(), 5u) << "expected mixed full+delta chains to fuzz";

  SweepRunner runner(/*jobs=*/4);
  const std::vector<std::string> failures =
      runner.Run(files.size(), [&](std::size_t cell) -> std::string {
        const std::string tag = "dfz" + std::to_string(cell);
        ServeConfig config;
        if (std::string err = kill_run(tag, &config); !err.empty()) {
          return err;
        }
        const fs::path ckpt(config.checkpoint_dir);
        const fs::path victim = ckpt / files[cell];
        if (!fs::exists(victim)) {
          return tag + ": member layout not deterministic: " + files[cell];
        }
        // "<member>.<gen>.ckpt" names its generation; the manifest's base
        // line says which generation the store may fall back to.
        std::string stem = files[cell].substr(0, files[cell].rfind('.'));
        const std::uint64_t gen = std::stoull(stem.substr(stem.rfind('.') + 1));
        std::uint64_t base = 0;
        {
          std::ifstream min(ckpt / "MANIFEST");
          std::string line;
          while (std::getline(min, line)) {
            if (line.rfind("base ", 0) == 0) {
              base = std::stoull(line.substr(5));
            }
          }
        }
        if (base == 0) {
          return tag + ": manifest lacks a base line";
        }
        {
          std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
          const auto mid = static_cast<std::streamoff>(fs::file_size(victim) / 2);
          f.seekg(mid);
          char c = 0;
          f.get(c);
          f.seekp(mid);
          f.put(static_cast<char>(c ^ 0x40));
        }
        config.stop_after_commits = -1;
        bool first_resume = true;
        std::size_t resumed = 0;
        for (int attempt = 0; attempt < 4; ++attempt) {
          ServiceLoop loop(ServeSpec(), config);
          auto outcome = loop.Run();
          if (!outcome.has_value()) {
            return tag + ": resume errored: " + outcome.error().Describe();
          }
          if (first_resume && outcome->quarantined.empty()) {
            return tag + ": flip in " + files[cell] + " went unquarantined";
          }
          first_resume = false;
          resumed += outcome->tenants_resumed;
          if (outcome->finished) {
            if (gen > base && resumed == 0) {
              return tag + ": damage above the base must fall back to the "
                           "full cut, not fresh-start";
            }
            const auto actual = SlurpDir(config.out_dir);
            if (actual.size() != expected.size()) {
              return tag + ": output tree size differs";
            }
            for (const auto& [name, bytes] : expected) {
              auto it = actual.find(name);
              if (it == actual.end()) {
                return tag + ": missing output " + name;
              }
              if (it->second != bytes) {
                return tag + ": " + name + " differs after chain damage";
              }
            }
            return std::string();
          }
        }
        return tag + ": loop never finished";
      });
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(CheckpointCorruptionTest, SecondIncidentUniquifiesQuarantineNames) {
  // Quarantine is evidence preservation: a second incident at the same
  // member must not clobber the first incident's *.quarantine file — the
  // rename uniquifies to *.quarantine.1 instead.
  Scratch scratch("twice");
  SpoolTenant(scratch, "solo.trace", 5);
  ServeConfig config = ConfigFor(scratch, "twice");
  config.stop_after_commits = 1;
  {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
  }
  const fs::path ckpt(config.checkpoint_dir);
  const auto pristine = SlurpDir(ckpt.string());
  const fs::path member = FirstMember(ckpt);
  const std::string member_name = member.filename().string();

  auto corrupt_member = [&](char mask) {
    std::string bent = pristine.at(member_name);
    bent[bent.size() / 2] = static_cast<char>(bent[bent.size() / 2] ^ mask);
    std::ofstream out(member, std::ios::binary | std::ios::trunc);
    out.write(bent.data(), static_cast<std::streamsize>(bent.size()));
    return bent;
  };
  auto restore_store = [&] {
    for (const auto& [name, bytes] : pristine) {
      std::ofstream out(ckpt / name, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
  };

  const std::string first_bent = corrupt_member(0x01);
  {
    CheckpointStore store(ckpt.string());
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
    ASSERT_FALSE(recovered->quarantined.empty());
  }
  const fs::path q0(member.string() + ".quarantine");
  ASSERT_TRUE(fs::exists(q0)) << "first incident left no evidence";

  restore_store();
  const std::string second_bent = corrupt_member(0x02);
  {
    CheckpointStore store(ckpt.string());
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
    ASSERT_FALSE(recovered->quarantined.empty());
  }
  const fs::path q1(member.string() + ".quarantine.1");
  ASSERT_TRUE(fs::exists(q1))
      << "second incident must uniquify, not clobber or drop";
  const auto evidence = SlurpDir(ckpt.string());
  EXPECT_EQ(evidence.at(member_name + ".quarantine"), first_bent)
      << "first incident's evidence was clobbered";
  EXPECT_EQ(evidence.at(member_name + ".quarantine.1"), second_bent);
}

// ---------------------------------------------------------------------------
// Store-level delta chain protocol.

// Stages `sealed` with the file hash a seal would have returned.
void StageSealed(CheckpointStore* store, const std::string& name, const std::string& sealed,
                 CutKind kind) {
  store->Stage(name, SealBuffer(sealed.data(), sealed.size()), Fnv64(sealed), kind);
}

TEST(CheckpointStoreDeltaTest, DeltaCommitAppendsChainAndRecoversIt) {
  Scratch scratch("storedelta");
  const std::string dir = scratch.Out("store");

  SectionedSnapshotWriter w1;
  w1.Begin("s")->U64(1);
  const SectionBaseline baseline = w1.Digest();
  SectionedSnapshotWriter w2;
  w2.Begin("s")->U64(2);

  CheckpointStore store(dir);
  {
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
    EXPECT_EQ(recovered->generation, 0u);
  }
  StageSealed(&store, "m", w1.SealFull(), CutKind::kFull);
  ASSERT_TRUE(store.Commit(CutKind::kFull).has_value());
  StageSealed(&store, "m", w2.SealDelta(baseline), CutKind::kDelta);
  ASSERT_TRUE(store.Commit(CutKind::kDelta).has_value());
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_EQ(store.base_generation(), 1u);

  CheckpointStore reopened(dir);
  auto recovered = reopened.Recover();
  ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
  EXPECT_EQ(recovered->generation, 2u);
  EXPECT_EQ(recovered->base_generation, 1u);
  EXPECT_FALSE(recovered->fell_back);
  EXPECT_TRUE(recovered->quarantined.empty());
  ASSERT_EQ(recovered->members.count("m"), 1u);
  ASSERT_EQ(recovered->members.at("m").size(), 2u)
      << "the chain must come back full-head-first with its delta link";
  auto resolved = ResolveSectionChain(recovered->members.at("m"));
  ASSERT_TRUE(resolved.has_value()) << resolved.error().Describe();
  SectionSource src = std::move(resolved.value());
  SnapshotReader s = src.Open("s");
  EXPECT_EQ(s.U64(), 2u) << "the delta link's value must win";
  EXPECT_TRUE(src.Close(&s, "s"));
}

TEST(CheckpointStoreDeltaTest, MisusedDeltaStagingIsTypedAtCommit) {
  Scratch scratch("storemisuse");
  const std::string dir = scratch.Out("store");
  SectionedSnapshotWriter w;
  w.Begin("s")->U64(7);
  const std::string full = w.SealFull();

  CheckpointStore store(dir);
  ASSERT_TRUE(store.Recover().has_value());

  // kDelta before any committed base quietly promotes to a full cut — the
  // first commit of a process seeds the chains.
  StageSealed(&store, "m", full, CutKind::kFull);
  ASSERT_TRUE(store.Commit(CutKind::kDelta).has_value());
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.base_generation(), 1u);

  // A delta link for a member with no committed chain is a typed error.
  StageSealed(&store, "m", full, CutKind::kFull);
  StageSealed(&store, "ghost", full, CutKind::kDelta);
  {
    auto status = store.Commit(CutKind::kDelta);
    ASSERT_FALSE(status.has_value());
    EXPECT_EQ(status.error().kind, SnapshotErrorKind::kBadValue);
  }

  // A delta-staged member inside a FULL cut is a typed error too: a full
  // cut re-seals everything, a delta fragment has no base there.
  StageSealed(&store, "m", full, CutKind::kDelta);
  {
    auto status = store.Commit(CutKind::kFull);
    ASSERT_FALSE(status.has_value());
    EXPECT_EQ(status.error().kind, SnapshotErrorKind::kBadValue);
  }
}

// ---------------------------------------------------------------------------
// Strict manifest numbers: a count, size or checksum the writer could not
// have rendered is a typed kBadValue, never a number strtoull would accept
// after skipping a space, taking a sign or a 0x prefix, or saturating.

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// Commits one full cut of member "m" into a fresh store at `dir`, then a
// delta, and returns the manifest text the store wrote.
std::string CommitFullAndDelta(const std::string& dir) {
  SectionedSnapshotWriter w1;
  w1.Begin("s")->U64(1);
  const SectionBaseline baseline = w1.Digest();
  SectionedSnapshotWriter w2;
  w2.Begin("s")->U64(2);
  CheckpointStore store(dir);
  EXPECT_TRUE(store.Recover().has_value());
  StageSealed(&store, "m", w1.SealFull(), CutKind::kFull);
  EXPECT_TRUE(store.Commit(CutKind::kFull).has_value());
  StageSealed(&store, "m", w2.SealDelta(baseline), CutKind::kDelta);
  EXPECT_TRUE(store.Commit(CutKind::kDelta).has_value());
  return ReadText(dir + "/MANIFEST");
}

TEST(CheckpointManifestTest, NonCanonicalNumbersAreTypedBadValues) {
  Scratch scratch("manifestnum");
  const std::string probe = CommitFullAndDelta(scratch.Out("probe"));
  // The delta member line: "member m 2 d <bytes> <checksum>".
  const std::size_t line_at = probe.find("member m 2 d ");
  ASSERT_NE(line_at, std::string::npos);
  const std::string line = probe.substr(line_at, probe.find('\n', line_at) - line_at);
  const std::size_t checksum_at = line.rfind(' ') + 1;
  const std::string checksum = line.substr(checksum_at);
  const std::string bytes_field = line.substr(13, checksum_at - 1 - 13);

  const std::vector<std::pair<std::string, std::string>> edits = {
      {"\ngen 2\n", "\ngen -1\n"},
      {"\ngen 2\n", "\ngen +2\n"},
      {"\ngen 2\n", "\ngen  2\n"},
      {"\ngen 2\n", "\ngen 18446744073709551616\n"},
      {" d " + bytes_field + " ", " d -1 "},
      {" " + checksum + "\n", " 0x00000000000001\n"},
      {" " + checksum + "\n", " -000000000000001\n"},
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const auto& [from, to] = edits[i];
    const std::string dir = scratch.Out("store" + std::to_string(i));
    std::string text = CommitFullAndDelta(dir);
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    {
      std::ofstream out(dir + "/MANIFEST", std::ios::trunc);
      out << text;
    }
    CheckpointStore store(dir);
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.has_value()) << recovered.error().Describe();
    ASSERT_EQ(recovered->quarantined.size(), 1u) << to;
    EXPECT_EQ(recovered->quarantined[0].file, dir + "/MANIFEST") << to;
    EXPECT_EQ(recovered->quarantined[0].error.kind, SnapshotErrorKind::kBadValue)
        << to << ": " << recovered->quarantined[0].error.Describe();
    EXPECT_EQ(recovered->generation, 0u) << to;
  }
}

TEST(CheckpointCorruptionDeathTest, CorruptStoreExitsCleanlyNotViaAbort) {
  // Pin the no-abort discipline with a real process boundary: recovering a
  // mangled store and then serving to completion must exit 0.
  Scratch scratch("death");
  SpoolTenant(scratch, "solo.trace", 9);
  ServeConfig config = ConfigFor(scratch, "death");
  config.stop_after_commits = 1;
  {
    ServiceLoop loop(ServeSpec(), config);
    auto outcome = loop.Run();
    ASSERT_TRUE(outcome.has_value());
  }
  const fs::path member = FirstMember(fs::path(config.checkpoint_dir));
  {
    std::ofstream out(member, std::ios::binary | std::ios::trunc);
    out << "garbage that is definitely not a sealed snapshot";
  }
  config.stop_after_commits = -1;
  EXPECT_EXIT(
      {
        ServiceLoop loop(ServeSpec(), config);
        auto outcome = loop.Run();
        const bool ok = outcome.has_value() && outcome->finished &&
                        !outcome->quarantined.empty();
        std::_Exit(ok ? 0 : 5);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Batch skip-and-report regression.

TEST(BatchSkipAndReportTest, MalformedTenantIsSkippedReportedAndChangesExitCode) {
  Scratch scratch("batch");
  SpoolThreeTenants(scratch);
  {
    std::ofstream bad(fs::path(scratch.Spool()) / "bad.trace");
    bad << "ref ok r\nthis line does not parse\n";
  }
  BatchOptions options;
  options.dir = scratch.Spool();
  options.jobs = 2;
  ::testing::internal::CaptureStdout();
  const int with_bad = RunBatch(ServeSpec(), options);
  const std::string stdout_text = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(with_bad, 3) << "rejected tenants must be distinguishable";
  EXPECT_NE(stdout_text.find("rejected (skipped)"), std::string::npos);
  EXPECT_NE(stdout_text.find("3 of 4 tenants ran, 1 rejected"), std::string::npos)
      << stdout_text;

  fs::remove(fs::path(scratch.Spool()) / "bad.trace");
  ::testing::internal::CaptureStdout();
  const int all_good = RunBatch(ServeSpec(), options);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(all_good, 0) << "with every tenant loadable the exit code is 0";
}

TEST(BatchSkipAndReportTest, UnreadableTraceIsSkippedNotFatal) {
  Scratch scratch("batchdir");
  SpoolTenant(scratch, "good.trace", 3);
  fs::create_directories(fs::path(scratch.Spool()) / "subdir.trace");  // not a file
  {
    std::ofstream empty(fs::path(scratch.Spool()) / "empty.trace");
  }
  BatchOptions options;
  options.dir = scratch.Spool();
  options.jobs = 1;
  ::testing::internal::CaptureStdout();
  const int code = RunBatch(ServeSpec(), options);
  ::testing::internal::GetCapturedStdout();
  // The empty trace parses as zero references (valid); the directory entry
  // is not a regular file and is not a cell at all.
  EXPECT_EQ(code, 0);
}

TEST(ServeRejectionTest, MalformedSpoolFileIsRejectedOthersServe) {
  Scratch scratch("reject");
  SpoolThreeTenants(scratch);
  {
    std::ofstream bad(fs::path(scratch.Spool()) / "bad.trace");
    bad << "not a reference trace\n";
  }
  ServeConfig config = ConfigFor(scratch, "serve");
  ServiceLoop loop(ServeSpec(), config);
  auto outcome = loop.Run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->finished);
  EXPECT_EQ(outcome->tenants_completed, 3u);
  EXPECT_EQ(outcome->tenants_rejected, 1u);
  ASSERT_EQ(outcome->rejected.size(), 1u);
  EXPECT_NE(outcome->rejected[0].find("bad.trace"), std::string::npos);
  EXPECT_NE(outcome->rejected[0].find("line 1"), std::string::npos);
}

TEST(ServeRejectionTest, NonPagedLinearSpecIsATypedError) {
  Scratch scratch("family");
  SpoolTenant(scratch, "solo.trace", 1);
  SystemSpec spec = ServeSpec();
  spec.characteristics.name_space = NameSpaceKind::kSymbolicallySegmented;
  spec.characteristics.unit = AllocationUnit::kVariableBlocks;
  ServeConfig config = ConfigFor(scratch, "family");
  ServiceLoop loop(spec, config);
  auto outcome = loop.Run();
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().kind, SnapshotErrorKind::kBadValue);
}

}  // namespace
}  // namespace dsa
