#include "src/serve/checkpoint_store.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/assert.h"
#include "src/core/parse.h"

namespace dsa {

namespace {

struct ManifestEntry {
  std::string name;
  std::uint64_t gen{0};
  bool delta{false};
  std::uint64_t bytes{0};
  std::uint64_t checksum{0};
};

struct Manifest {
  std::uint64_t generation{0};
  std::uint64_t base_generation{0};
  // name -> entries in ascending generation order (the manifest's own order).
  std::map<std::string, std::vector<ManifestEntry>> entries;
};

// Exactly the 16 lowercase hex digits RenderMemberLine writes (no sign, no
// 0x prefix; sixteen digits cannot overflow).
std::optional<std::uint64_t> ParseChecksum(std::string_view token) {
  if (token.size() != 16 || !std::all_of(token.begin(), token.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      })) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  std::from_chars(token.data(), token.data() + token.size(), value, 16);
  return value;
}

// The space-separated fields of a manifest line; an empty field (a doubled,
// leading or trailing space) is kept so the caller rejects the line.
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t space = line.find(' ', start);
    fields.push_back(line.substr(start, space - start));
    if (space == std::string_view::npos) {
      return fields;
    }
    start = space + 1;
  }
}

Expected<std::uint64_t, SnapshotError> ParseCountLine(const std::string& line,
                                                      const char* prefix,
                                                      const char* what) {
  const std::size_t n = std::strlen(prefix);
  if (line.rfind(prefix, 0) != 0) {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                        std::string("manifest ") + what + " line missing"});
  }
  const auto value = ParseDecimal(std::string_view(line).substr(n), what);
  if (!value.has_value() || value.value() == 0) {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                        std::string("manifest ") + what + " unparseable"});
  }
  return value.value();
}

// Strict parse of the store's own format; anything else is a typed error.
// Structural invariants enforced here so Recover can trust the shape: per
// member, generations strictly increase, everything older than the last
// full link sits exactly at the base generation (the fallback entry), the
// base-generation entry is a full link, and the last link is either at the
// current generation (a current-cut member) or the lone fallback entry (a
// member that has since left the cut).
Expected<Manifest, SnapshotError> ParseManifest(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "DSAMANIFEST 2") {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadMagic,
                                        "manifest header is not DSAMANIFEST 2"});
  }
  Manifest manifest;
  if (!std::getline(in, line)) {
    return MakeUnexpected(
        SnapshotError{SnapshotErrorKind::kBadValue, "manifest generation line missing"});
  }
  if (auto gen = ParseCountLine(line, "gen ", "generation"); !gen.has_value()) {
    return MakeUnexpected(gen.error());
  } else {
    manifest.generation = gen.value();
  }
  if (!std::getline(in, line)) {
    return MakeUnexpected(
        SnapshotError{SnapshotErrorKind::kBadValue, "manifest base line missing"});
  }
  if (auto base = ParseCountLine(line, "base ", "base generation"); !base.has_value()) {
    return MakeUnexpected(base.error());
  } else {
    manifest.base_generation = base.value();
  }
  if (manifest.base_generation > manifest.generation) {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                        "manifest base generation exceeds generation"});
  }
  bool sealed = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      sealed = true;
      break;
    }
    // member <name> <gen> <f|d> <bytes> <checksum>, as RenderMemberLine
    // writes it.
    const std::vector<std::string_view> fields = SplitFields(line);
    if (fields.size() != 6 || fields[0] != "member" || fields[1].empty() ||
        (fields[3] != "f" && fields[3] != "d")) {
      return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                          "manifest member line unparseable: " + line});
    }
    const auto gen = ParseDecimal(fields[2], "member generation");
    const auto bytes = ParseDecimal(fields[4], "member bytes");
    if (!gen.has_value() || !bytes.has_value()) {
      return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                          "manifest member line unparseable: " + line});
    }
    ManifestEntry entry;
    entry.name = std::string(fields[1]);
    entry.gen = gen.value();
    entry.delta = fields[3] == "d";
    entry.bytes = bytes.value();
    const std::optional<std::uint64_t> checksum = ParseChecksum(fields[5]);
    if (!checksum.has_value()) {
      return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                          "manifest checksum unparseable: " + line});
    }
    entry.checksum = *checksum;
    if (entry.gen < manifest.base_generation || entry.gen > manifest.generation) {
      return MakeUnexpected(SnapshotError{
          SnapshotErrorKind::kBadValue, "manifest entry generation out of range: " + line});
    }
    manifest.entries[entry.name].push_back(std::move(entry));
  }
  if (!sealed) {
    return MakeUnexpected(
        SnapshotError{SnapshotErrorKind::kTruncated, "manifest missing its end marker"});
  }
  for (const auto& [name, links] : manifest.entries) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (i > 0 && links[i].gen <= links[i - 1].gen) {
        return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                            "manifest chain out of order for " + name});
      }
      if (links[i].gen == manifest.base_generation && links[i].delta) {
        return MakeUnexpected(SnapshotError{
            SnapshotErrorKind::kBadValue, "base-generation entry is a delta for " + name});
      }
    }
    std::size_t last_full = links.size();
    for (std::size_t i = links.size(); i-- > 0;) {
      if (!links[i].delta) {
        last_full = i;
        break;
      }
    }
    if (last_full == links.size()) {
      return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                          "manifest chain has no full link for " + name});
    }
    for (std::size_t i = 0; i < last_full; ++i) {
      if (links[i].gen != manifest.base_generation) {
        return MakeUnexpected(
            SnapshotError{SnapshotErrorKind::kBadValue,
                          "pre-chain entry off the base generation for " + name});
      }
    }
    const bool current = links.back().gen == manifest.generation;
    const bool fallback_only = links.size() == 1 && !links[0].delta &&
                               links[0].gen == manifest.base_generation;
    if (!current && !fallback_only) {
      return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                          "manifest chain neither current nor fallback for " +
                                              name});
    }
  }
  return manifest;
}

std::string RenderMemberLine(const std::string& name, std::uint64_t gen, bool delta,
                             std::uint64_t bytes, std::uint64_t checksum) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 " %c %" PRIu64 " %016" PRIx64 "\n", gen,
                delta ? 'd' : 'f', bytes, checksum);
  return "member " + name + buf;
}

// Validates one committed member file against its manifest record AND the
// snapshot container's own header, so a mismatch is caught whichever record
// was damaged.
Status<SnapshotError> ValidateMember(Fs* fs, const std::string& path, std::uint64_t bytes,
                                     std::uint64_t checksum, std::string* bytes_out) {
  auto content = ReadFileBytes(fs, path);
  if (!content.has_value()) {
    return MakeUnexpected(content.error());
  }
  if (content->size() != bytes) {
    return MakeUnexpected(SnapshotError{
        SnapshotErrorKind::kTruncated, "member size disagrees with the manifest: " + path});
  }
  if (Fnv64(*content) != checksum) {
    return MakeUnexpected(SnapshotError{
        SnapshotErrorKind::kBadChecksum,
        "member content does not hash to the manifest checksum: " + path});
  }
  SnapshotReader reader(*content);
  if (!reader.ok()) {
    SnapshotError error = reader.error();
    error.detail += ": " + path;
    return MakeUnexpected(error);
  }
  *bytes_out = std::move(*content);
  return Ok();
}

}  // namespace

std::string CheckpointStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

std::string CheckpointStore::MemberPath(const std::string& name, std::uint64_t gen) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".%" PRIu64 ".ckpt", gen);
  return dir_ + "/" + name + buf;
}

void CheckpointStore::QuarantineFile(const std::string& path) {
  // Probe for a free evidence name: an earlier damaged cut may already hold
  // `<path>.quarantine`, and clobbering it would destroy the one artifact a
  // post-mortem needs.  Bounded probe; on a pathologically full directory
  // the last candidate wins (best-effort, like the rename itself).
  std::string target = path + ".quarantine";
  for (int suffix = 1; suffix <= 64; ++suffix) {
    auto existing = fs_->FileSize(target);
    if (!existing.has_value() && existing.error().err == ENOENT) {
      break;
    }
    target = path + ".quarantine." + std::to_string(suffix);
  }
  (void)fs_->Rename(path, target);
}

Status<SnapshotError> CheckpointStore::RemoveOrphans(const std::set<std::string>& keep,
                                                     bool strict) {
  auto names = fs_->ListDir(dir_);
  if (!names.has_value()) {
    if (!strict) {
      return Ok();  // the commit already happened; orphans die next Recover
    }
    return MakeUnexpected(SnapshotError{
        SnapshotErrorKind::kIo,
        "cannot scan checkpoint dir " + dir_ + ": " + names.error().Describe()});
  }
  for (const std::string& name : *names) {
    const std::string path = dir_ + "/" + name;
    if (name.size() >= 5 && name.compare(name.size() - 5, 5, ".ckpt") == 0 &&
        keep.find(path) == keep.end()) {
      (void)fs_->Remove(path);
    }
  }
  return Ok();
}

Expected<CheckpointStore::Recovered, SnapshotError> CheckpointStore::Recover() {
  if (auto created = fs_->CreateDirs(dir_); !created.has_value()) {
    return MakeUnexpected(SnapshotError{
        SnapshotErrorKind::kIo,
        "cannot create checkpoint dir " + dir_ + ": " + created.error().Describe()});
  }

  Recovered recovered;
  std::set<std::string> keep;  // full paths of files the manifest still owns
  chains_.clear();
  fallback_.clear();

  auto manifest_bytes = fs_->ReadFile(ManifestPath());
  if (!manifest_bytes.has_value() && manifest_bytes.error().err != ENOENT) {
    // A missing manifest means "no committed cut yet"; anything else means
    // the store is unreadable right now — an environment error.
    return MakeUnexpected(
        SnapshotError{SnapshotErrorKind::kIo, manifest_bytes.error().Describe()});
  }
  if (manifest_bytes.has_value()) {
    auto parsed = ParseManifest(*manifest_bytes);
    if (!parsed.has_value()) {
      recovered.quarantined.push_back({ManifestPath(), parsed.error()});
      QuarantineFile(ManifestPath());
    } else {
      const Manifest& manifest = parsed.value();
      const std::uint64_t base = manifest.base_generation;

      // Validate every manifest entry's file exactly once.
      struct CheckedEntry {
        const ManifestEntry* entry{nullptr};
        bool valid{false};
        std::string bytes;
        SnapshotError error;
      };
      std::map<std::pair<std::string, std::uint64_t>, CheckedEntry> checked;
      for (const auto& [name, links] : manifest.entries) {
        for (const ManifestEntry& entry : links) {
          CheckedEntry c;
          c.entry = &entry;
          const std::string path = MemberPath(name, entry.gen);
          if (auto status =
                  ValidateMember(fs_, path, entry.bytes, entry.checksum, &c.bytes);
              !status.has_value()) {
            c.error = status.error();
          } else {
            c.valid = true;
          }
          checked.emplace(std::make_pair(name, entry.gen), std::move(c));
        }
      }
      auto entry_path = [&](const std::string& name, std::uint64_t gen) {
        return MemberPath(name, gen);
      };

      // The current cut: every member whose chain ends at the manifest
      // generation; its restore chain is the suffix from the last full link.
      bool current_ok = true;
      for (const auto& [name, links] : manifest.entries) {
        if (links.back().gen != manifest.generation) {
          continue;  // fallback-only entry, not part of the current cut
        }
        std::size_t head = 0;
        for (std::size_t i = links.size(); i-- > 0;) {
          if (!links[i].delta) {
            head = i;
            break;
          }
        }
        for (std::size_t i = head; i < links.size(); ++i) {
          const CheckedEntry& c = checked.at({name, links[i].gen});
          if (!c.valid) {
            recovered.quarantined.push_back({entry_path(name, links[i].gen), c.error});
            current_ok = false;
          }
        }
      }

      if (current_ok) {
        recovered.generation = manifest.generation;
        recovered.base_generation = base;
        for (const auto& [name, links] : manifest.entries) {
          const bool current = links.back().gen == manifest.generation;
          std::size_t head = 0;
          for (std::size_t i = links.size(); i-- > 0;) {
            if (!links[i].delta) {
              head = i;
              break;
            }
          }
          for (std::size_t i = 0; i < links.size(); ++i) {
            const CheckedEntry& c = checked.at({name, links[i].gen});
            if (i < head || !current) {
              // Fallback insurance (gen-base entries).  A damaged one does
              // not hurt the current cut, but it IS evidence and it means a
              // future fallback will (correctly) refuse; move it aside.
              if (!c.valid) {
                recovered.quarantined.push_back({entry_path(name, links[i].gen), c.error});
                QuarantineFile(entry_path(name, links[i].gen));
                continue;
              }
              fallback_[name] =
                  Link{links[i].gen, false, links[i].bytes, links[i].checksum};
              keep.insert(entry_path(name, links[i].gen));
              continue;
            }
            recovered.members[name].push_back(c.bytes);
            chains_[name].push_back(
                Link{links[i].gen, links[i].delta, links[i].bytes, links[i].checksum});
            keep.insert(entry_path(name, links[i].gen));
            if (links[i].gen == base && !links[i].delta) {
              fallback_[name] =
                  Link{links[i].gen, false, links[i].bytes, links[i].checksum};
            }
          }
        }
      } else if (manifest.generation == base) {
        // The damaged cut IS the last full cut: nothing to fall back to.
        // Quarantine everything the manifest names, plus the manifest.
        recovered.members.clear();
        for (const auto& [name, links] : manifest.entries) {
          for (const ManifestEntry& entry : links) {
            QuarantineFile(entry_path(name, entry.gen));
          }
        }
        QuarantineFile(ManifestPath());
        recovered.generation = 0;
        recovered.base_generation = 0;
      } else {
        // A link newer than the base is damaged: the whole chain — the
        // whole cut — is suspect.  Quarantine every post-base file and
        // retreat to the base full cut, whose entries must all validate.
        for (const auto& [name, links] : manifest.entries) {
          for (const ManifestEntry& entry : links) {
            if (entry.gen != base) {
              QuarantineFile(entry_path(name, entry.gen));
            }
          }
        }
        bool fallback_ok = true;
        for (const auto& [name, links] : manifest.entries) {
          for (const ManifestEntry& entry : links) {
            if (entry.gen != base) {
              continue;
            }
            const CheckedEntry& c = checked.at({name, entry.gen});
            if (!c.valid) {
              recovered.quarantined.push_back({entry_path(name, entry.gen), c.error});
              fallback_ok = false;
            }
          }
        }
        if (fallback_ok) {
          recovered.generation = base;
          recovered.base_generation = base;
          recovered.fell_back = true;
          for (const auto& [name, links] : manifest.entries) {
            for (const ManifestEntry& entry : links) {
              if (entry.gen != base) {
                continue;
              }
              const CheckedEntry& c = checked.at({name, entry.gen});
              recovered.members[name].push_back(c.bytes);
              const Link link{base, false, entry.bytes, entry.checksum};
              chains_[name] = {link};
              fallback_[name] = link;
              keep.insert(entry_path(name, entry.gen));
            }
          }
          // Re-point the manifest at the fallback cut atomically, so the
          // decision is durable: a crash right here re-runs the same
          // recovery, a crash after sees a plain full cut at gen `base`.
          std::string text = "DSAMANIFEST 2\n";
          char buf[64];
          std::snprintf(buf, sizeof(buf), "gen %" PRIu64 "\nbase %" PRIu64 "\n", base, base);
          text += buf;
          for (const auto& [name, link] : fallback_) {
            text += RenderMemberLine(name, link.gen, link.delta, link.bytes, link.checksum);
          }
          text += "end\n";
          if (auto status = WriteFileAtomic(fs_, ManifestPath(), text); !status.has_value()) {
            return MakeUnexpected(status.error());
          }
        } else {
          // Fallback damaged too: the store holds nothing restorable.
          recovered.members.clear();
          chains_.clear();
          fallback_.clear();
          for (const auto& [name, links] : manifest.entries) {
            for (const ManifestEntry& entry : links) {
              if (entry.gen == base) {
                QuarantineFile(entry_path(name, entry.gen));
              }
            }
          }
          QuarantineFile(ManifestPath());
          recovered.generation = 0;
          recovered.base_generation = 0;
        }
      }
    }
  }

  // Member files outside the committed cut are leftovers of a crashed
  // commit (written before the manifest rename) — remove them.
  if (auto status = RemoveOrphans(keep, /*strict=*/true); !status.has_value()) {
    return MakeUnexpected(status.error());
  }

  generation_ = recovered.generation;
  base_generation_ = recovered.base_generation;
  if (recovered.generation == 0) {
    chains_.clear();
    fallback_.clear();
  }
  recovered_ = true;
  return recovered;
}

void CheckpointStore::Stage(const std::string& name, std::string sealed) {
  staged_[name] = StagedMember{std::move(sealed), /*delta=*/false};
}

void CheckpointStore::StageDelta(const std::string& name, std::string sealed) {
  staged_[name] = StagedMember{std::move(sealed), /*delta=*/true};
}

Status<SnapshotError> CheckpointStore::Commit(CutKind kind) {
  DSA_ASSERT(recovered_, "CheckpointStore::Commit before Recover");
  const std::uint64_t new_gen = generation_ + 1;
  // The very first commit has no chains to extend: promote to full.
  const bool delta_cut = kind == CutKind::kDelta && base_generation_ > 0;
  for (const auto& [name, member] : staged_) {
    if (!member.delta) {
      continue;
    }
    if (!delta_cut) {
      return MakeUnexpected(
          SnapshotError{SnapshotErrorKind::kBadValue,
                        "delta-staged member '" + name + "' outside a delta cut"});
    }
    if (chains_.find(name) == chains_.end()) {
      return MakeUnexpected(
          SnapshotError{SnapshotErrorKind::kBadValue,
                        "delta staged for '" + name + "' with no committed chain"});
    }
  }
  for (const auto& [name, member] : staged_) {
    if (auto status = WriteFileAtomic(fs_, MemberPath(name, new_gen), member.sealed);
        !status.has_value()) {
      return status;
    }
  }

  std::map<std::string, std::vector<Link>> chains;
  std::map<std::string, Link> fallback;
  std::uint64_t base = 0;
  if (!delta_cut) {
    base = new_gen;
    for (const auto& [name, member] : staged_) {
      const Link link{new_gen, false, member.sealed.size(), Fnv64(member.sealed)};
      chains[name] = {link};
      fallback[name] = link;
    }
  } else {
    base = base_generation_;
    fallback = fallback_;
    for (const auto& [name, member] : staged_) {
      const Link link{new_gen, member.delta, member.sealed.size(), Fnv64(member.sealed)};
      if (member.delta) {
        chains[name] = chains_.at(name);
        chains[name].push_back(link);
      } else {
        chains[name] = {link};
      }
    }
  }

  // Render: per member, the union of its fallback entry and chain links,
  // deduplicated by generation (a chain head at the base IS the fallback).
  std::string text = "DSAMANIFEST 2\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "gen %" PRIu64 "\nbase %" PRIu64 "\n", new_gen, base);
  text += buf;
  std::set<std::string> keep;
  std::set<std::string> names;
  for (const auto& [name, link] : fallback) {
    names.insert(name);
  }
  for (const auto& [name, links] : chains) {
    names.insert(name);
  }
  for (const std::string& name : names) {
    std::map<std::uint64_t, Link> by_gen;
    if (auto it = fallback.find(name); it != fallback.end()) {
      by_gen[it->second.gen] = it->second;
    }
    if (auto it = chains.find(name); it != chains.end()) {
      for (const Link& link : it->second) {
        by_gen[link.gen] = link;
      }
    }
    for (const auto& [gen, link] : by_gen) {
      text += RenderMemberLine(name, gen, link.delta, link.bytes, link.checksum);
      keep.insert(MemberPath(name, gen));
    }
  }
  text += "end\n";

  // The manifest rename is the commit point: before it the new files are
  // orphans, after it the no-longer-referenced old links are.
  if (auto status = WriteFileAtomic(fs_, ManifestPath(), text); !status.has_value()) {
    return status;
  }
  (void)RemoveOrphans(keep, /*strict=*/false);
  generation_ = new_gen;
  base_generation_ = base;
  chains_ = std::move(chains);
  fallback_ = std::move(fallback);
  staged_.clear();
  return Ok();
}

}  // namespace dsa
