#include "src/core/snapshot.h"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <type_traits>

#include "src/core/assert.h"
#include "src/core/fsio.h"

namespace dsa {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'A', 'S', 'N', 'A', 'P', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8;  // magic, version, length, fnv

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// base^exp mod 2^64 by square-and-multiply.
constexpr std::uint64_t PowMod64(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  while (exp != 0) {
    if ((exp & 1) != 0) {
      result *= base;
    }
    base *= base;
    exp >>= 1;
  }
  return result;
}

// One FNV-1a step per zero byte is h *= p, so one zero word is h *= p^8.
constexpr std::uint64_t kFnvPrimeWord = PowMod64(kFnvPrime, 8);

std::uint64_t LoadWord(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

void StoreLe(char* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

template <class Bytes>
void AppendLe(Bytes* out, std::uint64_t v, int bytes) {
  char buf[8];
  StoreLe(buf, v, bytes);
  out->append(buf, static_cast<std::size_t>(bytes));
}

// The container header up to and including the checksum field, which sits
// in the last 8 bytes.
template <class Bytes>
void AppendHeader(Bytes* out, std::uint64_t payload_bytes, std::uint64_t checksum) {
  out->append(kMagic, sizeof(kMagic));
  AppendLe(out, kSnapshotFormatVersion, 4);
  AppendLe(out, payload_bytes, 8);
  AppendLe(out, checksum, 8);
}

std::uint64_t ParseLe(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

const char* ToString(SnapshotErrorKind kind) {
  switch (kind) {
    case SnapshotErrorKind::kTruncated:
      return "truncated";
    case SnapshotErrorKind::kBadMagic:
      return "bad-magic";
    case SnapshotErrorKind::kStaleVersion:
      return "stale-version";
    case SnapshotErrorKind::kBadChecksum:
      return "bad-checksum";
    case SnapshotErrorKind::kBadValue:
      return "bad-value";
    case SnapshotErrorKind::kIo:
      return "io";
  }
  return "?";
}

std::string SnapshotError::Describe() const {
  std::string out = ToString(kind);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

namespace {

// Appends the range [offset, offset + length) to `extents`, merging it into
// the last range when that range continues into it and is one of those
// from index `from` on (earlier ranges belong to another byte string).
void AppendExtent(std::vector<ByteExtent>* extents, std::size_t from, std::size_t offset,
                  std::size_t length) {
  if (length == 0) {
    return;
  }
  if (extents->size() > from && extents->back().offset + extents->back().length == offset) {
    extents->back().length += length;
  } else {
    extents->push_back({offset, length});
  }
}

// FNV-1a XORs each byte in and then multiplies by the prime.  The XOR of a
// zero byte changes nothing, so a run of k zero bytes is exactly h *= p^k
// (mod 2^64).  The kernel scans 8-byte words: a non-zero word takes its
// eight byte steps, and a run of zero words costs one square-and-multiply.
// Sparse snapshots (page tables, backing images) hash at the cost of their
// non-zero bytes; dense bytes hash at the byte loop's speed.  With
// kRecordExtents the same scan appends the non-zero words' ranges to
// `extents`, merging a word into the range it continues.
template <bool kRecordExtents>
std::uint64_t ScanFnv64(std::string_view bytes, std::vector<ByteExtent>* extents) {
  std::uint64_t h = kFnv64Offset;
  const char* const begin = bytes.data();
  const char* p = begin;
  const char* const end = p + bytes.size();
  [[maybe_unused]] const std::size_t first = kRecordExtents ? extents->size() : 0;
  auto step = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  };
  [[maybe_unused]] auto record = [&](std::size_t length) {
    AppendExtent(extents, first, static_cast<std::size_t>(p - begin), length);
  };
  while (end - p >= 8) {
    if (LoadWord(p) != 0) {
      for (int i = 0; i < 8; ++i) {
        step(p[i]);
      }
      if constexpr (kRecordExtents) {
        record(8);
      }
      p += 8;
      continue;
    }
    std::uint64_t zero_words = 1;
    p += 8;
    while (end - p >= 32 &&
           (LoadWord(p) | LoadWord(p + 8) | LoadWord(p + 16) | LoadWord(p + 24)) == 0) {
      zero_words += 4;
      p += 32;
    }
    while (end - p >= 8 && LoadWord(p) == 0) {
      ++zero_words;
      p += 8;
    }
    h *= PowMod64(kFnvPrimeWord, zero_words);
  }
  if constexpr (kRecordExtents) {
    if (p < end) {
      record(static_cast<std::size_t>(end - p));
    }
  }
  for (; p < end; ++p) {
    step(*p);
  }
  return h;
}

}  // namespace

void* MapPages(std::size_t bytes) {
  void* pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return pages;
}

void UnmapPages(void* pages, std::size_t bytes) noexcept { munmap(pages, bytes); }

std::uint64_t Fnv64(std::string_view bytes) { return ScanFnv64<false>(bytes, nullptr); }

std::uint64_t Fnv64Extents(std::string_view bytes, std::vector<ByteExtent>* extents) {
  return ScanFnv64<true>(bytes, extents);
}

std::uint64_t Fnv64Over(std::uint64_t state, std::string_view bytes,
                        std::span<const ByteExtent> extents) {
  std::uint64_t h = state;
  std::size_t at = 0;  // first byte not yet hashed
  for (const ByteExtent& extent : extents) {
    DSA_ASSERT(extent.offset >= at && extent.length <= bytes.size() - extent.offset,
               "extents must be ascending, disjoint and inside the bytes");
    h *= PowMod64(kFnvPrime, extent.offset - at);
    const char* p = bytes.data() + extent.offset;
    for (const char* const stop = p + extent.length; p < stop; ++p) {
      h ^= static_cast<unsigned char>(*p);
      h *= kFnvPrime;
    }
    at = extent.offset + extent.length;
  }
  return h * PowMod64(kFnvPrime, bytes.size() - at);
}

void SnapshotWriter::U32(std::uint32_t v) { AppendLe(&payload_, v, 4); }

void SnapshotWriter::U64(std::uint64_t v) { AppendLe(&payload_, v, 8); }

void SnapshotWriter::U64s(const std::uint64_t* v, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    payload_.append(reinterpret_cast<const char*>(v), n * sizeof(std::uint64_t));
  } else {
    char* out = Zeros(n * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < n; ++i) {
      StoreU64Le(out + sizeof(std::uint64_t) * i, v[i]);
    }
  }
}

void SnapshotWriter::F64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void SnapshotWriter::Str(const std::string& s) {
  U64(s.size());
  payload_.append(s);
}

void SnapshotWriter::Bytes(std::string_view bytes) {
  U64(bytes.size());
  payload_.append(bytes);
}

std::string SnapshotWriter::Seal() const {
  std::string out;
  out.reserve(kHeaderBytes + payload_.size());
  AppendHeader(&out, payload_.size(), Fnv64(payload_));
  out.append(payload_);
  return out;
}

SnapshotReader::SnapshotReader(std::string_view sealed) {
  if (sealed.size() < kHeaderBytes) {
    Fail(SnapshotErrorKind::kTruncated, "shorter than the snapshot header");
    return;
  }
  if (std::memcmp(sealed.data(), kMagic, sizeof(kMagic)) != 0) {
    Fail(SnapshotErrorKind::kBadMagic, "missing DSASNAP1 magic");
    return;
  }
  const std::uint64_t version = ParseLe(sealed.data() + 8, 4);
  if (version != kSnapshotFormatVersion) {
    Fail(SnapshotErrorKind::kStaleVersion,
         "format version " + std::to_string(version) + ", expected " +
             std::to_string(kSnapshotFormatVersion));
    return;
  }
  const std::uint64_t length = ParseLe(sealed.data() + 12, 8);
  const std::uint64_t checksum = ParseLe(sealed.data() + 20, 8);
  if (sealed.size() - kHeaderBytes != length) {
    Fail(SnapshotErrorKind::kTruncated,
         "payload holds " + std::to_string(sealed.size() - kHeaderBytes) +
             " bytes, header promised " + std::to_string(length));
    return;
  }
  payload_ = sealed.substr(kHeaderBytes);
  if (Fnv64(payload_) != checksum) {
    Fail(SnapshotErrorKind::kBadChecksum, "payload bytes do not match the recorded fnv64");
    payload_ = {};
  }
}

void SnapshotReader::Fail(SnapshotErrorKind kind, std::string detail) {
  if (!ok_) {
    return;  // first failure wins
  }
  ok_ = false;
  error_.kind = kind;
  error_.detail = std::move(detail);
}

bool SnapshotReader::Need(std::size_t n) {
  if (!ok_) {
    return false;
  }
  if (payload_.size() - pos_ < n) {
    Fail(SnapshotErrorKind::kTruncated, "field read past the end of the payload");
    return false;
  }
  return true;
}

std::uint8_t SnapshotReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<std::uint8_t>(static_cast<unsigned char>(payload_[pos_++]));
}

std::uint32_t SnapshotReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  const std::uint64_t v = ParseLe(payload_.data() + pos_, 4);
  pos_ += 4;
  return static_cast<std::uint32_t>(v);
}

std::uint64_t SnapshotReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  const std::uint64_t v = ParseLe(payload_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

double SnapshotReader::F64() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  const std::uint64_t n = U64();
  if (!Need(n)) {
    return {};
  }
  std::string s(payload_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::uint64_t SnapshotReader::Count(std::uint64_t limit) {
  const std::uint64_t n = U64();
  if (ok_ && n > limit) {
    Fail(SnapshotErrorKind::kBadValue,
         "count " + std::to_string(n) + " exceeds limit " + std::to_string(limit));
    return 0;
  }
  return ok_ ? n : 0;
}

SnapshotReader SnapshotReader::ForPayload(std::string_view payload) {
  SnapshotReader r;
  r.payload_ = payload;
  return r;
}

namespace {

constexpr std::uint8_t kSectionedFull = 0;
constexpr std::uint8_t kSectionedDelta = 1;
constexpr std::uint8_t kSectionInline = 0;
constexpr std::uint8_t kSectionRef = 1;

// A corrupt section count must not become a huge allocation; real cuts hold
// a handful of VM sections plus one page-table chunk per 4096 pages.
constexpr std::uint64_t kMaxSections = 1u << 20;

}  // namespace

SnapshotWriter* SectionedSnapshotWriter::Begin(const std::string& name) {
  Finish();
  current_name_ = name;
  open_ = true;
  return &current_;
}

void SectionedSnapshotWriter::Section(const std::string& name, std::string body) {
  Finish();
  AddScanned(name, std::make_shared<const std::string>(std::move(body)));
}

void SectionedSnapshotWriter::Section(const std::string& name,
                                      std::shared_ptr<const std::string> body,
                                      std::uint64_t hash, std::span<const ByteExtent> extents) {
  Finish();
  const std::size_t begin = extents_.size();
  extents_.insert(extents_.end(), extents.begin(), extents.end());
  sections_.push_back({name, std::move(body), hash, begin, extents_.size()});
}

void SectionedSnapshotWriter::Finish() {
  if (!open_) {
    return;
  }
  AddScanned(std::move(current_name_),
             std::make_shared<const std::string>(current_.TakePayload()));
  current_name_.clear();
  open_ = false;
}

// The one scan of a body the writer was not handed a hash for.
void SectionedSnapshotWriter::AddScanned(std::string name,
                                         std::shared_ptr<const std::string> body) {
  const std::size_t begin = extents_.size();
  const std::uint64_t hash = Fnv64Extents(*body, &extents_);
  sections_.push_back({std::move(name), std::move(body), hash, begin, extents_.size()});
}

// Two passes over the sections: the first decides which become refs and
// sizes the payload, the second writes header and payload into `out`, which
// is reserved to hold it, noting the payload's extents as it goes: each
// framing run whole, each inline body's extents shifted to where the body
// lands.  Both checksums are then taken over those extents, so no zero byte
// is read again.  The bytes are those SnapshotWriter::Seal() gives for the
// same payload.
template <class Bytes>
SealHashes SectionedSnapshotWriter::SealInto(const SectionBaseline* base, Bytes* out) {
  Finish();
  std::vector<bool> as_ref(sections_.size(), false);
  std::size_t payload_bytes = 1 + 8;  // kind, section count
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Entry& entry = sections_[i];
    if (base != nullptr) {
      auto it = base->hashes.find(entry.name);
      as_ref[i] = it != base->hashes.end() && it->second == entry.hash;
    }
    payload_bytes += 8 + entry.name.size() + 1 + 8 + (as_ref[i] ? 0 : entry.body->size());
  }
  const std::size_t sealed_bytes = kHeaderBytes + payload_bytes;
  out->clear();
  if (out->capacity() < sealed_bytes) {
    // A kept buffer grows to twice the seal: its pages that no seal reaches
    // are never resident, and a member whose cuts creep up (its backing
    // store gains slots) is not remapped, and faulted in again, at every
    // full cut.
    out->reserve(std::is_same_v<Bytes, SealBuffer> ? 2 * sealed_bytes : sealed_bytes);
  }
  AppendHeader(out, payload_bytes, 0);
  std::vector<ByteExtent> payload_extents;
  const auto at = [out] { return out->size() - kHeaderBytes; };
  std::size_t framing = at();
  AppendLe(out, base == nullptr ? kSectionedFull : kSectionedDelta, 1);
  AppendLe(out, sections_.size(), 8);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Entry& entry = sections_[i];
    AppendLe(out, entry.name.size(), 8);
    out->append(entry.name.data(), entry.name.size());
    if (as_ref[i]) {
      AppendLe(out, kSectionRef, 1);
      AppendLe(out, entry.hash, 8);
      continue;
    }
    AppendLe(out, kSectionInline, 1);
    AppendLe(out, entry.body->size(), 8);
    AppendExtent(&payload_extents, 0, framing, at() - framing);
    const std::size_t body_at = at();
    for (std::size_t e = entry.extents_begin; e < entry.extents_end; ++e) {
      AppendExtent(&payload_extents, 0, body_at + extents_[e].offset, extents_[e].length);
    }
    out->append(entry.body->data(), entry.body->size());
    framing = at();
  }
  AppendExtent(&payload_extents, 0, framing, at() - framing);
  DSA_ASSERT(out->size() == sealed_bytes, "sealed size disagrees with its plan");
  const std::string_view sealed(out->data(), out->size());
  const std::string_view payload = sealed.substr(kHeaderBytes);
  SealHashes hashes;
  hashes.checksum = Fnv64Over(kFnv64Offset, payload, payload_extents);
  StoreLe(out->data() + kHeaderBytes - 8, hashes.checksum, 8);
  hashes.file = Fnv64Over(Fnv64(sealed.substr(0, kHeaderBytes)), payload, payload_extents);
  return hashes;
}

SealHashes SectionedSnapshotWriter::Seal(const SectionBaseline* base, SealBuffer* out) {
  return SealInto(base, out);
}

std::string SectionedSnapshotWriter::SealFull() {
  std::string out;
  SealInto(nullptr, &out);
  return out;
}

std::string SectionedSnapshotWriter::SealDelta(const SectionBaseline& base) {
  std::string out;
  SealInto(&base, &out);
  return out;
}

SectionBaseline SectionedSnapshotWriter::Digest() {
  Finish();
  SectionBaseline digest;
  for (const Entry& entry : sections_) {
    digest.hashes[entry.name] = entry.hash;
  }
  return digest;
}

void SectionSource::Fail(SnapshotErrorKind kind, std::string detail) {
  if (!ok_) {
    return;  // first failure wins
  }
  ok_ = false;
  error_.kind = kind;
  error_.detail = std::move(detail);
}

bool SectionSource::Has(const std::string& name) const {
  return index_.find(name) != index_.end();
}

SnapshotReader SectionSource::Open(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    Fail(SnapshotErrorKind::kBadValue, "checkpoint chain has no section '" + name + "'");
    SnapshotReader dead = SnapshotReader::ForPayload({});
    dead.Fail(SnapshotErrorKind::kBadValue, "section '" + name + "' absent");
    return dead;
  }
  opened_.insert(name);
  return SnapshotReader::ForPayload(sections_[it->second].second);
}

bool SectionSource::Close(SnapshotReader* reader, const std::string& name) {
  if (ok_) {
    if (!reader->ok()) {
      Fail(reader->error().kind, "section '" + name + "': " + reader->error().detail);
    } else if (!reader->AtEnd()) {
      Fail(SnapshotErrorKind::kBadValue, "section '" + name + "' has trailing bytes");
    }
  }
  return ok_;
}

void SectionSource::FailIfUnopened() {
  if (!ok_) {
    return;
  }
  for (const auto& [name, body] : sections_) {
    if (opened_.find(name) == opened_.end()) {
      Fail(SnapshotErrorKind::kBadValue, "unconsumed section '" + name + "'");
      return;
    }
  }
}

namespace {

struct ParsedSection {
  std::string name;
  bool ref{false};
  std::string body;    // inline
  std::uint64_t hash{0};  // ref
};

Expected<std::vector<ParsedSection>, SnapshotError> ParseSectioned(
    const std::string& sealed, bool expect_delta, std::size_t link_index) {
  SnapshotReader r(sealed);
  const std::uint8_t kind = r.U8();
  if (r.ok() && kind != kSectionedFull && kind != kSectionedDelta) {
    r.Fail(SnapshotErrorKind::kBadValue,
           "unknown sectioned-snapshot kind " + std::to_string(kind));
  }
  if (r.ok() && (kind == kSectionedDelta) != expect_delta) {
    r.Fail(SnapshotErrorKind::kBadValue,
           expect_delta ? "chain link " + std::to_string(link_index) +
                              " is a full cut where a delta belongs"
                        : "chain head is a delta cut with no base");
  }
  const std::uint64_t count = r.Count(kMaxSections);
  std::vector<ParsedSection> sections;
  sections.reserve(r.ok() ? static_cast<std::size_t>(count) : 0);
  for (std::uint64_t i = 0; r.ok() && i < count; ++i) {
    ParsedSection s;
    s.name = r.Str();
    const std::uint8_t tag = r.U8();
    if (tag == kSectionInline) {
      s.body = r.Str();  // Bytes and Str share the length-prefixed encoding
    } else if (tag == kSectionRef) {
      s.ref = true;
      s.hash = r.U64();
    } else if (r.ok()) {
      r.Fail(SnapshotErrorKind::kBadValue,
             "unknown section tag " + std::to_string(tag) + " in '" + s.name + "'");
    }
    if (r.ok()) {
      sections.push_back(std::move(s));
    }
  }
  if (r.ok() && !r.AtEnd()) {
    r.Fail(SnapshotErrorKind::kBadValue, "trailing bytes after the last section");
  }
  if (!r.ok()) {
    return MakeUnexpected(r.error());
  }
  return sections;
}

}  // namespace

Expected<SectionSource, SnapshotError> ResolveSectionChain(
    const std::vector<std::string>& links) {
  if (links.empty()) {
    return MakeUnexpected(
        SnapshotError{SnapshotErrorKind::kBadValue, "empty checkpoint chain"});
  }
  SectionSource src;
  for (std::size_t i = 0; i < links.size(); ++i) {
    auto parsed = ParseSectioned(links[i], /*expect_delta=*/i > 0, i);
    if (!parsed.has_value()) {
      return MakeUnexpected(parsed.error());
    }
    if (i == 0) {
      for (auto& s : parsed.value()) {
        if (!src.index_.emplace(s.name, src.sections_.size()).second) {
          return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                              "duplicate section '" + s.name + "'"});
        }
        src.sections_.emplace_back(std::move(s.name), std::move(s.body));
      }
      continue;
    }
    // A delta link REPLACES the section set: inline sections carry new
    // bodies, refs pin unchanged predecessors by hash, and a section the
    // delta does not name is dropped (the cut no longer contains it).
    std::vector<std::pair<std::string, std::string>> next;
    std::map<std::string, std::size_t> next_index;
    for (auto& s : parsed.value()) {
      std::string body;
      if (s.ref) {
        auto it = src.index_.find(s.name);
        if (it == src.index_.end()) {
          return MakeUnexpected(SnapshotError{
              SnapshotErrorKind::kBadValue,
              "delta link " + std::to_string(i) + " references section '" + s.name +
                  "' absent from its base"});
        }
        body = src.sections_[it->second].second;
        if (Fnv64(body) != s.hash) {
          return MakeUnexpected(SnapshotError{
              SnapshotErrorKind::kBadChecksum,
              "delta link " + std::to_string(i) + " reference '" + s.name +
                  "' does not hash-match its base (mis-chained delta?)"});
        }
      } else {
        body = std::move(s.body);
      }
      if (!next_index.emplace(s.name, next.size()).second) {
        return MakeUnexpected(SnapshotError{SnapshotErrorKind::kBadValue,
                                            "duplicate section '" + s.name + "'"});
      }
      next.emplace_back(std::move(s.name), std::move(body));
    }
    src.sections_ = std::move(next);
    src.index_ = std::move(next_index);
  }
  return src;
}

Status<SnapshotError> WriteFileAtomic(Fs* fs, const std::string& path,
                                      std::string_view sealed) {
  if (auto status = fs->WriteFileAtomic(path, sealed); !status.has_value()) {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kIo, status.error().Describe()});
  }
  return Ok();
}

Status<SnapshotError> WriteFileAtomic(const std::string& path, std::string_view sealed) {
  return WriteFileAtomic(&SystemFs(), path, sealed);
}

Expected<std::string, SnapshotError> ReadFileBytes(Fs* fs, const std::string& path) {
  auto bytes = fs->ReadFile(path);
  if (!bytes.has_value()) {
    return MakeUnexpected(SnapshotError{SnapshotErrorKind::kIo, bytes.error().Describe()});
  }
  return std::move(bytes.value());
}

Expected<std::string, SnapshotError> ReadFileBytes(const std::string& path) {
  return ReadFileBytes(&SystemFs(), path);
}

}  // namespace dsa
