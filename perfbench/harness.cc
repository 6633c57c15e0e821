// Benchmark harness: runs one workload of the repository benchmark and prints
// its raw samples as a single JSON object on stdout.  perfbench/run.py builds
// this harness, runs it once per invocation, checks the simulated statistics
// against perfbench/expected.json and reduces the samples to the reported
// metrics.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--rounds N]
//
// Everything is measured from outside the library: the harness calls public
// entry points and wraps the seams the library already exposes (the Fs in
// ServeConfig::fs, the ReplacementPolicy handed to a Pager, the EventTracer
// sink).  --trace 0 measures the end-to-end numbers; --trace 1 measures the
// per-layer host time.  --rounds N (record mode) runs exactly N rounds and
// ignores --seconds.

#include <sys/resource.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <type_traits>
#include <vector>

#include "src/alloc/allocator_factory.h"
#include "src/core/fsio.h"
#include "src/core/snapshot.h"
#include "src/map/page_table.h"
#include "src/mem/backing_store.h"
#include "src/mem/channel.h"
#include "src/obs/tracer.h"
#include "src/paging/fetch.h"
#include "src/paging/pager.h"
#include "src/paging/replacement_factory.h"
#include "src/seg/segment_manager.h"
#include "src/serve/service.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/vm/paged_vm.h"
#include "src/vm/segmented_vm.h"
#include "src/vm/system_builder.h"

namespace {

using SteadyClock = std::chrono::steady_clock;

double SecondsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Since(SteadyClock::time_point t0) { return SecondsBetween(t0, SteadyClock::now()); }
double NsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Median cost of one back-to-back pair of clock reads; subtracted from every
// per-operation timing so that sub-100 ns operations are not dominated by
// the instrument.
double ClockOverheadNs() {
  std::vector<double> samples;
  samples.reserve(4001);
  for (int i = 0; i < 4001; ++i) {
    const auto a = SteadyClock::now();
    const auto b = SteadyClock::now();
    samples.push_back(NsBetween(a, b));
  }
  std::nth_element(samples.begin(), samples.begin() + 2000, samples.end());
  return samples[2000];
}

// ---------------------------------------------------------------------------
// Minimal JSON emission (insertion-ordered objects).

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + JsonNumber(v[i]);
    }
    return Raw(key, s + "]");
  }
  JsonObject& Strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + JsonString(v[i]);
    }
    return Raw(key, s + "]");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) { return Raw(key, v.Dump()); }
  JsonObject& Objs(const std::string& key, const std::vector<JsonObject>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + v[i].Dump();
    }
    return Raw(key, s + "]");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string Dump() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      s += (i ? "," : "") + JsonString(fields_[i].first) + ":" + fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Deterministic simulated statistics of one round, checked for identity.
using SimStats = std::map<std::string, std::uint64_t>;

JsonObject StatsJson(const SimStats& stats) {
  JsonObject o;
  for (const auto& [k, v] : stats) {
    o.Int(k, v);
  }
  return o;
}

std::uint64_t TraceFingerprint(const dsa::ReferenceTrace& trace) {
  std::string bytes;
  bytes.reserve(trace.refs.size() * 9);
  for (const dsa::Reference& r : trace.refs) {
    bytes.append(reinterpret_cast<const char*>(&r.name.value), sizeof(r.name.value));
    bytes.push_back(static_cast<char>(r.kind));
  }
  return dsa::Fnv64(bytes);
}

// ---------------------------------------------------------------------------
// Workload definitions.  Every input is generated from the run's seed; the
// library receives only the generated traces (or spool files).

constexpr std::size_t kSliceRefs = 65536;  // latency unit of the VM workloads
constexpr int kSetupReps = 15;              // set-ups timed per VM/seg run

// The paged VM of vm-thrash and vm-locality: 64-word pages, LRU, demand
// fetch, an 8-entry TLB.
dsa::PagedVmConfig VmConfig(int address_bits, std::size_t frames) {
  dsa::PagedVmConfig config;
  config.label = "perfbench-vm";
  config.address_bits = address_bits;
  config.page_words = 64;
  config.core_words = frames * 64;
  config.tlb_entries = 8;
  config.replacement = dsa::ReplacementStrategyKind::kLru;
  config.fetch = dsa::FetchStrategyKind::kDemand;
  return config;
}

// vm-thrash: 16-bit names (1024 pages) over 64 frames, so about 94% of
// uniform-random references fault.  The VM's tables stay cache-sized: on a
// shared host the speed of a larger VM drifted with main-memory contention.
// With 24-bit names over 4096 frames the run-to-run spread of refs_per_s was
// 0.20-0.25, with 20-bit names over 1024 frames 0.07-0.15, and at this size
// 0.02 (five 8 s runs each, alternated; see perfbench/METRICS.md).
constexpr int kThrashAddressBits = 16;
constexpr std::size_t kThrashFrames = 64;
constexpr std::size_t kThrashRefs = 1000000;
dsa::ReferenceTrace ThrashTrace(std::uint64_t seed) {
  dsa::RandomTraceParams p;
  p.extent = dsa::WordCount{1} << kThrashAddressBits;
  p.length = kThrashRefs;
  p.seed = 0x7a11'0000 + seed;
  return dsa::MakeRandomTrace(p);
}

// vm-locality: 24-bit names over 4096 frames.
constexpr int kLocalityPasses = 8;
dsa::ReferenceTrace LocalityTrace(std::uint64_t seed) {
  dsa::WorkingSetTraceParams p;
  p.extent = dsa::WordCount{1} << 24;
  p.region_words = 64;
  p.regions_per_phase = 512;
  p.phase_length = 100000;
  p.phases = 20;
  p.seed = 0x10ca'0000 + seed;
  return dsa::MakeWorkingSetTrace(p);
}

// seg-churn: the B5000 shape — symbolic names, a 64Ki-word core, best-fit
// placement, cyclic segment replacement — over Zipf(0.9) references to 2^20
// names, laid out as 2048 segments of 512 words.  The trace is cut into
// chunks; each chunk is one SegmentedVm::Run (the class offers no finer
// entry point), which is also the latency unit.
constexpr std::size_t kSegChunks = 15;
constexpr std::size_t kSegChunkRefs = 20000;
dsa::SegmentedVmConfig SegConfig() {
  dsa::SegmentedVmConfig config;
  config.label = "perfbench-seg";
  config.core_words = 64 * 1024;
  config.workload_segment_words = 512;
  config.placement = dsa::PlacementStrategyKind::kBestFit;
  config.replacement = dsa::SegmentReplacementKind::kCyclic;
  config.symbolic_names = true;
  return config;
}

std::vector<dsa::ReferenceTrace> SegChunks(std::uint64_t seed, double* gen_seconds) {
  const auto t0 = SteadyClock::now();
  dsa::ZipfTraceParams p;
  p.extent = dsa::WordCount{1} << 20;
  p.length = kSegChunks * kSegChunkRefs;
  p.theta = 0.9;
  p.seed = 0x5e60'0000 + seed;
  const dsa::ReferenceTrace whole = dsa::MakeZipfTrace(p);
  *gen_seconds = Since(t0);
  std::vector<dsa::ReferenceTrace> chunks(kSegChunks);
  for (std::size_t c = 0; c < kSegChunks; ++c) {
    chunks[c].label = whole.label + "#" + std::to_string(c);
    chunks[c].refs.assign(whole.refs.begin() + c * kSegChunkRefs,
                          whole.refs.begin() + (c + 1) * kSegChunkRefs);
  }
  return chunks;
}

// serve-commit: 8 working-set tenants on a 4096-word core with 128-word
// pages, one lane, no rescans, every 4th commit full.
constexpr std::size_t kTenants = 8;
constexpr std::size_t kTenantRefs = 25000;
constexpr dsa::Cycles kCheckpointEvery = 750000;
constexpr int kFullEvery = 4;

dsa::SystemSpec ServeSpec() {
  dsa::SystemSpec spec;
  spec.label = "perfbench-serve";
  spec.core_words = 4096;
  spec.page_words = 128;
  spec.tlb_entries = 8;
  spec.replacement = dsa::ReplacementStrategyKind::kLru;
  spec.fetch = dsa::FetchStrategyKind::kDemand;
  return spec;
}

dsa::ReferenceTrace TenantTrace(std::uint64_t seed, std::size_t tenant) {
  dsa::WorkingSetTraceParams p;
  p.extent = dsa::WordCount{1} << 18;
  p.region_words = 128;
  p.regions_per_phase = 24;
  p.phase_length = kTenantRefs / 10;
  p.phases = 10;
  p.seed = 0x5e7e'0000 + seed * 64 + tenant;
  return dsa::MakeWorkingSetTrace(p);
}

std::vector<dsa::ReferenceTrace> TenantTraces(std::uint64_t seed) {
  std::vector<dsa::ReferenceTrace> traces;
  for (std::size_t i = 0; i < kTenants; ++i) {
    traces.push_back(TenantTrace(seed, i));
  }
  return traces;
}

std::string TraceText(const dsa::ReferenceTrace& trace) {
  std::ostringstream out;
  dsa::WriteReferenceTrace(trace, &out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Independent reference model for the VM workloads' simulated output: plain
// LRU over the page string with dirty bits.  The paged VM must report the
// same faults and write-backs.

SimStats LruModel(const dsa::ReferenceTrace& trace, int passes, dsa::WordCount page_words,
                  std::size_t frames, std::uint64_t pages) {
  constexpr std::int32_t kNone = -1;
  std::vector<std::int32_t> prev(pages, kNone), next(pages, kNone);
  std::vector<std::uint8_t> resident(pages, 0), dirty(pages, 0);
  std::int32_t head = kNone, tail = kNone;  // head: most recent
  std::size_t count = 0;
  std::uint64_t faults = 0, writebacks = 0;
  auto unlink = [&](std::int32_t p) {
    if (prev[p] != kNone) next[prev[p]] = next[p]; else head = next[p];
    if (next[p] != kNone) prev[next[p]] = prev[p]; else tail = prev[p];
  };
  auto push_front = [&](std::int32_t p) {
    prev[p] = kNone;
    next[p] = head;
    if (head != kNone) prev[head] = p;
    head = p;
    if (tail == kNone) tail = p;
  };
  for (int pass = 0; pass < passes; ++pass) {
    for (const dsa::Reference& ref : trace.refs) {
      const auto p = static_cast<std::int32_t>(ref.name.value / page_words);
      if (resident[p]) {
        unlink(p);
      } else {
        ++faults;
        if (count == frames) {
          const std::int32_t victim = tail;
          unlink(victim);
          resident[victim] = 0;
          if (dirty[victim]) {
            ++writebacks;
            dirty[victim] = 0;
          }
          --count;
        }
        resident[p] = 1;
        ++count;
      }
      push_front(p);
      if (ref.kind == dsa::AccessKind::kWrite) dirty[p] = 1;
    }
  }
  return {{"faults", faults}, {"writebacks", writebacks}};
}

SimStats VmStats(const dsa::VmReport& r) {
  return {{"references", r.references},
          {"faults", r.faults},
          {"writebacks", r.writebacks},
          {"total_cycles", r.total_cycles}};
}

void AddStats(SimStats* into, const SimStats& from) {
  for (const auto& [k, v] : from) (*into)[k] += v;
}

// ---------------------------------------------------------------------------
// Seams.

// Pass-through Fs that timestamps every operation (and keeps the payload of
// the manifest and the service summary, which the benchmark parses).
class TimingFs : public dsa::Fs {
 public:
  struct Op {
    dsa::FsOpKind kind;
    std::string path;
    SteadyClock::time_point start, end;
    std::uint64_t bytes{0};
    std::string payload;  // MANIFEST / SERVICE.txt writes; newline count of appends
    std::uint64_t lines{0};
  };

  TimingFs(dsa::Fs* base, bool timed) : base_(base), timed_(timed) {}
  const std::vector<Op>& ops() const { return ops_; }
  std::uint64_t op_count() const { return count_; }

  dsa::Expected<std::string, dsa::FsError> ReadFile(const std::string& path) override {
    return Record(dsa::FsOpKind::kReadFile, path, {}, [&] { return base_->ReadFile(path); });
  }
  dsa::Expected<std::uint64_t, dsa::FsError> Append(const std::string& path,
                                                    std::uint64_t offset,
                                                    std::string_view bytes) override {
    return Record(dsa::FsOpKind::kAppend, path, bytes,
                  [&] { return base_->Append(path, offset, bytes); });
  }
  dsa::Status<dsa::FsError> WriteFileAtomic(const std::string& path,
                                            std::string_view bytes) override {
    return Record(dsa::FsOpKind::kWriteFileAtomic, path, bytes,
                  [&] { return base_->WriteFileAtomic(path, bytes); });
  }
  dsa::Status<dsa::FsError> Rename(const std::string& from, const std::string& to) override {
    return Record(dsa::FsOpKind::kRename, from, {}, [&] { return base_->Rename(from, to); });
  }
  dsa::Status<dsa::FsError> Remove(const std::string& path) override {
    return Record(dsa::FsOpKind::kRemove, path, {}, [&] { return base_->Remove(path); });
  }
  dsa::Expected<std::vector<std::string>, dsa::FsError> ListDir(
      const std::string& dir) override {
    return Record(dsa::FsOpKind::kListDir, dir, {}, [&] { return base_->ListDir(dir); });
  }
  dsa::Status<dsa::FsError> SyncDir(const std::string& dir) override {
    return Record(dsa::FsOpKind::kSyncDir, dir, {}, [&] { return base_->SyncDir(dir); });
  }
  dsa::Status<dsa::FsError> Truncate(const std::string& path, std::uint64_t size) override {
    return Record(dsa::FsOpKind::kTruncate, path, {},
                  [&] { return base_->Truncate(path, size); });
  }
  dsa::Status<dsa::FsError> CreateDirs(const std::string& dir) override {
    return Record(dsa::FsOpKind::kCreateDirs, dir, {}, [&] { return base_->CreateDirs(dir); });
  }
  dsa::Expected<std::uint64_t, dsa::FsError> FileSize(const std::string& path) override {
    return Record(dsa::FsOpKind::kFileSize, path, {}, [&] { return base_->FileSize(path); });
  }

 private:
  template <typename F>
  std::invoke_result_t<F> Record(dsa::FsOpKind kind, const std::string& path,
                                 std::string_view bytes, F&& call) {
    ++count_;
    if (!timed_) {
      return call();
    }
    Op op{kind, path, SteadyClock::now(), {}, bytes.size(), {}, 0};
    auto result = call();
    op.end = SteadyClock::now();
    if (path.ends_with("/MANIFEST") || path.ends_with("/SERVICE.txt")) {
      op.payload.assign(bytes);
    }
    if (kind == dsa::FsOpKind::kAppend) {
      op.lines = static_cast<std::uint64_t>(std::count(bytes.begin(), bytes.end(), '\n'));
    }
    ops_.push_back(std::move(op));
    return result;
  }

  dsa::Fs* base_;
  bool timed_;
  std::uint64_t count_{0};
  std::vector<Op> ops_;
};

// In-memory Fs: the service's commit protocol runs op for op as over RealFs
// (same calls, same order, same bytes), but no byte reaches a disk.  The
// benchmark writes only inside its checkout, and on a shared virtual disk the
// Fs time of a serve round varied threefold within a minute; this takes the
// disk out of the serve-commit numbers the way a tmpfs would.
class MemFs : public dsa::Fs {
  static std::string Parent(const std::string& path) {
    const auto slash = path.rfind('/');
    return slash == std::string::npos ? std::string() : path.substr(0, slash);
  }
  static auto Missing(dsa::FsOpKind op, const std::string& path) {
    return dsa::MakeUnexpected(dsa::FsError{op, ENOENT, path, false});
  }

 public:
  dsa::Expected<std::string, dsa::FsError> ReadFile(const std::string& path) override {
    const auto it = files_.find(path);
    if (it == files_.end()) return Missing(dsa::FsOpKind::kReadFile, path);
    return it->second;
  }
  dsa::Expected<std::uint64_t, dsa::FsError> Append(const std::string& path,
                                                    std::uint64_t offset,
                                                    std::string_view bytes) override {
    if (!dirs_.contains(Parent(path))) return Missing(dsa::FsOpKind::kAppend, path);
    std::string& file = files_[path];
    file.resize(offset);
    file.append(bytes);
    return static_cast<std::uint64_t>(file.size());
  }
  dsa::Status<dsa::FsError> WriteFileAtomic(const std::string& path,
                                            std::string_view bytes) override {
    if (!dirs_.contains(Parent(path))) return Missing(dsa::FsOpKind::kWriteFileAtomic, path);
    files_[path].assign(bytes);
    return dsa::Ok();
  }
  dsa::Status<dsa::FsError> Rename(const std::string& from, const std::string& to) override {
    auto it = files_.find(from);
    if (it == files_.end() || !dirs_.contains(Parent(to))) {
      return Missing(dsa::FsOpKind::kRename, from);
    }
    std::string bytes = std::move(it->second);
    files_.erase(it);
    files_[to] = std::move(bytes);
    return dsa::Ok();
  }
  dsa::Status<dsa::FsError> Remove(const std::string& path) override {
    if (files_.erase(path) == 0) return Missing(dsa::FsOpKind::kRemove, path);
    return dsa::Ok();
  }
  dsa::Expected<std::vector<std::string>, dsa::FsError> ListDir(
      const std::string& dir) override {
    if (!dirs_.contains(dir)) return Missing(dsa::FsOpKind::kListDir, dir);
    std::vector<std::string> names;
    for (auto it = files_.lower_bound(dir + "/");
         it != files_.end() && it->first.starts_with(dir + "/"); ++it) {
      const std::string name = it->first.substr(dir.size() + 1);
      if (name.find('/') == std::string::npos) names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }
  dsa::Status<dsa::FsError> SyncDir(const std::string& dir) override {
    if (!dirs_.contains(dir)) return Missing(dsa::FsOpKind::kSyncDir, dir);
    return dsa::Ok();
  }
  dsa::Status<dsa::FsError> Truncate(const std::string& path, std::uint64_t size) override {
    if (!dirs_.contains(Parent(path))) return Missing(dsa::FsOpKind::kTruncate, path);
    files_[path].resize(size);
    return dsa::Ok();
  }
  dsa::Status<dsa::FsError> CreateDirs(const std::string& dir) override {
    for (std::string d = dir; !d.empty() && dirs_.insert(d).second; d = Parent(d)) {
    }
    return dsa::Ok();
  }
  dsa::Expected<std::uint64_t, dsa::FsError> FileSize(const std::string& path) override {
    const auto it = files_.find(path);
    if (it == files_.end()) return Missing(dsa::FsOpKind::kFileSize, path);
    return static_cast<std::uint64_t>(it->second.size());
  }

 private:
  std::map<std::string, std::string> files_;
  std::set<std::string> dirs_;
};

// Decorator policy that times victim choice.
class TimedReplacement : public dsa::ReplacementPolicy {
 public:
  TimedReplacement(std::unique_ptr<dsa::ReplacementPolicy> inner, double overhead_ns)
      : inner_(std::move(inner)), overhead_ns_(overhead_ns) {}

  void OnLoad(dsa::FrameId f, dsa::PageId p, dsa::Cycles now) override {
    inner_->OnLoad(f, p, now);
  }
  void OnAccess(dsa::FrameId f, dsa::PageId p, dsa::Cycles now, bool write) override {
    inner_->OnAccess(f, p, now, write);
  }
  void OnEvict(dsa::FrameId f, dsa::PageId p) override { inner_->OnEvict(f, p); }
  dsa::FrameId ChooseVictim(dsa::FrameTable* frames, dsa::Cycles now) override {
    const auto t0 = SteadyClock::now();
    const dsa::FrameId victim = inner_->ChooseVictim(frames, now);
    ns += NsBetween(t0, SteadyClock::now()) - overhead_ns_;
    ++calls;
    return victim;
  }
  std::vector<dsa::FrameId> FramesToRelease(dsa::FrameTable* frames, dsa::Cycles now) override {
    return inner_->FramesToRelease(frames, now);
  }
  dsa::ReplacementStrategyKind kind() const override { return inner_->kind(); }

  double ns{0};
  std::uint64_t calls{0};

 private:
  std::unique_ptr<dsa::ReplacementPolicy> inner_;
  double overhead_ns_;
};

// ---------------------------------------------------------------------------
// Run state shared by every workload.

struct Run {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10};
  bool traced{false};
  int fixed_rounds{0};  // >0: record mode
  std::string work_dir;

  std::vector<double> setup_s;
  std::vector<double> refs_per_s;
  std::vector<double> latency_ms;
  std::uint64_t unit_refs{0};  // per latency unit; 0: the units do not cover a round
  std::vector<SimStats> round_stats;
  std::vector<std::string> errors;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  double gen_ns_per_ref{0};
  std::vector<double> commit_window_s;  // serve-commit: per round
  std::vector<double> commit_fs_s;      // serve-commit: Fs time inside them
  JsonObject checks;  // outcomes of the independent models

  bool MoreRounds(SteadyClock::time_point measure_start, std::size_t done) const {
    if (fixed_rounds > 0) return done < static_cast<std::size_t>(fixed_rounds);
    return done == 0 || Since(measure_start) < seconds;
  }
  void Fail(const std::string& why) { errors.push_back(why); }
};

// ---------------------------------------------------------------------------
// Paged VM workloads.

struct VmInputs {
  dsa::PagedVmConfig config;
  std::vector<dsa::ReferenceTrace> traces;  // each stepped through its own VM
  int passes{1};
  std::uint64_t refs() const {
    std::uint64_t n = 0;
    for (const auto& t : traces) n += t.size();
    return n * static_cast<std::uint64_t>(passes);
  }
};

// One round: fresh VM state per trace, stepped `passes` times.  Optionally
// records the latency of every kSliceRefs-reference slice.
SimStats StepRound(const VmInputs& in, std::vector<std::unique_ptr<dsa::PagedLinearVm>>* vms,
                   double* seconds, std::vector<double>* slice_ms) {
  SimStats stats;
  double total = 0;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    dsa::PagedLinearVm& vm = *(*vms)[i];
    vm.Reset();
    const auto t0 = SteadyClock::now();
    auto slice_start = t0;
    std::size_t in_slice = 0;
    for (int pass = 0; pass < in.passes; ++pass) {
      for (const dsa::Reference& ref : in.traces[i].refs) {
        vm.Step(ref);
        if (++in_slice == kSliceRefs) {
          const auto now = SteadyClock::now();
          if (slice_ms != nullptr) slice_ms->push_back(SecondsBetween(slice_start, now) * 1e3);
          slice_start = now;
          in_slice = 0;
        }
      }
    }
    total += Since(t0);
    AddStats(&stats, VmStats(vm.Snapshot()));
  }
  *seconds = total;
  return stats;
}

std::vector<std::unique_ptr<dsa::PagedLinearVm>> BuildVms(const VmInputs& in) {
  std::vector<std::unique_ptr<dsa::PagedLinearVm>> vms;
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    vms.push_back(std::make_unique<dsa::PagedLinearVm>(in.config));
  }
  return vms;
}

enum class ReplayMode {
  kPagerOnly,   // Pager::Access over the page string, no mapper
  kWithMapper,  // translate, access, re-translate after a fault
  kTimedCalls,  // as kWithMapper, with Map/Unmap and victim choice timed
};

struct ReplayTiming {
  double seconds{0};  // whole-loop host time
  std::uint64_t faults{0};
  std::uint64_t translations{0};
  double map_ns{0};  // kTimedCalls: Map + Unmap
  double victim_ns{0};
  std::uint64_t victims{0};
};

ReplayTiming ReplayPager(const VmInputs& in, ReplayMode mode, double overhead_ns) {
  ReplayTiming out;
  const dsa::WordCount page_words = in.config.page_words;
  const std::uint64_t pages = (dsa::WordCount{1} << in.config.address_bits) / page_words;
  for (const dsa::ReferenceTrace& trace : in.traces) {
    dsa::BackingStore backing(dsa::MakeDrumLevel("drum", dsa::WordCount{1} << in.config.address_bits,
                                                 /*word_time=*/0, /*rotational_delay=*/0));
    dsa::PageTableMapper mapper(page_words, static_cast<std::size_t>(pages),
                                in.config.tlb_entries, in.config.mapping_costs);
    // Only the timed mode wraps the policy, so the whole-loop timings run
    // the same policy object the VM builds.
    std::unique_ptr<dsa::ReplacementPolicy> policy =
        dsa::MakeReplacementPolicy(in.config.replacement, in.config.replacement_options);
    TimedReplacement* timed = nullptr;
    if (mode == ReplayMode::kTimedCalls) {
      auto wrapper = std::make_unique<TimedReplacement>(std::move(policy), overhead_ns);
      timed = wrapper.get();
      policy = std::move(wrapper);
    }
    dsa::PagerConfig pc;
    pc.page_words = page_words;
    pc.frames = static_cast<std::size_t>(in.config.core_words / page_words);
    dsa::Pager pager(pc, &backing, nullptr, std::move(policy),
                     std::make_unique<dsa::DemandFetch>(), nullptr);
    if (mode == ReplayMode::kWithMapper) {
      pager.SetResidencyCallbacks(
          [&](dsa::PageId page, dsa::FrameId frame) { mapper.Map(page, frame); },
          [&](dsa::PageId page, dsa::FrameId) { mapper.Unmap(page); });
    } else if (mode == ReplayMode::kTimedCalls) {
      pager.SetResidencyCallbacks(
          [&](dsa::PageId page, dsa::FrameId frame) {
            const auto t0 = SteadyClock::now();
            mapper.Map(page, frame);
            out.map_ns += NsBetween(t0, SteadyClock::now()) - overhead_ns;
          },
          [&](dsa::PageId page, dsa::FrameId) {
            const auto t0 = SteadyClock::now();
            mapper.Unmap(page);
            out.map_ns += NsBetween(t0, SteadyClock::now()) - overhead_ns;
          });
    }
    dsa::Cycles now = 0;
    const auto t0 = SteadyClock::now();
    for (int pass = 0; pass < in.passes; ++pass) {
      for (const dsa::Reference& ref : trace.refs) {
        const dsa::PageId page = mapper.PageOf(ref.name);
        if (mode == ReplayMode::kPagerOnly) {
          pager.Access(page, ref.kind, now++);
          continue;
        }
        (void)mapper.Translate(ref.name, ref.kind, now);
        ++out.translations;
        const auto result = pager.Access(page, ref.kind, now);
        if (result.has_value() && result->faulted) {
          (void)mapper.Translate(ref.name, ref.kind, now);
          ++out.translations;
        }
        ++now;
      }
    }
    out.seconds += Since(t0);
    out.faults += pager.stats().faults;
    if (timed != nullptr) {
      out.victim_ns += timed->ns;
      out.victims += timed->calls;
    }
  }
  return out;
}

// Per-layer attribution of a paged VM: the vm, map, paging and mem metrics,
// the reconciliation line, and the refs/s of an untraced round and of a
// round with every Step timed.
struct VmLayers {
  double untraced_refs_per_s{0};
  double traced_refs_per_s{0};
  std::map<std::string, double> metrics;
  std::string reconciliation;
  std::vector<dsa::TraceEvent> events;  // captured through a tracer sink
  std::vector<std::string> errors;      // replay disagreements
};

VmLayers ProbeVm(const VmInputs& in, double overhead_ns, bool capture_all_events) {
  VmLayers out;
  const std::uint64_t refs = in.refs();
  auto vms = BuildVms(in);

  // Untraced round: the reference step cost.
  double untraced_s = 0;
  const SimStats plain = StepRound(in, &vms, &untraced_s, nullptr);
  out.untraced_refs_per_s = static_cast<double>(refs) / untraced_s;

  // Traced round: every Step timed, split by whether a fault happened.
  double hit_ns = 0, fault_ns = 0;
  std::uint64_t hits = 0, faults = 0;
  double tlb_hits = 0, tlb_lookups = 0;
  const auto traced_t0 = SteadyClock::now();
  for (std::size_t i = 0; i < in.traces.size(); ++i) {
    dsa::PagedLinearVm& vm = *vms[i];
    vm.Reset();
    for (int pass = 0; pass < in.passes; ++pass) {
      for (const dsa::Reference& ref : in.traces[i].refs) {
        const std::uint64_t before = vm.pager().stats().faults;
        const auto t0 = SteadyClock::now();
        vm.Step(ref);
        const double ns = NsBetween(t0, SteadyClock::now()) - overhead_ns;
        if (vm.pager().stats().faults != before) {
          fault_ns += ns;
          ++faults;
        } else {
          hit_ns += ns;
          ++hits;
        }
      }
    }
    const auto& tlb = static_cast<const dsa::PageTableMapper&>(vm.mapper()).tlb();
    tlb_hits += static_cast<double>(tlb.hits());
    tlb_lookups += static_cast<double>(tlb.hits() + tlb.misses());
  }
  out.traced_refs_per_s = static_cast<double>(refs) / Since(traced_t0);

  // Layer replay: the VM's mapper and pager rebuilt from public parts with a
  // zero-latency backing store (as bench_throughput does).  Whole loops are
  // timed, so the shares carry no instrument cost; only the rare fault-path
  // calls (Map/Unmap, victim choice) are timed one by one.
  const ReplayTiming pager_only = ReplayPager(in, ReplayMode::kPagerOnly, overhead_ns);
  const ReplayTiming with_mapper = ReplayPager(in, ReplayMode::kWithMapper, overhead_ns);
  const ReplayTiming timed_calls = ReplayPager(in, ReplayMode::kTimedCalls, overhead_ns);

  // Transfer model: capture the VM's transfers through a tracer sink, then
  // replay them through a fresh backing store and channel.
  struct Transfer {
    dsa::Cycles time;
    std::uint64_t page;
    bool writeback;
  };
  const dsa::WordCount page_words = in.config.page_words;
  std::vector<Transfer> transfers;
  for (const dsa::ReferenceTrace& trace : in.traces) {
    dsa::EventTracer tracer(1);
    tracer.SetSink([&](const dsa::TraceEvent& ev) {
      if (capture_all_events) out.events.push_back(ev);
      if (ev.kind == dsa::EventKind::kTransferStart) {
        transfers.push_back({ev.time, ev.a, ev.c != 0});
      }
    });
    dsa::PagedVmConfig config = in.config;
    config.tracer = &tracer;
    dsa::PagedLinearVm vm(config);
    for (int pass = 0; pass < in.passes; ++pass) {
      for (const dsa::Reference& ref : trace.refs) vm.Step(ref);
    }
  }
  double transfer_ns = 0;
  {
    dsa::BackingStore backing(in.config.backing_level);
    dsa::TransferChannel channel;
    std::vector<dsa::Word> data;
    const auto t0 = SteadyClock::now();
    for (const Transfer& t : transfers) {
      channel.Schedule(backing.level(), page_words, t.time);
      if (t.writeback) {
        backing.Store(t.page, std::vector<dsa::Word>(page_words));
      } else {
        backing.Fetch(t.page, page_words, &data);
      }
    }
    transfer_ns = NsBetween(t0, SteadyClock::now()) / std::max<double>(1.0, transfers.size());
  }

  const double n = static_cast<double>(refs);
  const double step_ns = 1e9 / out.untraced_refs_per_s;
  const double paging_share = pager_only.seconds * 1e9 / n;
  const double map_share =
      std::max(0.0, with_mapper.seconds - pager_only.seconds) * 1e9 / n;
  const double map_unmap_total = timed_calls.map_ns;
  const double translate_per =
      std::max(0.0, map_share * n - map_unmap_total) / static_cast<double>(with_mapper.translations);
  const double transfer_share = transfer_ns * static_cast<double>(transfers.size()) / n;
  const double residual = step_ns - map_share - paging_share;
  const std::uint64_t vm_faults = plain.at("faults");
  out.metrics = {
      {"vm.step_ns", step_ns},
      {"vm.step_hit_ns", hits ? hit_ns / static_cast<double>(hits) : 0.0},
      {"vm.step_fault_ns", faults ? fault_ns / static_cast<double>(faults) : 0.0},
      {"vm.residual_ns", residual},
      {"map.translate_ns", translate_per},
      {"map.map_unmap_ns", map_unmap_total / std::max<double>(1.0, vm_faults)},
      {"map.tlb_hit_ratio", tlb_lookups > 0 ? tlb_hits / tlb_lookups : 0.0},
      {"paging.access_ns", paging_share},
      {"paging.victim_ns",
       timed_calls.victims ? timed_calls.victim_ns / static_cast<double>(timed_calls.victims)
                           : 0.0},
      {"paging.fault_ratio", static_cast<double>(vm_faults) / n},
      {"mem.transfer_ns", transfer_ns},
  };
  char line[512];
  std::snprintf(line, sizeof(line),
                "vm.step_ns %.2f = map %.2f (translate %.2f x %.3f/ref + map/unmap %.2f/ref) "
                "+ paging %.2f (of which victim choice %.2f/ref, transfer model %.2f/ref) "
                "+ residual %.2f (%.1f%%); replay faults %" PRIu64 " vs vm %" PRIu64,
                step_ns, map_share, translate_per,
                static_cast<double>(with_mapper.translations) / n, map_unmap_total / n,
                paging_share, timed_calls.victim_ns / n, transfer_share, residual,
                100.0 * residual / step_ns, with_mapper.faults, vm_faults);
  out.reconciliation = line;
  if (with_mapper.faults != vm_faults || pager_only.faults != vm_faults) {
    out.errors.push_back("pager replay faults " + std::to_string(with_mapper.faults) +
                         " differ from the VM's " + std::to_string(vm_faults));
  }
  return out;
}

VmInputs VmWorkloadInputs(const std::string& workload, std::uint64_t seed, double* gen_s) {
  VmInputs in;
  const auto t0 = SteadyClock::now();
  if (workload == "vm-thrash") {
    in.config = VmConfig(kThrashAddressBits, kThrashFrames);
    in.traces.push_back(ThrashTrace(seed));
    in.passes = 1;
  } else {
    in.config = VmConfig(24, 4096);
    in.traces.push_back(LocalityTrace(seed));
    in.passes = kLocalityPasses;
  }
  *gen_s = Since(t0);
  return in;
}

void RunVmWorkload(Run* run) {
  // Set-up: trace generation and VM construction, timed several times.
  VmInputs in;
  std::vector<std::unique_ptr<dsa::PagedLinearVm>> vms;
  std::uint64_t fingerprint = 0;
  std::vector<double> gen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = SteadyClock::now();
    double gen_s = 0;
    in = VmWorkloadInputs(run->workload, run->seed, &gen_s);
    vms = BuildVms(in);
    run->setup_s.push_back(Since(t0));
    gen.push_back(gen_s);
    const std::uint64_t fp = TraceFingerprint(in.traces[0]);
    if (rep == 0) fingerprint = fp;
    if (fp != fingerprint) run->Fail("trace generation is not deterministic");
  }
  std::sort(gen.begin(), gen.end());
  run->gen_ns_per_ref = gen[gen.size() / 2] * 1e9 / static_cast<double>(in.traces[0].size());

  if (!run->traced) {
    run->unit_refs = kSliceRefs;
    const auto start = SteadyClock::now();
    while (run->MoreRounds(start, run->round_stats.size())) {
      double s = 0;
      run->round_stats.push_back(StepRound(in, &vms, &s, &run->latency_ms));
      run->refs_per_s.push_back(static_cast<double>(in.refs()) / s);
    }
    // Independent check of the simulated output: a plain LRU model.
    const SimStats model =
        LruModel(in.traces[0], in.passes, in.config.page_words,
                 static_cast<std::size_t>(in.config.core_words / in.config.page_words),
                 (dsa::WordCount{1} << in.config.address_bits) / in.config.page_words);
    for (const auto& [k, v] : model) {
      if (run->round_stats[0].at(k) != v) {
        run->Fail("LRU reference model disagrees on " + k + ": model " + std::to_string(v) +
                  ", vm " + std::to_string(run->round_stats[0].at(k)));
      }
    }
    run->checks.Obj("lru_model", StatsJson(model));
  }
  run->attempted = std::max<std::uint64_t>(1, run->round_stats.size());
}

// ---------------------------------------------------------------------------
// seg-churn.

SimStats SegRound(const std::vector<dsa::ReferenceTrace>& chunks, dsa::SegmentedVm* vm,
                  double* seconds, std::vector<double>* chunk_ms) {
  SimStats stats;
  double total = 0;
  for (const dsa::ReferenceTrace& chunk : chunks) {
    const auto t0 = SteadyClock::now();
    const dsa::VmReport report = vm->Run(chunk);
    const double s = Since(t0);
    total += s;
    if (chunk_ms != nullptr) chunk_ms->push_back(s * 1e3);
    AddStats(&stats, VmStats(report));
    const dsa::AllocatorStats& a = vm->manager().allocator().stats();
    stats["alloc_attempts"] += a.allocations + a.failures;
    stats["alloc_failures"] += a.failures;
  }
  *seconds = total;
  return stats;
}

struct SegLayers {
  double untraced_refs_per_s{0};
  double traced_refs_per_s{0};
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // replay disagreements
};

SegLayers ProbeSeg(const std::vector<dsa::ReferenceTrace>& chunks, double overhead_ns) {
  SegLayers out;
  const double refs = static_cast<double>(chunks.size() * kSegChunkRefs);
  const dsa::SegmentedVmConfig config = SegConfig();
  dsa::SegmentedVm plain_vm(config);
  double untraced_s = 0;
  const SimStats plain = SegRound(chunks, &plain_vm, &untraced_s, nullptr);
  out.untraced_refs_per_s = refs / untraced_s;

  // Traced round: the allocation stream captured through a tracer sink.
  std::vector<std::vector<dsa::TraceEvent>> streams(chunks.size());
  std::size_t current = 0;
  dsa::EventTracer tracer(1);
  tracer.SetSink([&](const dsa::TraceEvent& ev) {
    if (ev.kind == dsa::EventKind::kAlloc || ev.kind == dsa::EventKind::kFree) {
      streams[current].push_back(ev);
    }
  });
  dsa::SegmentedVmConfig traced_config = config;
  traced_config.tracer = &tracer;
  dsa::SegmentedVm traced_vm(traced_config);
  const auto t0 = SteadyClock::now();
  for (current = 0; current < chunks.size(); ++current) traced_vm.Run(chunks[current]);
  out.traced_refs_per_s = refs / Since(t0);

  // Segment manager replay: the VM's name-to-segment layout rebuilt from
  // public parts, segments created on first reference as SegmentedVm does;
  // the whole replay is timed per access.
  std::uint64_t accesses = 0, seg_faults = 0;
  double access_s = 0;
  for (const dsa::ReferenceTrace& chunk : chunks) {
    dsa::BackingStore backing(config.backing_level);
    dsa::TransferChannel channel;
    dsa::SegmentManagerConfig mc;
    mc.core_words = config.core_words;
    mc.max_segment_extent = config.max_segment_extent;
    mc.placement = config.placement;
    mc.replacement = config.replacement;
    dsa::SegmentManager manager(mc, &backing, &channel);
    std::unordered_map<std::uint64_t, dsa::SegmentId> segments;
    dsa::Cycles now = 0;
    const auto a0 = SteadyClock::now();
    for (const dsa::Reference& ref : chunk.refs) {
      const std::uint64_t slice = ref.name.value / config.workload_segment_words;
      auto it = segments.find(slice);
      if (it == segments.end()) {
        it = segments.emplace(slice, manager.Create(config.workload_segment_words)).first;
      }
      now += 1 + config.mapping_costs.core_reference;
      const auto r = manager.Access(it->second, ref.name.value % config.workload_segment_words,
                                    ref.kind, now);
      if (r.has_value() && r->segment_fault) now += r->wait_cycles;
    }
    access_s += Since(a0);
    accesses += manager.stats().accesses;
    seg_faults += manager.stats().segment_faults;
  }

  // Allocator replay: the captured alloc/free stream through MakeAllocator.
  double alloc_ns = 0, free_ns = 0;
  std::uint64_t allocs = 0, frees = 0, replay_failures = 0;
  for (const auto& stream : streams) {
    auto allocator = dsa::MakeAllocator(config.placement, config.core_words);
    std::map<std::uint64_t, std::uint64_t> address;  // traced -> replayed
    for (const dsa::TraceEvent& ev : stream) {
      if (ev.kind == dsa::EventKind::kAlloc) {
        const auto t0a = SteadyClock::now();
        const auto block = allocator->Allocate(ev.b);
        alloc_ns += NsBetween(t0a, SteadyClock::now()) - overhead_ns;
        ++allocs;
        if (block.has_value()) {
          address[ev.a] = block->addr.value;
        } else {
          ++replay_failures;
        }
      } else {
        const auto it = address.find(ev.a);
        if (it == address.end()) continue;
        const auto t0f = SteadyClock::now();
        allocator->Free(dsa::PhysicalAddress{it->second});
        free_ns += NsBetween(t0f, SteadyClock::now()) - overhead_ns;
        ++frees;
        address.erase(it);
      }
    }
  }
  out.metrics = {
      {"seg.access_ns", access_s * 1e9 / static_cast<double>(accesses)},
      {"seg.fault_ratio", static_cast<double>(seg_faults) / static_cast<double>(accesses)},
      {"alloc.allocate_ns", allocs ? alloc_ns / static_cast<double>(allocs) : 0.0},
      {"alloc.free_ns", frees ? free_ns / static_cast<double>(frees) : 0.0},
      {"alloc.fail_ratio", static_cast<double>(plain.at("alloc_failures")) /
                               static_cast<double>(plain.at("alloc_attempts"))},
  };
  if (seg_faults != plain.at("faults")) {
    out.errors.push_back("segment replay faults " + std::to_string(seg_faults) +
                         " differ from the VM's " + std::to_string(plain.at("faults")));
  }
  if (replay_failures != 0) {
    out.errors.push_back(std::to_string(replay_failures) +
                         " captured allocations failed on replay");
  }
  return out;
}

void RunSegWorkload(Run* run) {
  std::vector<dsa::ReferenceTrace> chunks;
  std::unique_ptr<dsa::SegmentedVm> vm;
  std::uint64_t fingerprint = 0;
  std::vector<double> gen;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = SteadyClock::now();
    double gen_s = 0;
    chunks = SegChunks(run->seed, &gen_s);
    vm = std::make_unique<dsa::SegmentedVm>(SegConfig());
    run->setup_s.push_back(Since(t0));
    gen.push_back(gen_s);
    const std::uint64_t fp = TraceFingerprint(chunks.back());
    if (rep == 0) fingerprint = fp;
    if (fp != fingerprint) run->Fail("trace generation is not deterministic");
  }
  std::sort(gen.begin(), gen.end());
  run->gen_ns_per_ref =
      gen[gen.size() / 2] * 1e9 / static_cast<double>(kSegChunks * kSegChunkRefs);
  if (!run->traced) {
    run->unit_refs = kSegChunkRefs;
    const auto start = SteadyClock::now();
    while (run->MoreRounds(start, run->round_stats.size())) {
      double s = 0;
      run->round_stats.push_back(SegRound(chunks, vm.get(), &s, &run->latency_ms));
      run->refs_per_s.push_back(static_cast<double>(kSegChunks * kSegChunkRefs) / s);
    }
  }
  run->attempted = std::max<std::uint64_t>(1, run->round_stats.size());
}

// ---------------------------------------------------------------------------
// serve-commit.

struct ServeRound {
  SimStats stats;
  double setup_s{0};
  double timed_s{0};
  std::vector<double> cut_ms;
  std::vector<bool> cut_full;
  double cut_fs_ms{0};
  std::uint64_t cut_fs_ops{0};
  std::uint64_t cut_fs_bytes{0};
  std::uint64_t events{0};
  std::uint64_t refs{0};
  std::uint64_t ops_attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  std::vector<dsa::ReferenceTrace> traces;
  std::vector<std::string> spool_text;
};

std::uint64_t ParseField(const std::string& text, const std::string& label) {
  const auto at = text.find(label);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + label.size(), nullptr, 10);
}

std::uint64_t HashTree(dsa::Fs* fs, const std::string& dir) {
  auto names = fs->ListDir(dir);
  if (!names.has_value()) return 0;
  std::string all;
  for (const std::string& name : *names) {
    auto bytes = fs->ReadFile(dir + "/" + name);
    all += name + '\0' + (bytes.has_value() ? *bytes : std::string("<unreadable>")) + '\0';
  }
  return dsa::Fnv64(all);
}

struct ServeOptions {
  bool timed_fs{true};     // timestamp every Fs op (false: count only)
  bool setup_only{false};  // stop at the first commit; only set-up is used
  bool on_disk{false};     // RealFs under the work directory instead of MemFs
};

// One service run in a fresh directory tree.
ServeRound RunServeRound(const Run& run, int index, ServeOptions options) {
  ServeRound r;
  MemFs memory;
  dsa::Fs* base = options.on_disk ? &dsa::SystemFs() : static_cast<dsa::Fs*>(&memory);
  const std::string root = run.work_dir + "/serve-" + std::to_string(index);
  if (options.on_disk) std::filesystem::remove_all(root);
  const std::string spool = root + "/spool", out = root + "/out", ckpt = root + "/ckpt";

  const auto setup_t0 = SteadyClock::now();
  r.traces = TenantTraces(run.seed);
  if (auto made = base->CreateDirs(spool); !made.has_value()) {
    r.errors.push_back("cannot create spool: " + made.error().Describe());
  }
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    r.spool_text.push_back(TraceText(r.traces[i]));
    char name[48];
    std::snprintf(name, sizeof(name), "/tenant-%02zu.trace", i);
    auto wrote = base->WriteFileAtomic(spool + name, r.spool_text.back());
    if (!wrote.has_value()) r.errors.push_back("cannot write spool: " + wrote.error().Describe());
    r.refs += r.traces[i].size();
  }
  const bool timed_fs = options.timed_fs;
  const bool setup_only = options.setup_only;
  TimingFs fs(base, timed_fs);
  dsa::ServeConfig config;
  config.spool_dir = spool;
  config.out_dir = out;
  config.checkpoint_dir = ckpt;
  config.checkpoint_every = kCheckpointEvery;
  config.checkpoint_full_every = kFullEvery;
  config.lanes = 1;
  config.rescan_spool = false;
  config.fs = &fs;
  if (setup_only) config.stop_after_commits = 0;
  dsa::ServiceLoop loop(ServeSpec(), config);
  const auto run_t0 = SteadyClock::now();
  const double pre_run_setup = SecondsBetween(setup_t0, run_t0);
  auto outcome = loop.Run();
  const auto run_t1 = SteadyClock::now();

  if (!outcome.has_value()) {
    r.errors.push_back("service run failed: " + outcome.error().Describe());
    r.failed = 1;
    r.ops_attempted = kTenants + fs.op_count();
    if (options.on_disk) std::filesystem::remove_all(root);
    return r;
  }
  const dsa::ServeOutcome& o = *outcome;
  r.ops_attempted = kTenants + fs.op_count();
  r.failed = o.tenants_rejected + o.io_giveups;
  if (setup_only) {
    if (!o.finished && o.commits != 1) r.errors.push_back("set-up round did not stop");
  } else if (!o.finished || o.degraded || o.tenants_completed != kTenants) {
    r.errors.push_back("service did not finish cleanly");
    r.failed += 1;
  }

  // Set-up ends when admission has read the last spool file.
  SteadyClock::time_point admitted = run_t0;
  std::uint64_t committed_bytes = 0;
  std::string service_txt;
  if (timed_fs) {
    for (const TimingFs::Op& op : fs.ops()) {
      if (op.kind == dsa::FsOpKind::kReadFile && op.path.starts_with(spool + "/")) {
        admitted = op.end;
      }
    }
    // Commit windows: first event append (or, in a cut with nothing to
    // append, first checkpoint write) up to the MANIFEST commit.
    std::optional<std::size_t> cut_start;
    for (std::size_t i = 0; i < fs.ops().size(); ++i) {
      const TimingFs::Op& op = fs.ops()[i];
      const bool in_ckpt = op.path.starts_with(ckpt + "/");
      if (op.kind == dsa::FsOpKind::kAppend) r.events += op.lines;
      if (op.kind == dsa::FsOpKind::kWriteFileAtomic && in_ckpt) committed_bytes += op.bytes;
      if (op.path.ends_with("/SERVICE.txt")) service_txt = op.payload;
      if (op.start < admitted) continue;
      const bool cut_op = op.kind == dsa::FsOpKind::kAppend ||
                          (op.kind == dsa::FsOpKind::kWriteFileAtomic && in_ckpt);
      if (!cut_start && cut_op) cut_start = i;
      if (cut_start && op.kind == dsa::FsOpKind::kWriteFileAtomic &&
          op.path == ckpt + "/MANIFEST") {
        const TimingFs::Op& first = fs.ops()[*cut_start];
        r.cut_ms.push_back(SecondsBetween(first.start, op.end) * 1e3);
        r.cut_full.push_back(ParseField(op.payload, "\ngen ") ==
                             ParseField(op.payload, "\nbase "));
        for (std::size_t j = *cut_start; j <= i; ++j) {
          r.cut_fs_ms += SecondsBetween(fs.ops()[j].start, fs.ops()[j].end) * 1e3;
          r.cut_fs_bytes += fs.ops()[j].bytes;
          ++r.cut_fs_ops;
        }
        cut_start.reset();
      }
    }
  }
  r.setup_s = pre_run_setup + SecondsBetween(run_t0, admitted);
  r.timed_s = SecondsBetween(admitted, run_t1);
  r.stats = {{"commits", o.commits},
             {"committed_bytes", committed_bytes},
             {"out_tree_fnv64", HashTree(base, out)},
             {"references", ParseField(service_txt, "references ")},
             {"faults", ParseField(service_txt, "faults ")},
             {"writebacks", ParseField(service_txt, "write-backs ")},
             {"total_cycles", ParseField(service_txt, "total cycles ")},
             {"events", r.events}};
  if (options.on_disk) std::filesystem::remove_all(root);
  return r;
}

constexpr int kServeSetupReps = 3;  // set-up-only rounds before the timed ones

void RunServeWorkload(Run* run) {
  if (run->traced) {
    // The traced run measures the layers itself; only the generator share of
    // the set-up is taken here.
    const auto t0 = SteadyClock::now();
    const auto traces = TenantTraces(run->seed);
    run->gen_ns_per_ref = Since(t0) * 1e9 / static_cast<double>(traces.size() * kTenantRefs);
    return;
  }
  int index = 0;
  for (int rep = 0; rep < kServeSetupReps && run->fixed_rounds == 0; ++rep) {
    ServeRound r = RunServeRound(*run, index++, {.setup_only = true});
    for (const std::string& e : r.errors) run->Fail(e);
    run->setup_s.push_back(r.setup_s);
  }
  const auto start = SteadyClock::now();
  while (run->MoreRounds(start, run->round_stats.size())) {
    ServeRound r = RunServeRound(*run, index++, {});
    for (const std::string& e : r.errors) run->Fail(e);
    run->attempted += r.ops_attempted;
    run->failed += r.failed;
    run->setup_s.push_back(r.setup_s);
    run->refs_per_s.push_back(static_cast<double>(r.refs) / r.timed_s);
    run->latency_ms.insert(run->latency_ms.end(), r.cut_ms.begin(), r.cut_ms.end());
    run->round_stats.push_back(r.stats);
    double window_ms = 0;
    for (const double ms : r.cut_ms) window_ms += ms;
    run->commit_window_s.push_back(window_ms / 1e3);
    run->commit_fs_s.push_back(r.cut_fs_ms / 1e3);
    if (run->round_stats.size() == 1) {
      // Independent check: tenants are isolated, so the service's aggregate
      // must equal standalone runs of the same traces.
      SimStats standalone;
      const dsa::PagedVmConfig config = dsa::PagedConfigFromSpec(ServeSpec());
      for (const auto& trace : r.traces) {
        dsa::PagedLinearVm vm(config);
        AddStats(&standalone, VmStats(vm.Run(trace)));
      }
      for (const char* k : {"references", "faults", "writebacks"}) {
        if (standalone.at(k) != r.stats.at(k)) {
          run->Fail(std::string("standalone VMs disagree with the service on ") + k + ": " +
                    std::to_string(standalone.at(k)) + " vs " + std::to_string(r.stats.at(k)));
        }
      }
      run->checks.Obj("standalone", StatsJson(standalone));
    }
  }
  run->attempted = std::max<std::uint64_t>(run->attempted, 1);
}

// ---------------------------------------------------------------------------
// Traced run: every per-layer metric.  Layers this workload passes through
// are measured on its own inputs; the others on the inputs of the workload
// that exercises them (vm/map/paging/mem: vm-thrash; seg/alloc: seg-churn;
// obs/core/serve/trace.parse: serve-commit), generated from the same seed.

struct Traced {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> source;
  std::vector<std::string> notes;
  double overhead{0};  // traced refs/s over untraced refs/s, this workload
};

void Put(Traced* t, const std::map<std::string, double>& m, const std::string& from) {
  for (const auto& [k, v] : m) {
    if (!t->metrics.contains(k)) {
      t->metrics[k] = v;
      t->source[k] = from;
    }
  }
}

std::map<std::string, double> ServeLayers(const Run& run, double overhead_ns, VmLayers* vm,
                                          double* overhead, std::string* disk_note) {
  // One round with a counting Fs (untraced), one with the timing Fs.
  const ServeRound plain = RunServeRound(run, 0, {.timed_fs = false});
  const ServeRound r = RunServeRound(run, 1, {});
  // The same round over RealFs on the checkout's disk, for comparison only.
  const ServeRound disk = RunServeRound(run, 2, {.on_disk = true});
  std::vector<std::string> round_errors;
  for (const ServeRound* round : {&plain, &r, &disk}) {
    round_errors.insert(round_errors.end(), round->errors.begin(), round->errors.end());
  }
  // The counting-only round records no op log, so only the statistics that
  // do not come from it are compared.
  if (disk.stats != r.stats || plain.stats.at("commits") != r.stats.at("commits") ||
      plain.stats.at("out_tree_fnv64") != r.stats.at("out_tree_fnv64")) {
    round_errors.push_back("service rounds disagree on simulated statistics");
  }
  *disk_note = "serve-commit over RealFs on the checkout's disk: " +
               std::to_string(disk.cut_fs_ms / std::max<double>(1.0, disk.cut_ms.size())) +
               " ms of Fs time per commit (in-memory Fs: " +
               std::to_string(r.cut_fs_ms / std::max<double>(1.0, r.cut_ms.size())) + " ms)";
  const double plain_rate = static_cast<double>(plain.refs) / (plain.timed_s + plain.setup_s);
  const double traced_rate = static_cast<double>(r.refs) / (r.timed_s + r.setup_s);
  *overhead = traced_rate / plain_rate;

  double window_ms = 0, full_ms = 0, delta_ms = 0;
  std::size_t fulls = 0, deltas = 0;
  for (std::size_t i = 0; i < r.cut_ms.size(); ++i) {
    window_ms += r.cut_ms[i];
    (r.cut_full[i] ? full_ms : delta_ms) += r.cut_ms[i];
    ++(r.cut_full[i] ? fulls : deltas);
  }
  const double commits = std::max<double>(1.0, r.cut_ms.size());

  double parse_s = 0;
  for (const std::string& text : r.spool_text) {
    std::istringstream in(text);
    const auto t0 = SteadyClock::now();
    auto parsed = dsa::ReadReferenceTrace(&in);
    parse_s += Since(t0);
    (void)parsed;
  }

  VmInputs tenants;
  tenants.config = dsa::PagedConfigFromSpec(ServeSpec());
  tenants.traces = r.traces;
  *vm = ProbeVm(tenants, overhead_ns, /*capture_all_events=*/true);
  vm->errors.insert(vm->errors.end(), round_errors.begin(), round_errors.end());

  // Emission cost: the captured stream re-emitted into an unbounded tracer,
  // as each service tenant's tracer is.
  dsa::EventTracer replay(0);
  const auto e0 = SteadyClock::now();
  for (const dsa::TraceEvent& ev : vm->events) {
    replay.AdvanceClock(ev.time);
    replay.Emit(ev.kind, ev.a, ev.b, ev.c);
  }
  const double emit_ns = NsBetween(e0, SteadyClock::now()) /
                         std::max<double>(1.0, vm->events.size());
  const double total_s = r.timed_s;
  return {
      {"obs.emit_ns", emit_ns},
      {"obs.events_per_ref", static_cast<double>(r.events) / static_cast<double>(r.refs)},
      {"core.seal_ms_per_commit", (window_ms - r.cut_fs_ms) / commits},
      {"core.fs_ms_per_commit", r.cut_fs_ms / commits},
      {"core.fs_ops_per_commit", static_cast<double>(r.cut_fs_ops) / commits},
      {"core.fs_bytes_per_commit", static_cast<double>(r.cut_fs_bytes) / commits},
      {"serve.commit_full_ms", fulls ? full_ms / static_cast<double>(fulls) : 0.0},
      {"serve.commit_delta_ms", deltas ? delta_ms / static_cast<double>(deltas) : 0.0},
      {"serve.step_share", (total_s - window_ms / 1e3) / total_s},
      {"trace.parse_ns_per_ref", parse_s * 1e9 / static_cast<double>(r.refs)},
  };
}

Traced RunTraced(Run* run) {
  Traced t;
  const double overhead_ns = ClockOverheadNs();
  t.notes.push_back("clock pair overhead " + std::to_string(overhead_ns) + " ns subtracted");
  const std::string& w = run->workload;
  Put(&t, {{"trace.gen_ns_per_ref", run->gen_ns_per_ref}}, w);

  auto vm_probe = [&](const std::string& name) {
    double gen_s = 0;
    const VmInputs in = VmWorkloadInputs(name, run->seed, &gen_s);
    VmLayers layers = ProbeVm(in, overhead_ns, false);
    for (const std::string& e : layers.errors) run->Fail(name + ": " + e);
    t.notes.push_back(name + ": " + layers.reconciliation);
    if (name == w) t.overhead = layers.traced_refs_per_s / layers.untraced_refs_per_s;
    Put(&t, layers.metrics, name);
  };
  auto seg_probe = [&]() {
    double gen_s = 0;
    SegLayers layers = ProbeSeg(SegChunks(run->seed, &gen_s), overhead_ns);
    for (const std::string& e : layers.errors) run->Fail("seg-churn: " + e);
    if (w == "seg-churn") t.overhead = layers.traced_refs_per_s / layers.untraced_refs_per_s;
    Put(&t, layers.metrics, "seg-churn");
  };
  auto serve_probe = [&]() {
    VmLayers tenants;
    double overhead = 0;
    std::string disk_note;
    const auto m = ServeLayers(*run, overhead_ns, &tenants, &overhead, &disk_note);
    for (const std::string& e : tenants.errors) run->Fail("serve-commit tenants: " + e);
    t.notes.push_back(disk_note);
    if (w == "serve-commit") {
      t.overhead = overhead;
      t.notes.push_back("serve-commit tenants: " + tenants.reconciliation);
      Put(&t, tenants.metrics, "serve-commit");
    }
    Put(&t, m, "serve-commit");
  };

  if (w == "vm-thrash" || w == "vm-locality") {
    vm_probe(w);
    seg_probe();
    serve_probe();
  } else if (w == "seg-churn") {
    seg_probe();
    vm_probe("vm-thrash");
    serve_probe();
  } else {
    serve_probe();
    seg_probe();
  }
  t.metrics["bench.tracing_overhead"] = t.overhead;
  t.source["bench.tracing_overhead"] = w;
  return t;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload vm-thrash|vm-locality|seg-churn|serve-commit --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--rounds N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      run.traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      run.work_dir = value;
    } else if (flag == "--rounds") {
      run.fixed_rounds = std::atoi(value);
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || run.work_dir.empty() ||
      (run.workload != "vm-thrash" && run.workload != "vm-locality" &&
       run.workload != "seg-churn" && run.workload != "serve-commit")) {
    return Usage(argv[0]);
  }
  std::filesystem::create_directories(run.work_dir);

  if (run.workload == "serve-commit") {
    RunServeWorkload(&run);
  } else if (run.workload == "seg-churn") {
    RunSegWorkload(&run);
  } else {
    RunVmWorkload(&run);
  }

  JsonObject out;
  out.Str("workload", run.workload).Int("seed", run.seed).Bool("traced", run.traced);
  out.Obj("host", JsonObject()
                      .Int("nproc", std::thread::hardware_concurrency())
                      .Str("compiler", PERFBENCH_COMPILER)
                      .Str("build_type", PERFBENCH_BUILD_TYPE)
                      .Str("work_dir", run.work_dir));
  if (run.traced) {
    const Traced t = RunTraced(&run);
    JsonObject metrics, source;
    for (const auto& [k, v] : t.metrics) metrics.Num(k, v);
    for (const auto& [k, v] : t.source) source.Str(k, v);
    out.Obj("layers", metrics).Obj("layer_source", source).Strs("notes", t.notes);
    run.attempted = std::max<std::uint64_t>(run.attempted, 1);
  } else {
    std::vector<JsonObject> stats;
    for (const SimStats& s : run.round_stats) stats.push_back(StatsJson(s));
    out.Nums("setup_s", run.setup_s)
        .Nums("refs_per_s", run.refs_per_s)
        .Nums("latency_ms", run.latency_ms)
        .Int("unit_refs", run.unit_refs)
        .Objs("round_stats", stats)
        .Num("peak_rss_mb", PeakRssMb())
        .Nums("commit_window_s", run.commit_window_s)
        .Nums("commit_fs_s", run.commit_fs_s)
        .Obj("checks", run.checks);
    for (std::size_t i = 1; i < run.round_stats.size(); ++i) {
      if (run.round_stats[i] != run.round_stats[0]) {
        run.Fail("round " + std::to_string(i) + " simulated statistics differ from round 0");
      }
    }
  }
  out.Int("attempted", run.attempted).Int("failed", run.failed).Strs("errors", run.errors);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
