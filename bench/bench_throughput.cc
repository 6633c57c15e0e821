// Reference-throughput harness: how many simulated references per second
// the engine sustains.  A large synthetic trace is replayed through a
// complete `PagedLinearVm` (translate + pager + replacement + timing model)
// on the 64Ki-frame LRU configuration, for an eviction-heavy random
// workload and a locality-heavy Zipf workload.  The fault counts are
// deterministic and diffed against BENCH_throughput.quick.json.
//
// Results are emitted human-readably on stdout and machine-readably as JSON
// (default BENCH_throughput.json in the working directory — run from the
// repo root so future PRs accumulate a perf trajectory).
//
// Usage: bench_throughput [--quick] [--out PATH]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_meta.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_vm.h"

namespace {

// The 64Ki-frame LRU configuration the acceptance target names.
constexpr dsa::WordCount kPageWords = 64;
constexpr std::size_t kFrames = 64 * 1024;
constexpr int kAddressBits = 24;  // 262,144 pages: a 4x-overcommitted core

struct Measurement {
  std::string label;
  std::uint64_t references{0};
  std::uint64_t faults{0};
  double seconds{0.0};
  double RefsPerSec() const { return seconds > 0 ? references / seconds : 0.0; }
};

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

dsa::PagedVmConfig SystemConfig() {
  dsa::PagedVmConfig config;
  config.label = "throughput-64Ki-lru";
  config.address_bits = kAddressBits;
  config.page_words = kPageWords;
  config.core_words = kFrames * kPageWords;
  config.replacement = dsa::ReplacementStrategyKind::kLru;
  config.fetch = dsa::FetchStrategyKind::kDemand;
  return config;
}

Measurement RunSystem(const std::string& label, const dsa::ReferenceTrace& trace) {
  dsa::PagedLinearVm vm(SystemConfig());
  const auto start = std::chrono::steady_clock::now();
  const dsa::VmReport report = vm.Run(trace);
  Measurement m;
  m.label = label;
  m.references = report.references;
  m.faults = report.faults;
  m.seconds = Elapsed(start);
  return m;
}

void PrintMeasurement(const Measurement& m) {
  std::printf("  %-28s %10llu refs  %9llu faults  %8.3f s  %12.0f refs/s\n", m.label.c_str(),
              static_cast<unsigned long long>(m.references),
              static_cast<unsigned long long>(m.faults), m.seconds, m.RefsPerSec());
}

void WriteJsonMeasurement(std::FILE* out, const char* key, const Measurement& m,
                          bool trailing_comma) {
  std::fprintf(out,
               "    \"%s\": {\"references\": %llu, \"faults\": %llu, \"seconds\": %.6f, "
               "\"refs_per_sec\": %.1f}%s\n",
               key, static_cast<unsigned long long>(m.references),
               static_cast<unsigned long long>(m.faults), m.seconds, m.RefsPerSec(),
               trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::size_t system_refs = quick ? 200000 : 2000000;

  std::printf("== bench_throughput: 64Ki-frame LRU configuration ==\n");
  std::printf("   frames=%zu page_words=%llu address_bits=%d (%s)\n\n", kFrames,
              static_cast<unsigned long long>(kPageWords), kAddressBits,
              quick ? "quick" : "full");

  // --- full-system replays --------------------------------------------------
  dsa::RandomTraceParams random_params;
  random_params.extent = dsa::WordCount{1} << kAddressBits;
  random_params.length = system_refs;
  random_params.seed = 41;
  const dsa::ReferenceTrace random_trace = MakeRandomTrace(random_params);

  dsa::ZipfTraceParams zipf_params;
  zipf_params.extent = dsa::WordCount{1} << kAddressBits;
  zipf_params.length = system_refs;
  zipf_params.seed = 42;
  const dsa::ReferenceTrace zipf_trace = MakeZipfTrace(zipf_params);

  std::printf("full vm::System replay:\n");
  const Measurement sys_random = RunSystem("system/uniform-random", random_trace);
  PrintMeasurement(sys_random);
  const Measurement sys_zipf = RunSystem("system/zipf-locality", zipf_trace);
  PrintMeasurement(sys_zipf);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_throughput\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  bench_meta::WriteHostStamp(out, quick);
  std::fprintf(out,
               "  \"config\": {\"frames\": %zu, \"page_words\": %llu, \"address_bits\": %d, "
               "\"replacement\": \"lru\", \"fetch\": \"demand\"},\n",
               kFrames, static_cast<unsigned long long>(kPageWords), kAddressBits);
  std::fprintf(out, "  \"system\": {\n");
  WriteJsonMeasurement(out, "uniform_random", sys_random, true);
  WriteJsonMeasurement(out, "zipf_locality", sys_zipf, false);
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}
