// dsa_sim — command-line driver for the storage allocation simulator.
//
// Reads a reference trace (the text format of src/trace/trace_io.h) from a
// file or generates a synthetic one, builds the system described by the
// flags through the SystemBuilder, runs the trace, and prints the report.
//
// Usage:
//   dsa_sim [options]
//     --trace FILE            read a trace file (default: synthetic working-set)
//     --gen KIND              synthetic workload: working-set|loop|sequential|random|zipf
//     --name-space KIND       linear|linseg|symseg            (default linear)
//     --unit KIND             pages|blocks|mixed              (default pages)
//     --advice                accept predictive directives
//     --core WORDS            working storage size            (default 16384)
//     --page WORDS            page size                       (default 512)
//     --segment WORDS         max/workload segment size       (default 512)
//     --replacement KIND      fifo|lru|random|clock|atlas|m44|ws (default lru)
//     --fetch KIND            demand|prefetch|advised         (default demand)
//     --tlb N                 associative memory entries      (default 8)
//     --drum-latency CYCLES   backing start-up latency        (default 6000)
//     --dump-trace FILE       write the workload out in trace format and exit
//     --trace=FILE            capture the run's event stream as JSONL (note the
//                             '=': the two-token form reads a reference trace),
//                             re-verify it, and report the verifier's verdict
//     --batch DIR             multi-tenant batch: run every trace file in DIR
//                             (sorted by name) through its own instance of the
//                             configured system, sharded --jobs wide, and print
//                             per-tenant reports in name order plus a merged
//                             aggregate (order-independent registry merge).
//                             A malformed file is skipped and reported; exit
//                             code 3 distinguishes "some cells rejected" from
//                             0 "all cells ran"
//     --jobs N                worker count for --batch (default: DSA_JOBS env,
//                             else 1; 0 or 'hw' = hardware width).  Results
//                             are byte-identical at any worker count.
//     --serve SPOOL           crash-consistent service mode: admit every trace
//                             file in SPOOL (rescanned between rounds) as a
//                             tenant of a resident multi-tenant loop with
//                             periodic checkpoints; on restart the loop
//                             resumes from the last committed checkpoint and
//                             produces byte-identical outputs.  Exit code 3:
//                             some tenants rejected
//     --out DIR               service outputs (per-tenant report + event
//                             JSONL, SERVICE.txt); default SPOOL.out
//     --checkpoint DIR        checkpoint store directory; default SPOOL.ckpt
//     --checkpoint-every N    simulated cycles between checkpoint commits
//                             (default 200000; the word 'completions' commits
//                             only at tenant completions — 0 is rejected)
//     --checkpoint-full-every N
//                             every Nth commit is a full cut; the commits
//                             between are incremental deltas that re-seal
//                             only the state sections whose content changed
//                             (default 1 = every commit full).  Outputs are
//                             byte-identical at any value
//     --max-active N          cross-tenant concurrency cap (default 0 = all)
//     --drain                 serve only what is spooled at startup (no
//                             rescans), then exit
//     --crash-after N         abandon the service (exit 137, no flush) after
//                             N checkpoint commits — the deterministic kill
//                             point scripts/soak_resume.sh drives
//     --lanes N               scheduler lanes for --serve: step the active
//                             tenants concurrently on N threads ('hw' =
//                             hardware width; default 1; 0 is rejected as
//                             ambiguous).  Outputs are
//                             byte-identical at any lane count
//     --io-fault-at K         durable-IO fault injection: fail the K-th file
//                             operation (1-based) of this process.  Applies
//                             to --serve and --batch.  Exit 137 when the
//                             injected fault was a crash (the loop halted)
//     --io-fault-len N        fault window length in ops (default 1; 0 =
//                             persistent — every op from K on fails)
//     --io-fault-err KIND     eio|enospc — the errno injected (default eio)
//     --io-fault-crash        the K-th op is a simulated crash: it and every
//                             later op fail fatally, like SIGKILL mid-write
//     --io-fault-torn N       the K-th op tears: an append/atomic-write
//                             persists only its first N bytes, then halts
//     --io-fault-rate P       also fail each op with probability P (0..1),
//                             deterministically from --io-fault-seed
//     --io-fault-seed S       seed for --io-fault-rate draws (default 0)
//     --io-fault-path SUBSTR  only ops whose path contains SUBSTR fault
//
// Examples:
//   dsa_sim --name-space symseg --unit blocks --replacement clock
//   dsa_sim --gen loop --replacement atlas --core 8192
//   dsa_sim --dump-trace /tmp/t.trace && dsa_sim --trace /tmp/t.trace
//   dsa_sim --trace=/tmp/events.jsonl
//   dsa_sim --batch /tmp/tenants --jobs 0 --trace=/tmp/batch-events
//   dsa_sim --serve /tmp/spool --out /tmp/spool.out --checkpoint-every 50000

#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/fsio.h"
#include "src/exec/thread_pool.h"
#include "src/obs/export.h"
#include "src/obs/tracer.h"
#include "src/obs/verifier.h"
#include "src/obs/vm_metrics.h"
#include "src/serve/batch.h"
#include "src/serve/service.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"
#include "src/vm/system_builder.h"

namespace {

[[noreturn]] void Usage(const char* argv0, const char* complaint) {
  std::fprintf(stderr, "dsa_sim: %s\n(see the header comment of %s.cpp for usage)\n",
               complaint, argv0);
  std::exit(2);
}

[[noreturn]] void Usage(const char* argv0, const std::string& complaint) {
  Usage(argv0, complaint.c_str());
}

// Checked numeric parsing: trailing garbage, a leading sign, an empty value,
// and out-of-range magnitudes are usage errors, never silent zeros or wraps
// ("--lanes banana" and "--core 99999999999999999999999" both used to slip
// through strtoul unnoticed).
std::uint64_t ParseU64(const char* argv0, const std::string& flag, const std::string& text) {
  if (text.empty() || text[0] == '-' || text[0] == '+' ||
      std::isspace(static_cast<unsigned char>(text[0]))) {
    Usage(argv0, flag + " wants a plain non-negative integer, got '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE) {
    Usage(argv0, flag + " value out of range: " + text);
  }
  if (end == text.c_str() || *end != '\0') {
    Usage(argv0, flag + " wants an integer, got '" + text + "'");
  }
  return value;
}

double ParseDouble(const char* argv0, const std::string& flag, const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    Usage(argv0, flag + " wants a number, got '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE) {
    Usage(argv0, flag + " value out of range: " + text);
  }
  if (end == text.c_str() || *end != '\0') {
    Usage(argv0, flag + " wants a number, got '" + text + "'");
  }
  return value;
}

dsa::ReferenceTrace GenerateWorkload(const std::string& kind) {
  if (kind == "working-set") {
    dsa::WorkingSetTraceParams params;
    params.extent = 1 << 16;
    params.region_words = 256;
    params.regions_per_phase = 16;
    params.phases = 6;
    params.phase_length = 10000;
    return MakeWorkingSetTrace(params);
  }
  if (kind == "loop") {
    dsa::LoopTraceParams params;
    params.extent = 1 << 16;
    params.body_words = 4096;
    params.advance_words = 1024;
    params.iterations = 6;
    params.length = 60000;
    return MakeLoopTrace(params);
  }
  if (kind == "sequential") {
    dsa::SequentialTraceParams params;
    params.extent = 1 << 16;
    params.length = 60000;
    return MakeSequentialTrace(params);
  }
  if (kind == "random") {
    dsa::RandomTraceParams params;
    params.extent = 1 << 16;
    params.length = 60000;
    return MakeRandomTrace(params);
  }
  if (kind == "zipf") {
    dsa::ZipfTraceParams params;
    params.extent = 1 << 16;
    params.length = 60000;
    return MakeZipfTrace(params);
  }
  std::fprintf(stderr, "dsa_sim: unknown --gen kind '%s'\n", kind.c_str());
  std::exit(2);
}

// Runs service mode and prints the outcome summary.  Exit codes: 0 served
// everything, 3 some tenants rejected, 2 environment/config errors, 137
// (after a hard _Exit) when --crash-after abandoned the loop mid-run or an
// injected --io-fault-crash halted the durable-IO layer.
int RunServe(const dsa::SystemSpec& spec, const dsa::ServeConfig& config,
             bool crash_after_set, const dsa::FaultInjectingFs* fault_fs) {
  dsa::ServiceLoop loop(spec, config);
  auto outcome = loop.Run();
  if (!outcome.has_value()) {
    std::fprintf(stderr, "dsa_sim: serve: %s\n", outcome.error().Describe().c_str());
    if (fault_fs != nullptr && fault_fs->halted()) {
      // An injected crash behaves like SIGKILL at that write: no flushing,
      // no destructors, the same 137 the kill matrix expects.
      std::fflush(nullptr);
      std::_Exit(137);
    }
    return 2;
  }
  for (const std::string& line : outcome->quarantined) {
    std::fprintf(stderr, "dsa_sim: serve: quarantined: %s\n", line.c_str());
  }
  for (const std::string& line : outcome->rejected) {
    std::fprintf(stderr, "dsa_sim: serve: rejected: %s\n", line.c_str());
  }
  if (!outcome->finished) {
    // The deterministic kill point: leave the process the way SIGKILL
    // would — no flushing, no destructors — so resume starts from exactly
    // the committed cut.
    std::fflush(nullptr);
    std::_Exit(137);
  }
  std::printf(
      "== serve: %zu completed (%zu resumed), %zu rejected, %llu commits -> %s ==\n",
      outcome->tenants_completed, outcome->tenants_resumed, outcome->tenants_rejected,
      static_cast<unsigned long long>(outcome->commits), config.out_dir.c_str());
  if (outcome->io_retries > 0 || outcome->io_giveups > 0 || outcome->degraded_cycles > 0 ||
      outcome->degraded) {
    std::printf(
        "== serve io: %llu retries, %llu giveups, %llu degraded cycles%s ==\n",
        static_cast<unsigned long long>(outcome->io_retries),
        static_cast<unsigned long long>(outcome->io_giveups),
        static_cast<unsigned long long>(outcome->degraded_cycles),
        outcome->degraded ? ", DEGRADED at exit" : "");
  }
  (void)crash_after_set;
  return outcome->tenants_rejected > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  std::string event_trace_file;
  std::string dump_file;
  std::string batch_dir;
  std::string spool_dir;
  std::string out_dir;
  std::string checkpoint_dir;
  dsa::Cycles checkpoint_every = 200000;
  int checkpoint_full_every = 1;
  std::size_t max_active = 0;
  bool drain = false;
  int crash_after = -1;
  unsigned lanes = 1;
  dsa::FsFaultConfig fault_config;
  dsa::FsFaultWindow fault_window;  // staged; installed if --io-fault-at set
  bool fault_rate_set = false;
  unsigned jobs = dsa::JobsFromEnv(/*fallback=*/1);
  std::string gen_kind = "working-set";
  dsa::SystemSpec spec;
  spec.label = "dsa_sim";
  spec.core_words = 16384;
  spec.page_words = 512;
  spec.max_segment_extent = 512;
  spec.workload_segment_words = 512;
  spec.tlb_entries = 8;
  dsa::Cycles drum_latency = 6000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(argv[0], ("missing value after " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_file = next();
    } else if (arg.rfind("--trace=", 0) == 0) {
      event_trace_file = arg.substr(std::strlen("--trace="));
      if (event_trace_file.empty()) {
        Usage(argv[0], "empty --trace= file name");
      }
    } else if (arg == "--batch") {
      batch_dir = next();
    } else if (arg == "--serve") {
      spool_dir = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--checkpoint") {
      checkpoint_dir = next();
    } else if (arg == "--checkpoint-every") {
      const std::string v = next();
      if (v == "completions") {
        checkpoint_every = 0;
      } else {
        checkpoint_every = ParseU64(argv[0], arg, v);
        if (checkpoint_every == 0) {
          Usage(argv[0],
                "--checkpoint-every 0 would disable the cadence; say "
                "--checkpoint-every completions to commit only at tenant completions");
        }
      }
    } else if (arg == "--checkpoint-full-every") {
      const std::uint64_t v = ParseU64(argv[0], arg, next());
      if (v == 0) {
        Usage(argv[0],
              "--checkpoint-full-every must be >= 1 (1 = every commit is a full cut)");
      }
      if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        Usage(argv[0], "--checkpoint-full-every value out of range");
      }
      checkpoint_full_every = static_cast<int>(v);
    } else if (arg == "--max-active") {
      max_active = ParseU64(argv[0], arg, next());  // 0 = uncapped (documented)
    } else if (arg == "--drain") {
      drain = true;
    } else if (arg == "--crash-after") {
      const std::uint64_t v = ParseU64(argv[0], arg, next());
      if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        Usage(argv[0], "--crash-after value out of range");
      }
      crash_after = static_cast<int>(v);
    } else if (arg == "--lanes") {
      const std::string v = next();
      if (v == "hw") {
        lanes = 0;  // ServiceLoop reads 0 as hardware width
      } else {
        const std::uint64_t n = ParseU64(argv[0], arg, v);
        if (n == 0) {
          Usage(argv[0], "--lanes 0 is ambiguous; say --lanes hw for hardware width");
        }
        if (n > 1024) {
          Usage(argv[0], "--lanes value out of range (max 1024)");
        }
        lanes = static_cast<unsigned>(n);
      }
    } else if (arg == "--io-fault-at") {
      fault_window.first_op = ParseU64(argv[0], arg, next());
      if (fault_window.first_op == 0) {
        Usage(argv[0], "--io-fault-at ops are 1-based; 0 would never fire");
      }
    } else if (arg == "--io-fault-len") {
      fault_window.ops = ParseU64(argv[0], arg, next());  // 0 = persistent (documented)
    } else if (arg == "--io-fault-err") {
      const std::string v = next();
      if (v == "eio") {
        fault_window.err = EIO;
      } else if (v == "enospc") {
        fault_window.err = ENOSPC;
      } else {
        Usage(argv[0], "bad --io-fault-err (want eio|enospc)");
      }
    } else if (arg == "--io-fault-crash") {
      fault_window.crash = true;
    } else if (arg == "--io-fault-torn") {
      fault_window.torn_bytes = ParseU64(argv[0], arg, next());
    } else if (arg == "--io-fault-path") {
      fault_window.path_contains = next();
    } else if (arg == "--io-fault-rate") {
      fault_config.fail_rate = ParseDouble(argv[0], arg, next());
      if (fault_config.fail_rate < 0.0 || fault_config.fail_rate > 1.0) {
        Usage(argv[0], "--io-fault-rate is a probability; it must lie in [0, 1]");
      }
      fault_rate_set = fault_config.fail_rate > 0.0;
    } else if (arg == "--io-fault-seed") {
      fault_config.seed = ParseU64(argv[0], arg, next());
    } else if (arg == "--jobs") {
      const std::string v = next();
      // "--jobs 0 = hardware width" is documented and used in the examples;
      // "hw" is the spelled-out synonym.
      const std::uint64_t n = v == "hw" ? 0 : ParseU64(argv[0], arg, v);
      if (n > 1024) {
        Usage(argv[0], "--jobs value out of range (max 1024)");
      }
      jobs = n == 0 ? dsa::HardwareJobs() : static_cast<unsigned>(n);
    } else if (arg == "--gen") {
      gen_kind = next();
    } else if (arg == "--dump-trace") {
      dump_file = next();
    } else if (arg == "--name-space") {
      const std::string v = next();
      if (v == "linear") {
        spec.characteristics.name_space = dsa::NameSpaceKind::kLinear;
      } else if (v == "linseg") {
        spec.characteristics.name_space = dsa::NameSpaceKind::kLinearlySegmented;
      } else if (v == "symseg") {
        spec.characteristics.name_space = dsa::NameSpaceKind::kSymbolicallySegmented;
      } else {
        Usage(argv[0], "bad --name-space");
      }
    } else if (arg == "--unit") {
      const std::string v = next();
      if (v == "pages") {
        spec.characteristics.unit = dsa::AllocationUnit::kUniformPages;
      } else if (v == "blocks") {
        spec.characteristics.unit = dsa::AllocationUnit::kVariableBlocks;
      } else if (v == "mixed") {
        spec.characteristics.unit = dsa::AllocationUnit::kMixedPages;
      } else {
        Usage(argv[0], "bad --unit");
      }
    } else if (arg == "--advice") {
      spec.characteristics.predictive = dsa::PredictiveInformation::kAccepted;
      spec.characteristics.prediction_source = dsa::PredictionSource::kProgrammer;
    } else if (arg == "--core") {
      spec.core_words = ParseU64(argv[0], arg, next());
      if (spec.core_words == 0) {
        Usage(argv[0], "--core needs at least one word of working storage");
      }
    } else if (arg == "--page") {
      spec.page_words = ParseU64(argv[0], arg, next());
      if (spec.page_words == 0) {
        Usage(argv[0], "--page needs at least one word per page");
      }
    } else if (arg == "--segment") {
      spec.max_segment_extent = ParseU64(argv[0], arg, next());
      if (spec.max_segment_extent == 0) {
        Usage(argv[0], "--segment needs at least one word");
      }
      spec.workload_segment_words = spec.max_segment_extent;
    } else if (arg == "--replacement") {
      const std::string v = next();
      if (v == "fifo") {
        spec.replacement = dsa::ReplacementStrategyKind::kFifo;
      } else if (v == "lru") {
        spec.replacement = dsa::ReplacementStrategyKind::kLru;
      } else if (v == "random") {
        spec.replacement = dsa::ReplacementStrategyKind::kRandom;
      } else if (v == "clock") {
        spec.replacement = dsa::ReplacementStrategyKind::kClock;
      } else if (v == "atlas") {
        spec.replacement = dsa::ReplacementStrategyKind::kAtlasLearning;
      } else if (v == "m44") {
        spec.replacement = dsa::ReplacementStrategyKind::kM44Class;
      } else if (v == "ws") {
        spec.replacement = dsa::ReplacementStrategyKind::kWorkingSet;
      } else {
        Usage(argv[0], "bad --replacement");
      }
    } else if (arg == "--fetch") {
      const std::string v = next();
      if (v == "demand") {
        spec.fetch = dsa::FetchStrategyKind::kDemand;
      } else if (v == "prefetch") {
        spec.fetch = dsa::FetchStrategyKind::kPrefetch;
      } else if (v == "advised") {
        spec.fetch = dsa::FetchStrategyKind::kAdvised;
        spec.characteristics.predictive = dsa::PredictiveInformation::kAccepted;
      } else {
        Usage(argv[0], "bad --fetch");
      }
    } else if (arg == "--tlb") {
      spec.tlb_entries = ParseU64(argv[0], arg, next());  // 0 = no associative memory
    } else if (arg == "--drum-latency") {
      drum_latency = ParseU64(argv[0], arg, next());
    } else {
      Usage(argv[0], ("unknown option " + arg).c_str());
    }
  }
  // Geometry sanity for the paged family (the builder DSA_ASSERTs on a
  // non-power-of-two page; make bad flags a usage error, not an abort).
  if (dsa::SpecIsPagedLinear(spec)) {
    if (!std::has_single_bit(spec.page_words)) {
      Usage(argv[0], "--page must be a power of two for paged configurations");
    }
    if (spec.core_words < spec.page_words) {
      Usage(argv[0], "--core must hold at least one page (--core >= --page)");
    }
  }
  spec.backing_level = dsa::MakeDrumLevel("drum", 1u << 22, /*word_time=*/2, drum_latency);

  // Durable-IO fault injection: stack a FaultInjectingFs over the real
  // filesystem and hand it to whichever mode runs.  Kept alive for the whole
  // process — the service and batch paths only borrow the pointer.
  std::unique_ptr<dsa::FaultInjectingFs> fault_fs;
  if (fault_window.first_op > 0) {
    fault_config.windows.push_back(fault_window);
  }
  if (!fault_config.windows.empty() || fault_rate_set) {
    fault_fs = std::make_unique<dsa::FaultInjectingFs>(&dsa::SystemFs(), fault_config);
  }

  if (!spool_dir.empty()) {
    if (!batch_dir.empty() || !trace_file.empty() || !dump_file.empty()) {
      Usage(argv[0], "--serve is exclusive with --batch / --trace FILE / --dump-trace");
    }
    dsa::ServeConfig serve_config;
    serve_config.spool_dir = spool_dir;
    serve_config.out_dir = out_dir.empty() ? spool_dir + ".out" : out_dir;
    serve_config.checkpoint_dir =
        checkpoint_dir.empty() ? spool_dir + ".ckpt" : checkpoint_dir;
    serve_config.checkpoint_every = checkpoint_every;
    serve_config.checkpoint_full_every = checkpoint_full_every;
    serve_config.load_control.max_active = max_active;
    serve_config.stop_after_commits = crash_after;
    serve_config.rescan_spool = !drain;
    serve_config.lanes = lanes;
    serve_config.fs = fault_fs.get();
    return RunServe(spec, serve_config, crash_after >= 0, fault_fs.get());
  }

  if (!batch_dir.empty()) {
    if (!trace_file.empty() || !dump_file.empty()) {
      Usage(argv[0], "--batch is exclusive with --trace FILE / --dump-trace");
    }
    if (!dsa::SpecIsBuildable(spec)) {
      std::fprintf(stderr,
                   "dsa_sim: a linear name space with variable allocation units has no "
                   "relocation handle; pick --name-space linseg/symseg or --unit pages\n");
      return 2;
    }
    dsa::BatchOptions batch_options;
    batch_options.dir = batch_dir;
    batch_options.jobs = jobs;
    batch_options.event_trace_prefix = event_trace_file;
    batch_options.fs = fault_fs.get();
    return RunBatch(spec, batch_options);
  }

  // Obtain the workload.
  dsa::ReferenceTrace trace;
  if (!trace_file.empty()) {
    std::ifstream in(trace_file);
    if (!in) {
      Usage(argv[0], "cannot open --trace file");
    }
    auto parsed = dsa::ReadReferenceTrace(&in);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "dsa_sim: %s:%zu: %s\n", trace_file.c_str(), parsed.error().line,
                   parsed.error().message.c_str());
      return 2;
    }
    trace = std::move(parsed.value());
  } else {
    trace = GenerateWorkload(gen_kind);
  }

  if (!dump_file.empty()) {
    std::ofstream out(dump_file);
    if (!out) {
      Usage(argv[0], "cannot open --dump-trace file");
    }
    WriteReferenceTrace(trace, &out);
    std::printf("wrote %zu references to %s\n", trace.size(), dump_file.c_str());
    return 0;
  }

  if (!dsa::SpecIsBuildable(spec)) {
    std::fprintf(stderr,
                 "dsa_sim: a linear name space with variable allocation units has no "
                 "relocation handle; pick --name-space linseg/symseg or --unit pages\n");
    return 2;
  }

  // Unbounded retention: the verifier needs the complete stream.
  dsa::EventTracer tracer(/*capacity=*/0);
  if (!event_trace_file.empty()) {
    spec.tracer = &tracer;
  }

  const auto system = dsa::BuildSystem(spec);
  const dsa::VmReport report = system->Run(trace);

  // The report block, rebuilt from the metrics registry (byte-identical to
  // the printf block it replaced; test_metrics_format pins the formatting).
  std::fputs(dsa::RenderVmReport(report, dsa::Describe(system->characteristics()), trace.label)
                 .c_str(),
             stdout);

  if (!event_trace_file.empty()) {
    const std::vector<dsa::TraceEvent> events = tracer.Snapshot();
    std::ofstream out(event_trace_file);
    if (!out) {
      Usage(argv[0], "cannot open --trace= output file");
    }
    dsa::WriteEventsJsonl(events, &out);
    out.close();

    dsa::TraceVerifierConfig verifier_config;
    verifier_config.frame_count = spec.page_words == 0
                                      ? std::nullopt
                                      : std::optional<std::size_t>(static_cast<std::size_t>(
                                            spec.core_words / spec.page_words));
    const dsa::TraceReplayVerifier verifier(verifier_config);
    const std::vector<dsa::TraceViolation> violations = verifier.Verify(events);
    std::printf("event trace      %zu events -> %s (%s)\n", events.size(),
                event_trace_file.c_str(),
                violations.empty() ? "verified" : "VERIFIER VIOLATIONS");
    if (!violations.empty()) {
      std::fputs(dsa::TraceReplayVerifier::Describe(violations).c_str(), stderr);
      return 1;
    }
  }
  return 0;
}
