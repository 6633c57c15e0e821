// Lane-scaling curve of the concurrent multi-lane simulator.
//
// Runs a fixed 8-group installation (mixed schedulers, two page sizes, one
// fault-injected group — every group an independent MultiprogrammingSimulator)
// through RunLaneGroups at 1, 2, and 4 lanes, plus the hardware width in full
// mode, and records the wall-clock curve in BENCH_concurrent.json.  Two properties are checked, one hard and one
// hardware-gated (the bench_parallel discipline, one level down):
//
//   identity   every lanes>1 run must produce per-group event JSONL, merged
//              metrics, and merged renamed event streams BYTE-identical to
//              lanes=1 — violation exits non-zero at any lane count;
//   speedup    on a machine with >= 4 hardware threads, the full-length run
//              at 4 lanes must be >= 2x faster than serial.  Skipped in
//              --quick mode and on narrower machines (a 1-core container
//              cannot exhibit parallel speedup; identity still holds).
//
// The quick lane list is fixed at {1, 2, 4} — deliberately host-independent,
// so the stripped BENCH_concurrent.quick.json is a valid value-diff
// reference on any machine (diff_bench.sh).  The full file adds the
// hardware width and is structure-diffed only (strip_timing.py --structure).
//
// Usage: bench_concurrent [--quick] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_meta.h"
#include "src/exec/thread_pool.h"
#include "src/sched/multi_lane.h"
#include "src/trace/synthetic.h"
#include "src/vm/system_builder.h"

namespace {

double Elapsed(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

constexpr std::size_t kGroups = 8;

std::vector<dsa::LaneGroupSpec> BuildGroups(std::size_t job_length) {
  std::vector<dsa::LaneGroupSpec> groups;
  for (std::size_t g = 0; g < kGroups; ++g) {
    dsa::LaneGroupSpec spec;
    spec.label = "group-" + std::to_string(g);
    spec.config.page_words = g % 2 == 0 ? 256 : 128;
    spec.config.core_words = spec.config.page_words * (6 + g % 4);
    spec.config.backing_level = dsa::MakeDrumLevel(
        "drum", 1u << 16, /*word_time=*/2, /*rotational_delay=*/2000);
    spec.config.quantum = 800;
    spec.config.context_switch_cycles = 10;
    spec.config.scheduler = g % 2 == 0 ? dsa::SchedulerKind::kRoundRobin
                                       : dsa::SchedulerKind::kResidencyAware;
    spec.config.load_control.policy = dsa::LoadControlPolicy::kAdaptiveFaultRate;
    spec.config.load_control.window = 20000;
    spec.config.load_control.min_window_references = 32;
    spec.config.load_control.high_fault_rate = 0.05;
    spec.config.load_control.low_fault_rate = 0.02;
    spec.config.load_control.hysteresis = 5000;
    if (g == 3) {
      spec.config.fault_injection.rates = {.transient_transfer = 0.03,
                                           .permanent_slot = 0.005};
      spec.config.fault_injection.seed = 0xbe57u;
    }
    for (std::size_t j = 0; j < 3; ++j) {
      dsa::LoopTraceParams params;
      params.extent = 2048;
      params.body_words = 512;
      params.advance_words = 256;
      params.iterations = 3;
      params.length = job_length;
      params.seed = 0xc0ccu * 1000003 + g * 131 + j;
      std::string name = "g";
      name += std::to_string(g) + "-j" + std::to_string(j);
      spec.jobs.emplace_back(std::move(name), dsa::MakeLoopTrace(params));
    }
    groups.push_back(std::move(spec));
  }
  return groups;
}

// The deterministic residue of one run, reduced to bytes for the identity
// gate: per-group serialized events plus the merged table.
std::string DeterministicBytes(const dsa::MultiLaneOutcome& outcome) {
  std::string bytes;
  for (const dsa::LaneGroupResult& group : outcome.groups) {
    bytes += group.events_jsonl;
  }
  bytes += outcome.merged_metrics_table;
  return bytes;
}

struct LanePoint {
  unsigned lanes{0};
  double seconds{0.0};
  double speedup{1.0};
  bool identical{true};
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_concurrent.json";
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

  const std::size_t job_length = quick ? 2500 : 15000;
  const unsigned hardware = dsa::HardwareJobs();
  // Quick mode keeps the lane list host-independent so the stripped output
  // is a cross-machine value-diff reference; full mode adds the hardware
  // width (and is structure-diffed only).
  std::vector<unsigned> lane_counts = {1, 2, 4};
  if (!quick) {
    lane_counts.push_back(hardware);
  }
  std::sort(lane_counts.begin(), lane_counts.end());
  lane_counts.erase(std::unique(lane_counts.begin(), lane_counts.end()),
                    lane_counts.end());

  const std::vector<dsa::LaneGroupSpec> groups = BuildGroups(job_length);
  std::uint64_t total_refs = 0;
  for (const dsa::LaneGroupSpec& spec : groups) {
    total_refs += spec.jobs.size() * job_length;
  }

  std::printf("== bench_concurrent: multi-lane scaling ==\n");
  std::printf("   groups=%zu job_refs=%zu hardware_concurrency=%u (%s)\n\n", kGroups,
              job_length, hardware, quick ? "quick" : "full");
  std::printf("  %6s %9s %12s %8s %10s\n", "lanes", "seconds", "refs/sec", "speedup",
              "identical");

  std::string serial_bytes;
  std::uint64_t total_cycles = 0;
  std::uint64_t faults = 0;
  std::vector<LanePoint> points;
  bool all_identical = true;
  for (const unsigned lanes : lane_counts) {
    const auto start = std::chrono::steady_clock::now();
    const dsa::MultiLaneOutcome outcome = dsa::RunLaneGroups(groups, lanes);
    LanePoint point;
    point.lanes = lanes;
    point.seconds = Elapsed(start);
    const std::string bytes = DeterministicBytes(outcome);
    if (lanes == 1) {
      serial_bytes = bytes;
      total_cycles = 0;
      faults = 0;
      for (const dsa::LaneGroupResult& group : outcome.groups) {
        total_cycles += group.report.total_cycles;
        faults += group.report.faults;
      }
    }
    point.identical = bytes == serial_bytes;
    all_identical = all_identical && point.identical;
    point.speedup = point.seconds > 0.0 && !points.empty()
                        ? points.front().seconds / point.seconds
                        : 1.0;
    std::printf("  %6u %9.3f %12.0f %8.2f %10s\n", point.lanes, point.seconds,
                point.seconds > 0 ? static_cast<double>(total_refs) / point.seconds : 0.0,
                point.speedup, point.identical ? "yes" : "NO");
    points.push_back(point);
  }

  double speedup_at_4 = 0.0;
  for (const LanePoint& point : points) {
    if (point.lanes == 4) {
      speedup_at_4 = point.speedup;
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_concurrent\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  bench_meta::WriteHostStamp(out, quick);
  // No hardware_concurrency here: the host stamp above records it (and is
  // stripped), so the quick file stays a cross-machine value-diff reference.
  std::fprintf(out, "  \"config\": {\"groups\": %zu, \"job_refs\": %zu},\n",
               kGroups, job_length);
  // Deterministic work summary: byte-stable at every lane width (the
  // identity gate makes these the same numbers lanes=1 produced).
  std::fprintf(out,
               "  \"work\": {\"total_refs\": %llu, \"total_cycles\": %llu, "
               "\"faults\": %llu},\n",
               static_cast<unsigned long long>(total_refs),
               static_cast<unsigned long long>(total_cycles),
               static_cast<unsigned long long>(faults));
  std::fprintf(out, "  \"lanes\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LanePoint& point = points[i];
    std::fprintf(out,
                 "    {\"lanes\": %u, \"seconds\": %.6f, \"refs_per_sec\": %.1f, "
                 "\"speedup\": %.3f, \"identical_to_serial\": %s}%s\n",
                 point.lanes, point.seconds,
                 point.seconds > 0 ? static_cast<double>(total_refs) / point.seconds : 0.0,
                 point.speedup, point.identical ? "true" : "false",
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"summary\": {\"identical_at_every_width\": %s, \"speedup\": %.3f}\n}\n",
               all_identical ? "true" : "false", speedup_at_4);
  std::fclose(out);
  std::printf("\n  wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "multi-lane run diverged from the serial run — determinism broken\n");
    return 1;
  }
  if (!quick && hardware >= 4 && speedup_at_4 < 2.0) {
    std::fprintf(stderr,
                 "speedup at 4 lanes is %.2fx on a %u-wide machine (need >= 2x)\n",
                 speedup_at_4, hardware);
    return 1;
  }
  if (hardware < 4) {
    std::printf("  note: only %u hardware thread(s); speedup gate skipped (identity "
                "still enforced)\n",
                hardware);
  }
  return 0;
}
