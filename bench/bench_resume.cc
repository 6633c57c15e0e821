// Checkpoint save/load cost versus simulator state size (EXPERIMENTS.md E15).
//
// Each grid cell builds a PagedLinearVm at a given frame count, steps a
// working-set trace far enough to populate the frame table, allocator,
// binmaps, and metrics with real mid-run state, then measures:
//
//   state_bytes     the full sectioned seal (SealFull, no baseline) at the
//                   mid-run cut (deterministic — part of the committed
//                   reference; growth should track frame count.  The 24-bit
//                   address mapper's page table sets a constant floor, so
//                   the per-frame slope sits on a large base)
//   save_seconds    wall-clock to serialize + seal, best of several reps
//                   (reps after the first take unchanged page-table chunks
//                   from the mapper's chunk cache, as a service's repeated
//                   cuts do)
//   load_seconds    wall-clock to resolve + restore into a fresh instance
//
// On top of the mid-run measurements each cell runs the DELTA curve: a full
// cut at the end of the trace is sealed and digested, the VM re-steps a
// steady-state stretch of trace (the resident working set, so only touched
// page-table chunks and the pager/clock/tally sections go stale), and a
// delta cut is sealed against the digest:
//
//   full_bytes          the end-of-trace full seal, the delta's baseline
//   delta_bytes         delta seal size after the steady-state stretch
//   delta_save_seconds  best-of-reps delta serialize + seal
//   delta_load_seconds  resolve [full, delta] chain + restore a fresh VM
//
// The gate is the property the service mode stands on, checked in every
// cell: the restored VM must RE-SERIALIZE TO THE IDENTICAL BYTES, and
// stepping both instances another stretch of trace must produce identical
// reports.  The delta path gates the same way — a VM restored through the
// [full, delta] chain must re-seal (sectioned, full) byte-identically with
// the stepped original.  Either divergence exits non-zero, so check.sh and
// CI catch a serialization regression even if no unit test names the broken
// field.  Cells at 4096 frames and below additionally gate
// delta_bytes * 5 <= full_bytes (ISSUE 10's compression floor); at 16384
// frames the pager's recency lists — which go stale on every reference —
// dominate the dirty set and the honest ratio is ~3x, so that cell reports
// the ratio without gating it.
//
// Usage: bench_resume [--quick] [--out PATH]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_meta.h"
#include "src/core/snapshot.h"
#include "src/obs/vm_metrics.h"
#include "src/trace/synthetic.h"
#include "src/vm/paged_vm.h"
#include "src/vm/system_builder.h"

namespace {

constexpr dsa::WordCount kPageWords = 64;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

dsa::SystemSpec SpecForFrames(std::size_t frames) {
  dsa::SystemSpec spec;
  spec.label = "bench-resume";
  spec.core_words = static_cast<dsa::WordCount>(frames) * kPageWords;
  spec.page_words = kPageWords;
  spec.tlb_entries = 8;
  // The drum scales with the core it backs, so state_bytes tracks the
  // simulated machine's size instead of a fixed worst-case name space.
  const dsa::WordCount drum_words =
      static_cast<dsa::WordCount>(frames) * kPageWords * 4;
  spec.backing_level = dsa::MakeDrumLevel("drum", drum_words, /*word_time=*/2,
                                          /*rotational_delay=*/500);
  return spec;
}

dsa::ReferenceTrace TraceForFrames(std::size_t frames, std::size_t refs) {
  dsa::WorkingSetTraceParams params;
  // Working set ~1.5x core so replacement stays busy and most frames end up
  // holding a page with real LRU/FIFO list positions to serialize.
  params.extent = static_cast<dsa::WordCount>(frames) * kPageWords * 3 / 2;
  params.region_words = kPageWords;
  params.regions_per_phase = frames / 2 + 1;
  params.phases = 4;
  params.phase_length = refs / 4;
  params.seed = 0xbe7c4;
  return dsa::MakeWorkingSetTrace(params);
}

struct Cell {
  std::size_t frames{0};
  std::size_t refs{0};
  std::size_t state_bytes{0};
  double save_seconds{0};
  double load_seconds{0};
  std::size_t full_bytes{0};
  std::size_t delta_bytes{0};
  double delta_save_seconds{0};
  double delta_load_seconds{0};
  bool delta_identical{false};
  bool gate_ok{false};
};

// The full sectioned seal of `vm`'s current state: a standalone snapshot.
std::string SealFull(const dsa::PagedLinearVm& vm) {
  dsa::SectionedSnapshotWriter w;
  vm.SaveSections(&w);
  return w.SealFull();
}

// Restores `vm` from a checkpoint chain (one full seal, then any deltas);
// reports and returns false on any resolve or load error.
bool Restore(dsa::PagedLinearVm* vm, const std::vector<std::string>& chain,
             std::size_t frames) {
  auto resolved = dsa::ResolveSectionChain(chain);
  if (!resolved.has_value()) {
    std::fprintf(stderr, "bench_resume: chain resolve failed at %zu frames: %s\n",
                 frames, resolved.error().Describe().c_str());
    return false;
  }
  dsa::SectionSource& src = resolved.value();
  vm->LoadSections(&src);
  src.FailIfUnopened();
  if (!src.ok()) {
    std::fprintf(stderr, "bench_resume: restore failed at %zu frames: %s\n",
                 frames, src.error().Describe().c_str());
    return false;
  }
  return true;
}

// The >=5x delta compression gate applies where the page table dominates
// the snapshot; above this the pager's recency lists (stale on every
// reference) dominate the dirty set and the ratio honestly sits near 3x.
constexpr std::size_t kDeltaRatioGateMaxFrames = 4096;

Cell RunCell(std::size_t frames, std::size_t refs, int reps) {
  Cell cell;
  cell.frames = frames;
  cell.refs = refs;

  const dsa::SystemSpec spec = SpecForFrames(frames);
  const dsa::ReferenceTrace trace = TraceForFrames(frames, refs);
  dsa::PagedLinearVm vm(dsa::PagedConfigFromSpec(spec));
  // Step to a mid-run cut, holding back a tail for the continuation check.
  const std::size_t cut = trace.refs.size() * 3 / 4;
  for (std::size_t i = 0; i < cut; ++i) {
    vm.Step(trace.refs[i]);
  }

  // Save cost: best-of-reps, each rep a full serialize + seal.
  std::string sealed;
  double best_save = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = Now();
    sealed = SealFull(vm);
    const double dt = Now() - t0;
    if (rep == 0 || dt < best_save) {
      best_save = dt;
    }
  }
  cell.state_bytes = sealed.size();
  cell.save_seconds = best_save;

  // Load cost: header verification + full restore into a fresh instance.
  const std::vector<std::string> chain{sealed};
  double best_load = 0;
  for (int rep = 0; rep < reps; ++rep) {
    dsa::PagedLinearVm fresh(dsa::PagedConfigFromSpec(spec));
    const double t0 = Now();
    const bool restored_ok = Restore(&fresh, chain, frames);
    const double dt = Now() - t0;
    if (!restored_ok) {
      return cell;
    }
    if (rep == 0 || dt < best_load) {
      best_load = dt;
    }
  }
  cell.load_seconds = best_load;

  // Gate 1: the restored instance re-serializes to the identical bytes.
  dsa::PagedLinearVm restored(dsa::PagedConfigFromSpec(spec));
  if (!Restore(&restored, chain, frames)) {
    return cell;
  }
  if (SealFull(restored) != sealed) {
    std::fprintf(stderr,
                 "bench_resume: GATE: restored state re-serializes "
                 "differently at %zu frames\n",
                 frames);
    return cell;
  }

  // Gate 2: both instances step the trace tail to identical reports.
  for (std::size_t i = cut; i < trace.refs.size(); ++i) {
    vm.Step(trace.refs[i]);
    restored.Step(trace.refs[i]);
  }
  const std::string a =
      RenderVmReport(vm.Snapshot(), Describe(vm.characteristics()), "tail");
  const std::string b = RenderVmReport(restored.Snapshot(),
                                       Describe(restored.characteristics()), "tail");
  if (a != b) {
    std::fprintf(stderr,
                 "bench_resume: GATE: continuation diverged at %zu frames\n",
                 frames);
    return cell;
  }

  // --- Delta curve.  `vm` now sits at the end of the trace; treat that as
  // the full cut, then re-step a steady-state stretch (the tail again — the
  // resident working set, the service's common case between cuts) and seal
  // the change as a delta.
  dsa::SectionedSnapshotWriter full_w;
  vm.SaveSections(&full_w);
  const dsa::SectionBaseline baseline = full_w.Digest();
  const std::string full_sealed = full_w.SealFull();
  cell.full_bytes = full_sealed.size();

  const std::size_t stretch = trace.refs.size() - cut;
  const std::size_t replay_from = trace.refs.size() - stretch;
  for (std::size_t i = replay_from; i < trace.refs.size(); ++i) {
    vm.Step(trace.refs[i]);
  }

  std::string delta_sealed;
  double best_delta_save = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = Now();
    dsa::SectionedSnapshotWriter dw;
    vm.SaveSections(&dw);
    delta_sealed = dw.SealDelta(baseline);
    const double dt = Now() - t0;
    if (rep == 0 || dt < best_delta_save) {
      best_delta_save = dt;
    }
  }
  cell.delta_bytes = delta_sealed.size();
  cell.delta_save_seconds = best_delta_save;

  // Restore through the [full, delta] chain, best-of-reps timing.
  const std::vector<std::string> delta_chain{full_sealed, delta_sealed};
  double best_delta_load = 0;
  for (int rep = 0; rep < reps; ++rep) {
    dsa::PagedLinearVm chained(dsa::PagedConfigFromSpec(spec));
    const double t0 = Now();
    const bool restored_ok = Restore(&chained, delta_chain, frames);
    const double dt = Now() - t0;
    if (!restored_ok) {
      return cell;
    }
    if (rep == 0 || dt < best_delta_load) {
      best_delta_load = dt;
    }
    if (rep + 1 == reps) {
      // Gate 3: the chain-restored VM re-seals (sectioned full) to the
      // identical bytes as the stepped original.
      cell.delta_identical = SealFull(vm) == SealFull(chained);
      if (!cell.delta_identical) {
        std::fprintf(stderr,
                     "bench_resume: GATE: delta-chain restore diverged at "
                     "%zu frames\n",
                     frames);
        return cell;
      }
    }
  }
  cell.delta_load_seconds = best_delta_load;

  // Gate 4: delta commits write >=5x fewer bytes than full cuts in the
  // page-table-dominated regime (see kDeltaRatioGateMaxFrames).
  if (frames <= kDeltaRatioGateMaxFrames &&
      cell.delta_bytes * 5 > cell.full_bytes) {
    std::fprintf(stderr,
                 "bench_resume: GATE: delta/full ratio %.2f below 5x at %zu "
                 "frames (%zu delta vs %zu full bytes)\n",
                 cell.delta_bytes > 0
                     ? static_cast<double>(cell.full_bytes) /
                           static_cast<double>(cell.delta_bytes)
                     : 0.0,
                 frames, cell.delta_bytes, cell.full_bytes);
    return cell;
  }

  cell.gate_ok = true;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* out_path = nullptr;
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

  std::vector<std::size_t> frame_grid = {64, 256, 1024};
  if (!quick) {
    frame_grid.push_back(4096);
    frame_grid.push_back(16384);
  }
  const std::size_t refs = quick ? 20000 : 100000;
  const int reps = quick ? 3 : 7;

  std::vector<Cell> cells;
  bool gate_failed = false;
  for (std::size_t frames : frame_grid) {
    const Cell cell = RunCell(frames, refs, reps);
    if (!cell.gate_ok) {
      gate_failed = true;
    }
    cells.push_back(cell);
  }

  std::FILE* out = out_path ? std::fopen(out_path, "w") : stdout;
  if (!out) {
    std::fprintf(stderr, "bench_resume: cannot open %s\n", out_path);
    return 2;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_resume\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  bench_meta::WriteHostStamp(out, quick);
  std::fprintf(out,
               "  \"config\": {\"page_words\": %llu, \"refs_per_cell\": %zu, "
               "\"reps\": %d},\n",
               static_cast<unsigned long long>(kPageWords), refs, reps);
  std::fprintf(out, "  \"grid\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const double ratio = c.delta_bytes > 0
                             ? static_cast<double>(c.full_bytes) /
                                   static_cast<double>(c.delta_bytes)
                             : 0.0;
    std::fprintf(out,
                 "    {\"frames\": %zu, \"state_bytes\": %zu, "
                 "\"save_seconds\": %.6f, \"load_seconds\": %.6f, "
                 "\"full_bytes\": %zu, \"delta_bytes\": %zu, "
                 "\"delta_ratio\": %.2f, \"delta_save_seconds\": %.6f, "
                 "\"delta_load_seconds\": %.6f, \"delta_identical\": %s, "
                 "\"restore_identical\": %s}%s\n",
                 c.frames, c.state_bytes, c.save_seconds, c.load_seconds,
                 c.full_bytes, c.delta_bytes, ratio, c.delta_save_seconds,
                 c.delta_load_seconds, c.delta_identical ? "true" : "false",
                 c.gate_ok ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"gate\": {\"byte_identical_restore\": %s}\n",
               gate_failed ? "false" : "true");
  std::fprintf(out, "}\n");
  if (out != stdout) {
    std::fclose(out);
  }
  if (gate_failed) {
    std::fprintf(stderr, "bench_resume: restore gate FAILED\n");
    return 1;
  }
  return 0;
}
