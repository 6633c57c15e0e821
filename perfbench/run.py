#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source, runs one workload and
prints every metric by name with its unit.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record --workload NAME --seeds 1-64

Workloads: vm-thrash, vm-locality, seg-churn, serve-commit (see
BENCHMARK.json for why each was chosen and perfbench/METRICS.md for what each
metric should move).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are a human-readable
summary and a "raw:" line holding every raw sample, so medians and quartiles
can be recomputed from the output alone.

Correctness: every round of a run must produce identical simulated
statistics, the harness's independent models must agree (an LRU model for the
paged VM workloads, standalone VMs for the service), and for seeds recorded
in perfbench/expected.json the statistics must equal the recorded ones.

--record runs each listed seed once and stores its simulated statistics in
perfbench/expected.json.

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
current directory, as does the harness's scratch directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORKLOADS = ("vm-thrash", "vm-locality", "seg-churn", "serve-commit")
HARNESS_TIMEOUT_S = 170



def metric_units(kind):
    """(name, unit) of every metric of `kind` ("end_to_end" or "per_layer"),
    in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return tuple((m["name"], m["unit"]) for m in json.load(f)[kind])


LATENCY_UNIT = {
    "vm-thrash": "one 65536-reference slice",
    "vm-locality": "one 65536-reference slice",
    "seg-churn": "one SegmentedVm::Run of a 20000-reference chunk",
    "serve-commit": "one checkpoint cut, first event append to MANIFEST commit",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def build_root():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to the benchmark (src/ is missing)")
        return None
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return None
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_harness")


def run_harness(harness, workload, seed, seconds, trace, rounds=None):
    work = os.path.relpath(os.path.join(build_root(), "work-%d" % os.getpid()))
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: harness exited with %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_fingerprint():
    """SHA-256 over the library sources, so a result names the code it measured
    even when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def check(raw, workload, seed):
    """Returns (correct, problems, note) for an untraced run."""
    problems = list(raw["errors"])
    rounds = raw["round_stats"]
    if not rounds:
        problems.append("no round completed")
    recorded = load_expected().get(workload, {}).get(str(seed))
    if recorded is None:
        note = "no recorded statistics for this seed; rounds and reference models checked"
    else:
        note = "matches the statistics recorded for seed %d" % seed
        for i, stats in enumerate(rounds):
            if stats != recorded:
                problems.append("round %d simulated statistics differ from expected.json: %s"
                                % (i, {k: (stats.get(k), v) for k, v in recorded.items()
                                       if stats.get(k) != v}))
    return not problems, problems, note


def best_unit_ms(raw, problems):
    """Fastest time of each latency unit over the run's rounds.

    Every round repeats the same deterministic work, so unit i of one round is
    the same work as unit i of every other round.  Host interference on a
    shared machine only ever adds time, so the fastest of a unit's repeats is
    the steadiest estimate of what the program itself costs."""
    lat, rounds = raw["latency_ms"], len(raw["refs_per_s"])
    if rounds == 0 or not lat or len(lat) % rounds:
        problems.append("%d latency samples do not split into %d equal rounds"
                        % (len(lat), rounds))
        return lat or [float("nan")]
    per = len(lat) // rounds
    return [min(lat[r * per + i] for r in range(rounds)) for i in range(per)]


def report_untraced(raw, workload, seed, host):
    end_to_end = metric_units("end_to_end")
    correct, problems, note = check(raw, workload, seed)
    best = best_unit_ms(raw, problems)
    correct = not problems
    attempted = max(1, raw["attempted"])
    failed = raw["failed"] if correct else attempted
    if raw["unit_refs"]:
        # The units cover the round's references: cost each at its fastest.
        refs_per_s = raw["unit_refs"] * len(best) / (sum(best) / 1e3)
    else:
        refs_per_s = max(raw["refs_per_s"] or [float("nan")])
    metrics = {
        "refs_per_s": refs_per_s,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_ms_p50": percentile(best, 50),
        "latency_ms_p90": percentile(best, 90),
    }
    print("perfbench %s seed %d: %d rounds, %d setups, %d latency units per round (%s)"
          % (workload, seed, len(raw["refs_per_s"]), len(raw["setup_s"]), len(best),
             LATENCY_UNIT[workload]))
    print("  refs_per_s and the latencies take each unit's fastest repeat"
          " (median round rate: %.6g 1/s)" % statistics.median(raw["refs_per_s"] or [float("nan")]))
    print("host: " + json.dumps(host, sort_keys=True))
    for name, unit in end_to_end:
        print("  %-16s %16.6f %s" % (name, metrics[name], unit))
    print("  %-16s %16.6f 1  (%d failed of %d attempted)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    if workload == "serve-commit":
        print("  %-16s %16.6f ms" % ("commit_ms_p50", metrics["latency_ms_p50"]))
        print("  %-16s %16.6f ms" % ("commit_ms_p90", metrics["latency_ms_p90"]))
    print("check: " + ("ok, " + note if correct else "FAILED: " + "; ".join(problems)))
    units = dict(end_to_end)
    return correct, attempted, failed, {k: {"value": v, "unit": units[k]}
                                        for k, v in metrics.items()}


def report_traced(raw, workload, seed, host):
    per_layer = metric_units("per_layer")
    problems = list(raw["errors"])
    layers = raw["layers"]
    print("perfbench %s seed %d: traced per-layer run" % (workload, seed))
    print("host: " + json.dumps(host, sort_keys=True))
    for name, unit in per_layer:
        if name in layers:
            print("  %-26s %16.4f %-6s measured on %s"
                  % (name, layers[name], unit, raw["layer_source"][name]))
    for note in raw["notes"]:
        print("reconciliation: " + note if "vm.step_ns" in note else "note: " + note)
    print("tracing overhead (%s): traced refs/s over untraced refs/s = %.4f"
          % (workload, layers.get("bench.tracing_overhead", float("nan"))))
    missing = [n for n, _ in per_layer if n not in layers]
    if missing:
        problems.append("missing layers: " + ", ".join(missing))
    correct = not problems
    if not correct:
        print("check: FAILED: " + "; ".join(problems))
    units = dict(per_layer)
    metrics = {n: {"value": layers[n], "unit": units[n]} for n, _ in per_layer if n in layers}
    attempted = max(1, raw["attempted"])
    return correct, attempted, (0 if correct else attempted), metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(harness, workload, seeds):
    expected = load_expected()
    table = expected.setdefault(workload, {})
    for seed in seeds:
        raw = run_harness(harness, workload, seed, 1, 0, rounds=1)
        if raw is None or raw["errors"]:
            log("perfbench: seed %d not recorded: %s" % (seed, raw and raw["errors"]))
            return 1
        table[str(seed)] = raw["round_stats"][0]
        log("recorded %s seed %d" % (workload, seed))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()

    harness = build()
    if harness is None:
        return 1
    if args.record:
        return record(harness, args.workload, parse_seeds(args.seeds))

    raw = run_harness(harness, args.workload, args.seed, args.seconds, args.trace)
    if raw is None:
        return 1
    host = dict(raw["host"])
    host.update({"git_revision": git_revision(), "source_sha256": source_fingerprint(),
                 "scratch_dir": os.path.relpath(build_root(), os.getcwd()) + "/work-<pid>",
                 "tmpfs": "none: the benchmark writes only inside its checkout"})
    print("raw: " + json.dumps(raw, sort_keys=True))
    if args.trace:
        correct, attempted, failed, metrics = report_traced(raw, args.workload, args.seed, host)
    else:
        correct, attempted, failed, metrics = report_untraced(raw, args.workload, args.seed,
                                                              host)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
