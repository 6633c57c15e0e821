#!/usr/bin/env bash
# Regenerates the quick bench results and diffs their deterministic fields
# against the committed references (BENCH_*.quick.json).
#
# The simulator is a pure function of its seeds, so fault counts, wait
# cycles, and space-time products must be bit-identical on every machine;
# only wall-clock fields (seconds, refs_per_sec, speedup) vary and are
# stripped before the diff.  CI runs this to catch silent behaviour drift
# that the unit suites are too narrow to see.
#
#   scripts/diff_bench.sh          # build, run --quick, diff
#   scripts/diff_bench.sh --regen  # rewrite the committed references
set -euo pipefail

cd "$(dirname "$0")/.."

strip_timing() {
  # Drops machine-dependent fields; everything left must be deterministic.
  # (strip_timing.py handles a timing key at any position in the object,
  # which the old field-order-sensitive sed pipeline did not.)
  python3 scripts/strip_timing.py "$1"
}

cmake -B build -S . > /dev/null
cmake --build build -j --target bench_throughput bench_degradation bench_overload \
  bench_alloc bench_resume bench_concurrent bench_parallel > /dev/null

mkdir -p build/bench_diff
./build/bench/bench_throughput --quick --out build/bench_diff/throughput.json > /dev/null
./build/bench/bench_degradation --quick --out build/bench_diff/degradation.json > /dev/null
./build/bench/bench_overload --quick --out build/bench_diff/overload.json > /dev/null
# bench_alloc runs 2-wide here on purpose: its committed reference was
# generated at --jobs 1, so this diff also proves the grid is byte-identical
# across sweep widths.
./build/bench/bench_alloc --quick --jobs 2 --out build/bench_diff/alloc.json > /dev/null
# bench_resume exits non-zero if a checkpointed VM fails to restore to the
# identical bytes or diverges when stepped past the restore point.
./build/bench/bench_resume --quick --out build/bench_diff/resume.json > /dev/null
# bench_concurrent exits non-zero if any lane width diverges from the serial
# bytes; its quick lane list {1,2,4} is fixed
# so the stripped output is a cross-machine value-diff reference.
./build/bench/bench_concurrent --quick --out build/bench_diff/concurrent.json > /dev/null
./build/bench/bench_parallel --quick --out build/bench_diff/parallel.json > /dev/null

if [[ "${1:-}" == "--regen" ]]; then
  strip_timing build/bench_diff/throughput.json > BENCH_throughput.quick.json
  strip_timing build/bench_diff/degradation.json > BENCH_degradation.quick.json
  strip_timing build/bench_diff/overload.json > BENCH_overload.quick.json
  strip_timing build/bench_diff/alloc.json > BENCH_alloc.quick.json
  strip_timing build/bench_diff/resume.json > BENCH_resume.quick.json
  strip_timing build/bench_diff/concurrent.json > BENCH_concurrent.quick.json
  echo "rewrote BENCH_{throughput,degradation,overload,alloc,resume,concurrent}.quick.json"
  exit 0
fi

status=0
for name in throughput degradation overload alloc resume concurrent; do
  strip_timing "build/bench_diff/${name}.json" > "build/bench_diff/${name}.stripped.json"
  if ! diff -u "BENCH_${name}.quick.json" "build/bench_diff/${name}.stripped.json"; then
    echo "bench_${name}: deterministic results drifted from BENCH_${name}.quick.json" >&2
    echo "(if intentional, refresh with scripts/diff_bench.sh --regen)" >&2
    status=1
  fi
done

# The committed FULL curves (BENCH_parallel.json, BENCH_concurrent.json) are
# machine-dependent down to their row counts — the worker/lane lists include
# the recording host's hardware width — so their values cannot be diffed on
# an arbitrary host.  Their SCHEMA can: compare the JSON skeleton of the
# committed file against a fresh quick run of the same writer, so a bench
# change that reshapes the output without refreshing the committed full
# curve fails here even on a 1-core CI container.
for name in parallel concurrent; do
  committed="BENCH_${name}.json"
  python3 scripts/strip_timing.py --structure "$committed" > "build/bench_diff/${name}.committed.skel"
  python3 scripts/strip_timing.py --structure "build/bench_diff/${name}.json" > "build/bench_diff/${name}.fresh.skel"
  if ! diff -u "build/bench_diff/${name}.committed.skel" "build/bench_diff/${name}.fresh.skel"; then
    echo "bench_${name}: ${committed} no longer matches the writer's schema" >&2
    echo "(regenerate the full curve: ./build/bench/bench_${name} --out ${committed})" >&2
    status=1
  fi
done
exit $status
