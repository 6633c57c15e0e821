#!/usr/bin/env bash
# Tier-1 verification plus quick runs of the gated and diffed benches.
#
#   scripts/check.sh              # configure, build, ctest by label, benches
#   DSA_SANITIZE=address scripts/check.sh   # same, under ASan
#
# ctest runs as eight labelled passes (unit, golden, paper — the paper benches'
# and examples' stdout against tests/golden/paper/ — property, soak, resume,
# faultpoint — the durable-IO fault sweep — and stress, which reruns the
# concurrent suites under --gtest_repeat with rotating seeds) so a failure
# names the class of breakage immediately;
# --no-tests=error turns a label with zero registered tests into a failure
# instead of a silent green pass.  The quick bench outputs land in
# build/ — the committed BENCH_*.json files at the repo root are full-run
# references and are only rewritten deliberately.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE_ARGS=()
if [[ -n "${DSA_SANITIZE:-}" ]]; then
  SANITIZE_ARGS+=("-DDSA_SANITIZE=${DSA_SANITIZE}")
fi

cmake -B build -S . "${SANITIZE_ARGS[@]}"
cmake --build build -j
for label in unit golden paper property soak resume faultpoint stress; do
  echo "== ctest -L ${label}"
  # Note -j needs an explicit count: a bare `-j` makes ctest swallow the
  # following -L flag and run the whole suite unfiltered.
  (cd build && ctest --output-on-failure --no-tests=error -j "$(nproc)" -L "${label}")
done
# bench_throughput has no gate: it reports whole-simulator refs/s, and
# scripts/diff_bench.sh diffs its fault counts.
./build/bench/bench_throughput --quick --out build/BENCH_throughput.quick.json
./build/bench/bench_degradation --quick --out build/BENCH_degradation.quick.json
# bench_overload exits non-zero if the thrashing cliff disappears or the
# adaptive controller stops holding utilisation past it.
./build/bench/bench_overload --quick --out build/BENCH_overload.quick.json
# bench_parallel exits non-zero if any worker count perturbs the sweep
# results (the ISSUE's bit-reproducibility contract); its speedup gate only
# engages on >= 4 hardware threads and in full (non-quick) runs.
(cd build && ./bench/bench_parallel --quick)
# bench_concurrent exits non-zero if any lane width of the multi-lane
# simulator perturbs the output bytes; like bench_parallel, its speedup gate
# engages only on >= 4 hardware threads in full runs.
(cd build && ./bench/bench_concurrent --quick)
# bench_alloc exits non-zero if segregated-fit stops beating best-fit on
# mean allocation cycles at equal-or-better external fragmentation on the
# zipf/phase traces.
./build/bench/bench_alloc --quick --out build/BENCH_alloc.quick.json
# bench_resume exits non-zero if checkpoint restore stops being
# byte-identical or the restored VM diverges when stepped onward.
./build/bench/bench_resume --quick --out build/BENCH_resume.quick.json
