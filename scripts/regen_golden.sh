#!/usr/bin/env bash
# Regenerates the golden event captures under tests/golden/ from the run
# definitions in tests/golden_runs.h, and the paper outputs under
# tests/golden/paper/: each <binary>.txt there is rewritten with the stdout of
# build/bench/<binary> (names starting bench_) or build/examples/<binary>.
#
# Run this after an intentional engine-behaviour change, then review the
# JSONL diff like any other code change — the byte comparison in
# test_golden_traces is only as trustworthy as the review of what gets
# regenerated.  gen_golden refuses to write a stream the replay verifier
# rejects.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . > /dev/null
cmake --build build -j
./build/tests/gen_golden tests/golden
for golden in tests/golden/paper/*.txt; do
  program="$(basename "${golden}" .txt)"
  case "${program}" in
    bench_*) ./build/bench/"${program}" > "${golden}" ;;
    *) ./build/examples/"${program}" > "${golden}" ;;
  esac
done
git --no-pager diff --stat -- tests/golden || true
