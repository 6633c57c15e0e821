#!/usr/bin/env bash
# Lists every dsa:: function compiled from src/ that no program outside the
# tests links: the bench/ and examples/ binaries and perfbench's harness.
#
# Builds those programs unoptimised with one section per function and lets
# the linker drop every section nothing reaches (-Wl,--gc-sections), then
# prints the functions defined in the src/ library archives that appear in
# none of the binaries.  A function listed here is used only by tests, or by
# nothing.  This is a report, not a gate: it always exits 0 once the build
# succeeds.
#
#   scripts/unlinked_symbols.sh              # build in a fresh temporary dir
#   scripts/unlinked_symbols.sh <build-dir>  # build (or rebuild) there
#
# Set JOBS to bound the parallel build (default 2).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
jobs="${JOBS:-2}"
flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

programs=$(sed -n 's/^dsa_\(bench\|example\)(\([A-Za-z0-9_]*\)).*/\2/p' \
  "$root/bench/CMakeLists.txt" "$root/examples/CMakeLists.txt")

cmake -S "$root" -B "$out/main" "${flags[@]}" > /dev/null
# shellcheck disable=SC2086  # one target per word
cmake --build "$out/main" -j "$jobs" --target $programs > /dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" > /dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench_harness > /dev/null

# Defined text symbols (global, weak or file-local) whose mangled name is
# nested in namespace dsa (so not, say, a std:: template instantiated on a
# dsa:: type), by mangled name.
functions() {
  nm --defined-only "$@" 2> /dev/null |
    sed -n 's/^[0-9a-f]* [TtWw] \(_ZN[KVRO]*3dsa.*\)$/\1/p' | sort -u
}

binaries=()
for p in $programs; do
  binaries+=("$(find "$out/main" -type f -name "$p" -perm -u+x | head -n 1)")
done
binaries+=("$out/perfbench/perfbench_harness")

functions $(find "$out/main/src" -name 'libdsa*.a') > "$out/defined.txt"
functions "${binaries[@]}" > "$out/linked.txt"
# Compared by mangled name, listed once per demangled name (a constructor's
# complete and base variants are one line).
comm -23 "$out/defined.txt" "$out/linked.txt" | c++filt | sort -u > "$out/unlinked.txt"

cat "$out/unlinked.txt"
defined=$(c++filt < "$out/defined.txt" | sort -u | wc -l)
echo "unlinked: $(wc -l < "$out/unlinked.txt") of $defined dsa:: functions in src/" \
  "(${#binaries[@]} programs)" >&2
