#!/usr/bin/env python3
"""Strip machine-dependent wall-clock fields from a bench JSON file.

Usage: strip_timing.py [--structure] FILE   (writes to stdout)

The quick bench outputs are deterministic except for a few timing fields
and one machine-context line: "seconds" and "refs_per_sec" are dropped,
"speedup" is nulled, and the "host" header object (core count, run mode —
written by bench/bench_meta.h) is removed whole.  Everything
left must be bit-identical on every machine, so diff_bench.sh can compare
a fresh run against the committed BENCH_*.quick.json references.

--structure reduces the file to its JSON skeleton instead: every scalar
becomes its type name and every list collapses to the structure of its
first element.  That is the right comparison for the committed FULL curves
(BENCH_parallel.json, BENCH_concurrent.json), whose values and even row
counts are machine-dependent (the lane/worker lists include the hardware
width) — the skeleton pins the schema without pinning the host.

Unlike the sed pipeline this replaces, the removal does not care where in
the object the field sits: a timing key is stripped whether it is followed
by a comma ("seconds" mid-object), preceded by one ("refs_per_sec" at the
end), or stands alone.  Output is byte-identical to the old sed on the
existing reference files.
"""

import json
import re
import sys

# Matches the numeric literals the bench writers emit (printf %g / %.3f),
# including scientific notation; "null" is accepted so re-stripping an
# already-stripped file is a no-op.
_NUM = r"(?:[0-9.eE+-]+|null)"

_DROPPED = ("seconds", "refs_per_sec", "save_seconds", "load_seconds",
            "delta_save_seconds", "delta_load_seconds")
_NULLED = ("speedup",)
# Header objects removed as whole lines (machine context, not results).
_DROPPED_LINES = ("host",)


def strip_timing(text: str) -> str:
    for key in _DROPPED_LINES:
        text = re.sub(rf'^[ \t]*"{key}": \{{[^\n]*\}},?\n', "", text, flags=re.MULTILINE)
    for key in _DROPPED:
        pair = f'"{key}": {_NUM}'
        # Order matters for byte-compatibility with the old sed: consume a
        # trailing comma first, then a leading one, then the bare pair.
        text = re.sub(pair + r", ", "", text)
        text = re.sub(r", " + pair, "", text)
        text = re.sub(pair, "", text)
    for key in _NULLED:
        text = re.sub(f'"{key}": {_NUM}', f'"{key}": null', text)
    return text


def skeleton(value):
    """The structure of a JSON value: scalars -> type names, lists -> the
    structure of their first element (an empty list stays [])."""
    if isinstance(value, dict):
        return {key: skeleton(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [skeleton(value[0])] if value else []
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return "string"


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--structure"]
    structure = len(args) != len(argv) - 1
    if len(args) != 1:
        print(f"usage: {argv[0]} [--structure] FILE", file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as handle:
        text = handle.read()
    if structure:
        json.dump(skeleton(json.loads(text)), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(strip_timing(text))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
