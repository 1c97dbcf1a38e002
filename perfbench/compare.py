#!/usr/bin/env python3
"""Compare two result files written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Result files are written to .perfbench_out/<workload>-seed<N>-trace<T>.json.
Results from different kernel backends are never compared: a compiled
kernel on one machine and the pure-Python kernel on another would read
as a change in hdeform.  Neither are different workloads, modes or
input sizes.  Exit code 2 means the comparison was refused.
"""

import json
import sys

MUST_MATCH = ("kernel_backend", "workload", "trace", "size")


def compare(base, new):
    """Rows (metric, unit, base value, new value); raises ValueError when
    the two result sets must not be compared."""
    for key in MUST_MATCH:
        if base["stamp"][key] != new["stamp"][key]:
            raise ValueError(f"refusing to compare: {key} differs "
                             f"({base['stamp'][key]!r} vs {new['stamp'][key]!r})")
    rows = []
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is not None:
            rows.append((name, b["unit"], b["value"], n["value"]))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        base = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    try:
        rows = compare(base, new)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, unit, b, n in rows:
        change = f"{(n - b) / b:+.1%}" if b else "-"
        print(f"{name:34s} {b:14.6g} {n:14.6g} {change:>9s} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
