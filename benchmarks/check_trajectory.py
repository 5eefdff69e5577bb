#!/usr/bin/env python
"""Check committed BENCH_*.json perf trajectories against their floors.

Every bench family commits a trajectory file at the repo root
(``BENCH_obs.json``, ``BENCH_coldstart.json``, ...) regenerated at full
scale before each PR; CI re-validates the committed numbers against the
acceptance floors so the perf story cannot silently regress or rot.
This script is that validation, consolidated: one table of per-bench
checks instead of one inline heredoc per CI job.

Usage::

    python benchmarks/check_trajectory.py BENCH_obs.json [BENCH_coldstart.json ...]

Exit status 0 when every entry of every file passes, 1 otherwise.

A check is ``(field, op, limit)``; a null or missing field fails it.
Unknown bench names fail loudly — a new bench family must register its
floors here to ride the consolidated checker.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path

#: bench name -> [(field, op, limit), ...]
CHECKS: dict[str, list[tuple]] = {
    "obs": [
        ("overhead_ratio", "<", 1.05),
        ("coverage", ">=", 0.90),
    ],
    "coldstart": [
        ("warm_first_superstep_seconds", "<", 1.0),
        ("warm_speedup_vs_rebuild", ">=", 5.0),
    ],
}

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def check_entry(entry: dict, checks: list[tuple]) -> list[str]:
    """Failure messages for one trajectory entry (empty = pass)."""
    failures = []
    label = entry.get("label", "?")
    for field, op, limit in checks:
        value = entry.get(field)
        if value is None:
            failures.append(f"{label}: {field} {op} {limit} not checkable (null)")
        elif not _OPS[op](value, limit):
            failures.append(f"{label}: {field} = {value} !{op} {limit}")
    return failures


def check_file(path: Path) -> list[str]:
    """Failure messages for one trajectory file (empty = pass)."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    bench = doc.get("bench")
    checks = CHECKS.get(bench)
    if checks is None:
        return [
            f"{path}: unknown bench {bench!r} "
            f"(known: {', '.join(sorted(CHECKS))})"
        ]
    entries = doc.get("entries")
    if not entries:
        return [f"{path}: no trajectory entries"]
    failures = []
    for entry in entries:
        failures.extend(f"{path}: {msg}"
                        for msg in check_entry(entry, checks))
    if not failures:
        print(f"{path}: trajectory ok ({len(entries)} entries, "
              f"{len(checks)} checks each)")
    return failures


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_trajectory.py BENCH_X.json [...]", file=sys.stderr)
        return 2
    failures = []
    for arg in argv:
        failures.extend(check_file(Path(arg)))
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
