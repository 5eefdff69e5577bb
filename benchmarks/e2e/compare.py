#!/usr/bin/env python3
"""Compare two suite result files of ``bench.py --out``: ``compare.py A.json B.json``.

Per workload x end-to-end metric it prints both reported values, the
ratio B/A (A is the base), and a verdict:

* ``ok`` — B is no worse than A by more than the metric's bound;
* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — the pass-to-pass quartile spread of either side is
  wider than the bound, so the runs cannot tell (unless every sample of B
  is better than every sample of A, which is ``ok``).

The simulated counts and result digests must be identical.  Exits
non-zero on any ``regressed``, on a higher fail ratio, or on moved counts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from e2elib.table import load_declarations, quartiles

#: serve-mix's client-observed metrics are gated too, at this bound.  They
#: are per-layer in BENCHMARK.json only because an end-to-end metric there
#: must exist on every workload.
SERVE_GATED = ("serve.daemon.requests_per_s", "serve.daemon.hit_p50_ms",
               "serve.daemon.miss_p50_ms")
SERVE_BOUND = 0.10


def spread(samples: list[float]) -> float:
    """Quartile distance as a share of the median (0 without samples)."""
    if not samples:
        return 0.0
    q1, q3 = quartiles(samples)
    return (q3 - q1) / statistics.median(samples)


def classify(value_a: float, value_b: float, a: list[float], b: list[float],
             better: str, bound: float) -> tuple[str, float]:
    """``(verdict, ratio B/A)`` from the reported values and both sides' samples."""
    ratio = value_b / value_a
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread(a), spread(b)) > bound:
        b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("ok" if b_wins else "unresolved"), ratio
    return ("regressed" if worse_by > bound else "ok"), ratio


def _value(record: dict, metric: str) -> float:
    cell = record["metrics"].get(metric)
    return cell["value"] if cell else record["serve"][metric]


def compare(a: dict, b: dict, declared: dict) -> tuple[list[tuple], list[str]]:
    """``(rows, problems)``; a row is ``(workload, metric, value A, value B, ratio, verdict)``."""
    rows, problems = [], []
    for name, a_records in a["workloads"].items():
        b_records = b["workloads"].get(name)
        if b_records is None:
            problems.append(f"{name}: missing from B")
            continue
        a0, b0 = a_records["trace0"], b_records["trace0"]
        gated = dict(declared["end_to_end"])
        if "serve" in a0:
            gated.update({m: {**declared["per_layer"][m], "bound": SERVE_BOUND}
                          for m in SERVE_GATED})
        for metric, decl in gated.items():
            va, vb = _value(a0, metric), _value(b0, metric)
            verdict, ratio = classify(va, vb, a0["samples"].get(metric, []),
                                      b0["samples"].get(metric, []), decl["better"],
                                      decl["bound"])
            rows.append((name, metric, va, vb, ratio, verdict))
            if verdict == "regressed":
                problems.append(f"{name} {metric}: regressed, B/A = {ratio:.3f}")
        for mode in ("trace0", "trace1"):
            if a_records[mode]["identity"] != b_records[mode]["identity"]:
                problems.append(f"{name} {mode}: simulated counts or digests differ")
            fa = a_records[mode]["failed"] / a_records[mode]["attempted"]
            fb = b_records[mode]["failed"] / b_records[mode]["attempted"]
            if fb > fa:
                problems.append(f"{name} {mode}: fail ratio rose from {fa:.4f} to {fb:.4f}")
    return rows, problems


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    rows, problems = compare(a, b, load_declarations())
    print(f"{'workload':18s} {'metric':28s} {'A':>12s} {'B':>12s} {'B/A':>7s}  verdict")
    for name, metric, value_a, value_b, ratio, verdict in rows:
        print(f"{name:18s} {metric:28s} {value_a:12.4f} {value_b:12.4f} {ratio:7.3f}  {verdict}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
