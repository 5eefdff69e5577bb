"""Harness-side spans: the one clock the per-layer numbers come from.

A span is ``(id, name, start, end, parent, run_id)`` on
``time.perf_counter()``.  Spans are recorded around the harness's calls
into each layer and kept in memory; :func:`write_jsonl` writes them out
when the benchmark ends.  A layer's *self time* is its span minus the
part of it its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

__all__ = ["BudgetError", "SpanRecorder", "self_times", "budget_residual", "write_jsonl"]

#: Largest tolerated ``|wall - sum of layer spans| / wall``.
BUDGET_TOLERANCE = 0.05


class BudgetError(AssertionError):
    """The layer spans do not add up to the wall they claim to explain."""


class SpanRecorder:
    """In-memory span store; ``span()`` nests per thread, ``add()`` is explicit."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "run_id": self.run_id, **attrs,
            })
        return span_id

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as a child of this thread's innermost open span."""
        stack = self._local.__dict__.setdefault("stack", [])
        # Reserve the id first so children recorded inside can point at it.
        span_id = self.add(name, 0.0, 0.0, stack[-1] if stack else None, **attrs)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id]["start"] = start
            self.spans[span_id]["end"] = end

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]


def self_times(spans: list[dict]) -> dict[int, float]:
    """``{span id: duration - time covered by its children}``; parents must resolve.

    Children of one span may overlap (two serve clients under one pass):
    the covered time is the length of the union of their intervals.
    """
    by_id = {s["id"]: s for s in spans}
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            raise BudgetError(f"span {s['id']} ({s['name']}) names unknown parent {parent}")
        kids.setdefault(parent, []).append((s["start"], s["end"]))
    own = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(kids.get(s["id"], [])):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        own[s["id"]] = (s["end"] - s["start"]) - covered
    return own


def budget_residual(layer_sum_s: float, wall_s: float,
                    tolerance: float = BUDGET_TOLERANCE) -> float:
    """``|wall - layer sum| / wall``; raises past ``tolerance``."""
    if wall_s <= 0:
        raise BudgetError(f"the wall must be positive, got {wall_s}")
    frac = abs(wall_s - layer_sum_s) / wall_s
    if frac > tolerance:
        raise BudgetError(
            f"layer spans sum to {layer_sum_s:.4f}s of a {wall_s:.4f}s wall: "
            f"residual {frac:.1%} > {tolerance:.0%}"
        )
    return frac


def write_jsonl(path, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
