"""Convert JSONL traces to Chrome trace-event documents.

``repro trace export run.jsonl`` turns the per-phase events of
:mod:`repro.obs.trace` into a Chrome trace-event file that standard
timeline viewers open directly — ``chrome://tracing``, Perfetto, and
https://www.speedscope.app (which imports the Chrome format) — so
phase streams, driver gaps, and engine sub-spans (``ship_s`` /
``kernel_s`` / ``assemble_s`` / resident installs) become an
inspectable flame chart instead of a JSONL file.

Layout: each ``run_start``/``run_end`` pair becomes one named track
(Chrome ``tid``).  A tracer's ``phase`` event is
emitted at the phase's *end* with its ``wall_s`` span and the
``driver_s`` parent-side gap charged to it, so the exporter places a
``driver:<label>`` slice at ``at - wall_s - driver_s`` followed by the
phase slice at ``at - wall_s``.  Segment sub-spans become child slices
laid out sequentially inside the phase *only when their sum fits the
phase wall* — the process backend reports worker-side ``kernel_s`` as a
sum over workers, which can legitimately exceed the parent's wall-clock;
such segments stay in the slice ``args`` instead of lying on the
timeline.

:func:`validate_chrome_trace` is the schema check the CLI runs before
writing and the CI export smoke runs after: required keys, types,
non-negative spans, and per-track slice containment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.trace import TraceError

__all__ = ["export_chrome", "validate_chrome_trace", "write_export"]

#: Slack factor for "do the segments fit inside the phase wall": timer
#: rounding must not demote an honest segment breakdown to args-only.
_FIT_SLACK = 1.001


def _runs_of(events: list[dict]) -> list[dict]:
    """Group a trace into runs: ``{"start", "end", "phases"}`` dicts.

    Phase events before any ``run_start`` (bare engine use under a
    caller-owned tracer) land in a synthetic run with no start/end.
    """
    runs: list[dict] = []
    current: dict | None = None
    for event in events:
        kind = event.get("event")
        if kind == "run_start":
            current = {"start": event, "end": None, "phases": []}
            runs.append(current)
        elif kind == "run_end":
            if current is not None and current["end"] is None:
                current["end"] = event
            else:
                runs.append({"start": None, "end": event, "phases": []})
            current = None
        elif kind == "phase":
            if current is None:
                current = {"start": None, "end": None, "phases": []}
                runs.append(current)
            current["phases"].append(event)
    return runs


def _run_name(run: dict, index: int) -> str:
    start = run["start"] or {}
    end = run["end"] or {}
    algo = start.get("algo") or end.get("algo") or "trace"
    engine = start.get("engine")
    label = f"run {index}: {algo}"
    if engine:
        label += f" ({engine})"
    if end.get("cached"):
        label += " [cached]"
    return label


def _phase_args(event: dict) -> dict:
    args = {}
    for key in ("rounds", "messages", "bits", "max_link_bits", "driver_s"):
        if event.get(key) is not None:
            args[key] = event[key]
    if event.get("segments"):
        args["segments"] = event["segments"]
    if event.get("top_links"):
        args["top_links"] = event["top_links"]
    return args


def _us(seconds: float) -> float:
    return round(float(seconds) * 1e6, 3)


def _slice(end_at: float, span: float) -> tuple[float, float]:
    """``(start, duration)`` for a slice ending at ``end_at``.

    The runtime's wall clocks start ticking a hair before the tracer's
    time zero, so ``end_at - span`` can land fractionally negative;
    clamp the start at zero and absorb the difference in the duration.
    """
    start = max(0.0, float(end_at) - float(span))
    return start, float(end_at) - start


def export_chrome(events: list[dict]) -> dict:
    """Chrome trace-event JSON (the ``traceEvents`` object form)."""
    header = events[0] if events else {}
    trace_events: list[dict] = []
    pid = 1
    for index, run in enumerate(_runs_of(events), start=1):
        tid = index
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": _run_name(run, index)},
        })
        # End of the last top-level slice on this track: adjacent spans
        # come from independent clocks, so they can overlap by a few µs
        # in the raw data — successors are clamped forward to nest.
        cursor = 0.0
        end = run["end"]
        if end is not None and end.get("wall_s") is not None:
            start_at, run_dur = _slice(float(end["at"]), float(end["wall_s"]))
            args = {
                key: end[key]
                for key in ("algo", "cached", "rounds", "phases",
                            "messages", "bits", "setup_s")
                if end.get(key) is not None
            }
            if run["start"]:
                for key in ("n", "m", "k", "bandwidth", "engine", "workers"):
                    if run["start"].get(key) is not None:
                        args[key] = run["start"][key]
            trace_events.append({
                "name": end.get("algo") or "run", "cat": "run", "ph": "X",
                "ts": _us(start_at), "dur": _us(run_dur),
                "pid": pid, "tid": tid, "args": args,
            })
            setup = end.get("setup_s")
            if setup:
                setup_dur = min(float(setup), run_dur)
                trace_events.append({
                    "name": "setup", "cat": "setup", "ph": "X",
                    "ts": _us(start_at), "dur": _us(setup_dur),
                    "pid": pid, "tid": tid, "args": {},
                })
                cursor = start_at + setup_dur
        for event in run["phases"]:
            wall = float(event.get("wall_s") or 0.0)
            driver = float(event.get("driver_s") or 0.0)
            at = float(event.get("at") or 0.0)
            begin = max(cursor, 0.0, at - wall)
            label = event.get("label") or ""
            op = event.get("op") or "phase"
            name = f"{op}:{label}" if label else op
            if driver > 0:
                driver_start = max(cursor, 0.0, begin - driver)
                if begin > driver_start:
                    trace_events.append({
                        "name": f"driver:{label}" if label else "driver",
                        "cat": "driver", "ph": "X",
                        "ts": _us(driver_start), "dur": _us(begin - driver_start),
                        "pid": pid, "tid": tid, "args": {},
                    })
            dur = max(0.0, at - begin)
            trace_events.append({
                "name": name, "cat": op, "ph": "X",
                "ts": _us(begin), "dur": _us(dur),
                "pid": pid, "tid": tid, "args": _phase_args(event),
            })
            cursor = begin + dur
            segments = event.get("segments") or {}
            seg_total = sum(float(v) for v in segments.values())
            # Sequential child slices only when they honestly fit: the
            # process backend's kernel_s is summed across workers and
            # can exceed the parent wall (it stays in args instead).
            if segments and 0 < seg_total <= dur * _FIT_SLACK:
                seg_cursor = begin
                for seg_name, seconds in segments.items():
                    seconds = float(seconds)
                    if seconds <= 0:
                        continue
                    seconds = min(seconds, max(0.0, begin + dur - seg_cursor))
                    trace_events.append({
                        "name": seg_name, "cat": "segment", "ph": "X",
                        "ts": _us(seg_cursor), "dur": _us(seconds),
                        "pid": pid, "tid": tid, "args": {},
                    })
                    seg_cursor += seconds
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro trace export",
            "trace_schema": header.get("schema"),
            "unix_time": header.get("unix_time"),
        },
    }


def validate_chrome_trace(doc) -> None:
    """Schema-validate a Chrome trace-event document (raises TraceError).

    Checks the object form, per-event required keys and types, and —
    per track — that ``X`` slices nest (every slice either contains or
    is disjoint from its overlapping successors), which is what keeps
    ``chrome://tracing`` from rendering garbage stacks.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise TraceError("chrome trace must be an object with a "
                         "'traceEvents' list")
    spans: dict[tuple, list[tuple[float, float]]] = {}
    for index, event in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TraceError(f"{where}: events must be objects")
        ph = event.get("ph")
        if ph not in ("X", "M"):
            raise TraceError(f"{where}: unsupported ph {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise TraceError(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise TraceError(f"{where}: {key} must be an integer")
        if ph == "M":
            continue
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TraceError(f"{where}: {key} must be a number")
            if value < 0:
                raise TraceError(f"{where}: {key} must be non-negative")
        spans.setdefault((event["pid"], event["tid"]), []).append(
            (float(event["ts"]), float(event["ts"]) + float(event["dur"]))
        )
    for track, intervals in spans.items():
        # Containing slices must precede contained ones at an equal
        # start, or the stack check would read containment as overlap.
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        stack: list[tuple[float, float]] = []
        for begin, finish in intervals:
            while stack and begin >= stack[-1][1] - 0.5:  # 0.5us rounding slop
                stack.pop()
            if stack and finish > stack[-1][1] + 0.5:
                raise TraceError(
                    f"track pid/tid {track}: slice [{begin}, {finish}]us "
                    f"overlaps [{stack[-1][0]}, {stack[-1][1]}]us without "
                    f"nesting"
                )
            stack.append((begin, finish))


def write_export(events: list[dict], out: str | os.PathLike) -> Path:
    """Export, validate and write to ``out``; returns the written path."""
    doc = export_chrome(events)
    validate_chrome_trace(doc)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, default=str) + "\n", encoding="utf-8")
    return out


def default_export_path(trace_path: str | os.PathLike) -> Path:
    """``run.jsonl`` -> ``run.chrome.json``."""
    path = Path(trace_path)
    stem = path.name
    for suffix in (".jsonl", ".json"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return path.with_name(f"{stem}.chrome.json")
