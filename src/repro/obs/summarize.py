"""Aggregate a trace's events into per-phase breakdowns and link hot spots."""

from __future__ import annotations

from typing import Any

__all__ = ["summarize_trace", "format_summary"]


def _zero_group(op: str, label: str) -> dict[str, Any]:
    return {
        "op": op,
        "label": label,
        "count": 0,
        "wall_s": 0.0,
        "driver_s": 0.0,
        "rounds": 0,
        "messages": 0,
        "bits": 0,
        "max_link_bits": 0,
        "segments": {},
    }


def summarize_trace(events: list[dict]) -> dict[str, Any]:
    """Roll a trace's events up into a summary dictionary.

    Returns ``{"schema", "runs", "groups", "links", "phase_wall_s",
    "run_wall_s", "setup_s", "coverage"}`` where ``groups`` aggregates
    ``phase`` events by ``(op, label)`` sorted by attributed wall-clock
    descending (a group's ``wall_s`` is engine-internal span plus the
    per-phase ``driver_s`` parent-side attribution, with ``driver_s``
    also broken out), ``links`` ranks directed machine pairs by the bits
    the backends attributed to them (``top_links`` attachments — a
    lower bound on true per-link traffic, since only each phase's
    heaviest links are attached), and ``coverage`` is the fraction of
    post-setup run wall-clock the phase events account for (``None``
    without a ``run_end`` event).

    Grouping is generic over ``op``, so every span the engines emit —
    communication phases, ``map_machines`` kernels (per machine or per
    group) with their ``kernel_s`` segments, and the ``resident``
    install/pull spans of worker-resident driver state — folds into the
    rollup and counts toward ``coverage``.
    """
    header = events[0] if events else {}
    groups: dict[tuple[str, str], dict[str, Any]] = {}
    links: dict[tuple[int, int], int] = {}
    runs: list[dict] = []
    phase_wall = 0.0
    for event in events:
        kind = event.get("event")
        if kind == "phase":
            key = (event.get("op", "?"), event.get("label", ""))
            group = groups.get(key)
            if group is None:
                group = groups[key] = _zero_group(*key)
            group["count"] += 1
            wall = float(event.get("wall_s", 0.0))
            driver = float(event.get("driver_s", 0.0))
            group["wall_s"] += wall + driver
            group["driver_s"] += driver
            phase_wall += wall + driver
            for field in ("rounds", "messages", "bits"):
                group[field] += int(event.get(field, 0))
            group["max_link_bits"] = max(
                group["max_link_bits"], int(event.get("max_link_bits", 0))
            )
            for name, seconds in (event.get("segments") or {}).items():
                group["segments"][name] = group["segments"].get(name, 0.0) + float(seconds)
            for src, dst, bits in event.get("top_links") or []:
                links[(int(src), int(dst))] = links.get((int(src), int(dst)), 0) + int(bits)
        elif kind == "run_start":
            runs.append({"start": event})
        elif kind == "run_end":
            if runs and "end" not in runs[-1]:
                runs[-1]["end"] = event
            else:
                runs.append({"end": event})

    run_wall = 0.0
    setup = 0.0
    have_run = False
    for run in runs:
        end = run.get("end")
        if end is None:
            continue
        have_run = True
        run_wall += float(end.get("wall_s") or 0.0)
        setup += float(end.get("setup_s") or 0.0)
    coverage = None
    if have_run:
        window = run_wall - setup
        coverage = phase_wall / window if window > 0 else None

    ordered = sorted(groups.values(), key=lambda g: -g["wall_s"])
    top_links = [
        {"src": src, "dst": dst, "bits": bits}
        for (src, dst), bits in sorted(links.items(), key=lambda kv: -kv[1])
    ]
    return {
        "schema": header.get("schema"),
        "runs": runs,
        "groups": ordered,
        "links": top_links,
        "phase_wall_s": phase_wall,
        "run_wall_s": run_wall if have_run else None,
        "setup_s": setup if have_run else None,
        "coverage": coverage,
    }


def _describe_run(run: dict) -> str:
    start = run.get("start") or {}
    end = run.get("end") or {}
    algo = start.get("algo") or end.get("algo") or "?"
    bits = []
    if start.get("n") is not None:
        bits.append(f"n={start['n']:,}")
    if start.get("k") is not None:
        bits.append(f"k={start['k']}")
    if start.get("engine"):
        bits.append(f"engine={start['engine']}")
    if end.get("cached"):
        bits.append("cached")
    if end.get("rounds") is not None:
        bits.append(f"rounds={end['rounds']:,}")
    if end.get("wall_s") is not None:
        bits.append(f"wall={end['wall_s']:.3f}s")
    if end.get("setup_s") is not None:
        bits.append(f"setup={end['setup_s']:.3f}s")
    return f"{algo}: " + " ".join(bits)


def format_summary(summary: dict, *, top: int = 5) -> str:
    """Render a :func:`summarize_trace` summary for the terminal."""
    from repro.experiments.tables import format_table

    lines: list[str] = []
    for run in summary["runs"]:
        lines.append(_describe_run(run))
    if summary["runs"]:
        lines.append("")

    rows = []
    # Show several times `top` group rows: one run can fan a single
    # logical phase into many labels (per-iteration batches), and
    # truncating is stated rather than silent.
    shown = summary["groups"][: max(top, 1) * 4]
    hidden = len(summary["groups"]) - len(shown)
    for group in shown:
        spans = dict(group["segments"])
        if group["driver_s"] > 0.0005:
            spans["driver_s"] = group["driver_s"]
        segments = " ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in sorted(
                spans.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        rows.append(
            [
                group["op"],
                group["label"] or "-",
                group["count"],
                f"{group['wall_s']:.3f}s",
                group["rounds"],
                group["bits"],
                group["max_link_bits"],
                segments or "-",
            ]
        )
    lines.append(
        format_table(
            ["op", "label", "phases", "wall", "rounds", "bits", "max link", "segments"],
            rows,
        )
    )
    if hidden > 0:
        lines.append(f"... {hidden} lighter group(s) not shown (--top raises the cut)")

    if summary["links"]:
        lines.append("")
        lines.append("heaviest links (bits attributed by phase top_links):")
        lines.append(
            format_table(
                ["src", "dst", "bits"],
                [
                    [link["src"], link["dst"], link["bits"]]
                    for link in summary["links"][:top]
                ],
            )
        )

    lines.append("")
    lines.append(f"phase wall-clock accounted: {summary['phase_wall_s']:.3f}s")
    if summary["run_wall_s"] is not None:
        lines.append(
            f"run wall-clock: {summary['run_wall_s']:.3f}s"
            f" (setup {summary['setup_s']:.3f}s)"
        )
    if summary["coverage"] is not None:
        lines.append(f"post-setup coverage: {summary['coverage']:.1%}")
    return "\n".join(lines)
