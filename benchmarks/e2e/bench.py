#!/usr/bin/env python3
"""The end-to-end benchmark: one instrument for the whole path.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/bench.py --workload pagerank-vector --seed 7 --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs the
traced staged passes and reports the per-layer metrics.

The whole suite (every workload, both modes), written to one file that
``compare.py`` reads::

    python3 benchmarks/e2e/bench.py --seed 7 --out results.json

Everything that touches ``repro`` happens in fresh child interpreters;
this process only orchestrates, aggregates and prints.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from e2elib.table import (
    E2E_DIR, MIN_PASSES, MIN_STAGED_PAIRS, PINNED_SEED, REPO_ROOT, SETUP_REPEATS, WORKERS,
    WORKLOADS, dataset_spec, finalize_metrics, load_declarations, ops_identity, quartiles,
    sum_sims,
)

SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = REPO_ROOT / ".e2e_work"
PINNED_PATH = E2E_DIR / "pinned.json"
#: The driver allows a run 180 s; a child that hangs must not eat all of it.
CHILD_TIMEOUT_S = 150


def child_env(workdir: Path) -> dict[str, str]:
    """The children's environment: every ``REPRO_*`` scrubbed, data dir private."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_DATA_DIR"] = str(workdir / "data")
    env["TMPDIR"] = str(workdir / "tmp")
    paths = [str(E2E_DIR), str(SRC_DIR)] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn_child(mode: str, cfg: dict) -> dict:
    """Run one child mode in a fresh interpreter; its last stdout line is the result."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "e2elib.child", mode, json.dumps(cfg)],
        env=child_env(Path(cfg["workdir"])), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode != 0:
            # Hung, interrupted or failed: its pool workers and serve daemon
            # share its session, so none of them outlives it.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode!r} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def child_config(name: str, wl: dict, seed: int, seconds: float, trace: int,
                 workdir: Path, trace_path: Path | None) -> dict:
    cfg = {**wl, "workload": name, "seed": seed, "run_seed": seed, "seconds": seconds,
           "trace": trace,
           "workdir": str(workdir), "trace_path": str(trace_path) if trace_path else None,
           "min_passes": wl.get("min_passes", MIN_PASSES),
           "min_pairs": wl.get("min_pairs", MIN_STAGED_PAIRS),
           "setup_repeats": wl.get("setup_repeats", SETUP_REPEATS[wl["kind"]])}
    if wl["kind"] == "serve":
        cfg["datasets"] = [dataset_spec(wl, seed, i) for i in range(wl["datasets"])]
    else:
        cfg["dataset"] = dataset_spec(wl, seed)
        cfg["datasets"] = [cfg["dataset"]]
    return cfg


def run_workload(name: str, wl: dict, seed: int, seconds: float, trace: int, declared: dict,
                 spawn=spawn_child, work_root: Path = WORK_ROOT,
                 trace_dir: Path | None = None, pinned: dict | None = None) -> dict:
    """One run of one workload in one mode; returns the full result record.

    ``spawn(mode, cfg)`` runs a child mode (the harness test substitutes
    an in-process call).  ``pinned`` is the workload's ``pinned.json``
    entry to hold the simulated counts and digests against, if any.
    """
    workdir = work_root / f"{name}-{os.getpid()}-{time.time_ns()}"
    (workdir / "tmp").mkdir(parents=True)
    trace_path = None
    if trace:
        trace_dir = trace_dir or work_root
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"trace-{name}.jsonl"
    cfg = child_config(name, wl, seed, seconds, trace, workdir, trace_path)
    try:
        built = spawn("build", cfg)
        cfg["run_seed"] = built["run_seed"]
        if wl["kind"] == "serve":
            record = _serve_record(cfg, spawn("serve", cfg), built)
        elif trace:
            record = _staged_record(spawn("staged", cfg), built)
        else:
            setups = [spawn("cold", cfg)["setup_s"] for _ in range(cfg["setup_repeats"])]
            record = _passes_record(spawn("passes", cfg), setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if pinned is not None:
        record["attempted"] += 1
        if record["identity"] != pinned:
            record["failed"] += 1
            record["reasons"].append(f"simulated counts or digests moved from pinned.json "
                                     f"(seed {PINNED_SEED})")
    kind = "per_layer" if trace else "end_to_end"
    record["metrics"] = finalize_metrics(record.pop("values"), declared[kind],
                                         fill_missing=bool(trace))
    record.update(workload=name, seed=seed, run_seed=cfg["run_seed"], trace=trace, seconds=seconds,
                  correct=record["failed"] == 0, trace_path=str(trace_path or ""),
                  host={"nproc": os.cpu_count(), "platform": platform.platform(),
                        "workers": WORKERS, **built["host"]})
    return record


def _passes_record(out: dict, setups: list[float]) -> dict:
    walls = [p["wall_s"] for p in out["passes"]]
    ops = out["passes"][0]["ops"]
    messages = sum_sims([op["sim"] for op in ops if "sim" in op])["messages"]
    rates = [messages / w for w in walls]
    return {
        "values": {"wall_s": min(walls), "messages_per_s": max(rates),
                   "setup_s": statistics.median(setups), "peak_rss_mb": out["peak_rss_mb"]},
        "samples": {"wall_s": walls, "messages_per_s": rates, "setup_s": setups,
                    "peak_rss_mb": [out["peak_rss_mb"]]},
        "identity": ops_identity(ops),
        "attempted": out["attempted"], "failed": out["failed"], "reasons": out["reasons"],
    }


def _staged_record(out: dict, built: dict) -> dict:
    values = {**out["layers"], **built["layers"]}
    values["sim.rounds_per_s"] = values["sim.rounds"] / values["runtime.run_s"]
    return {
        "values": values, "samples": {"runtime.run_s": out["run_walls_s"]},
        "staged_wall_s": out["staged_wall_s"],
        "identity": ops_identity(out["ops"]),
        "attempted": out["attempted"], "failed": out["failed"], "reasons": out["reasons"],
    }


def _serve_record(cfg: dict, out: dict, built: dict) -> dict:
    walls = [p["wall_s"] for p in out["passes"]]
    # The misses' run seeds differ from pass to pass, and with them the passes'
    # simulated messages (by ~2%): the typical pass's, over each pass's wall.
    messages = statistics.median(p["messages"] for p in out["passes"])
    rates = [messages / wall for wall in walls]
    record = {
        "identity": {"sim": out["sim"], "digest": out["digest"]},
        "attempted": out["attempted"], "failed": out["failed"], "reasons": out["reasons"],
        "serve": {**out["layers"], "hits": out["hits"], "misses": out["misses"]},
    }
    if cfg["trace"]:
        record["values"] = {
            **out["layers"], **built["layers"],
            **{f"sim.{k}": v for k, v in out["sim"].items()},
            "sim.rounds_per_s": max(p["rounds"] / p["wall_s"] for p in out["passes"]),
            "runtime.run_s": statistics.median(p["run_s"] for p in out["passes"]),
        }
        record["samples"] = {}
    else:
        setups = out["setup_samples_s"]
        record["values"] = {
            "wall_s": min(walls), "messages_per_s": max(rates),
            "setup_s": statistics.median(setups), "peak_rss_mb": out["peak_rss_mb"],
        }
        record["samples"] = {
            "wall_s": walls, "messages_per_s": rates, "setup_s": setups,
            "peak_rss_mb": [out["peak_rss_mb"]],
            "serve.daemon.requests_per_s": [p["requests"] / p["wall_s"] for p in out["passes"]],
            "serve.daemon.hit_p50_ms": [p["hit_ms"] for p in out["passes"]],
            "serve.daemon.miss_p50_ms": [p["miss_ms"] for p in out["passes"]],
        }
    return record


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then failures, for people."""
    name = record["workload"]
    print(f"== {name}  seed={record['seed']}  trace={record['trace']}  "
          f"seconds={record['seconds']:g}")
    for metric, cell in record["metrics"].items():
        line = f"{name:18s} {metric:36s} {cell['value']:>16.6f} {cell['unit']}"
        samples = record["samples"].get(metric)
        if samples and len(samples) > 1:
            q1, q3 = quartiles(samples)
            line += (f"   ({len(samples)} samples: median {statistics.median(samples):.4f}, "
                     f"q1 {q1:.4f}, q3 {q3:.4f})")
        print(line)
    if not record["trace"]:
        for metric, value in sorted(record.get("serve", {}).items()):
            print(f"{name:18s} {metric:36s} {value:>16.6f}   (also a per-layer metric)")
    ratio = record["failed"] / record["attempted"]
    print(f"{name:18s} {'fail_ratio':36s} {ratio:>16.6f} ratio   "
          f"({record['failed']} of {record['attempted']} ops and checks)")
    for reason in record["reasons"]:
        print(f"{name:18s} FAILED: {reason}")
    if "staged_wall_s" in record:
        print_budget(record)
    if record["trace_path"]:
        print(f"{name:18s} spans written to {record['trace_path']}")


def print_budget(record: dict) -> None:
    """Where one pass's wall went: the fastest staged pass, span by span.

    Unindented rows are the harness spans in call order; with the time
    between them they add up to the staged pass's own wall, which shares
    are of.  Indented rows split a runner span into the program's phase
    events, its driver time and what neither covers.
    """
    value = {name: cell["value"] for name, cell in record["metrics"].items()}
    total = record["staged_wall_s"]
    rows: list[tuple[str, float]] = [(name, value[f"{name}_s"]) for name in (
        "workloads.load", "kmachine.cluster.start", "kmachine.partition.sample",
        "kmachine.distgraph.lru_hit")]
    for algo in record["identity"]:
        rows += [(f"core.{algo}.runner", value[f"core.{algo}.runner_s"]),
                 (f"  {algo}: driver", value[f"core.{algo}.driver_s"]),
                 (f"  {algo}: uncovered (local finalize)", value[f"core.{algo}.uncovered_s"])]
    rows += [(f"  phases: {name}", value[f"{name}_s"]) for name in (
        "kmachine.engine.map", "kmachine.engine.exchange", "kmachine.engine.account_phase",
        "kmachine.engine.resident", "kmachine.parallel.resident")]
    rows += [(name, value[f"{name}_s"]) for name in (
        "kmachine.cluster.close", "obs.bound", "obs.ledger")]
    rows.append(("(between spans)", total - sum(s for name, s in rows if name[0] != " ")))
    print(f"{record['workload']:18s} budget of one pass (the fastest staged pass):")
    for name, seconds in rows:
        if seconds or not name.startswith("  "):
            print(f"    {name:44s} {seconds:10.6f} s {seconds / total:7.1%}")
    print(f"    {'staged pass':44s} {total:10.6f} s {1:7.1%}")
    print(f"    fastest untraced runtime.run: {value['runtime.run_s']:.6f} s, "
          f"{value['runtime.residual_s']:+.6f} s ({value['runtime.budget_residual_frac']:.1%}) "
          f"off the sum of the spans; staged / untraced wall "
          f"{value['obs.trace_overhead_ratio']:.3f}")


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}


def run_suite(args, declared: dict) -> int:
    """Every workload in both modes; cross-checked, written to ``--out``."""
    names = args.workload or list(WORKLOADS)
    pinned = load_pinned() if args.seed == PINNED_SEED and not args.pin else {}
    out_path = Path(args.out) if args.out else None
    started = time.perf_counter()
    suite = {"schema": 1, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        records = {}
        for trace in (0, 1):
            record = run_workload(
                name, WORKLOADS[name], args.seed, args.seconds, trace, declared,
                trace_dir=out_path.parent if out_path else None, pinned=pinned.get(name))
            print_record(record)
            records[f"trace{trace}"] = record
            suite.setdefault("host", record["host"])
        if records["trace0"]["identity"] != records["trace1"]["identity"]:
            print(f"{name:18s} FAILED: --trace 1 did not reproduce --trace 0's counts and digests")
            ok = False
        ok = ok and all(r["correct"] for r in records.values())
        suite["workloads"][name] = records
    suite["total_s"] = time.perf_counter() - started
    print(f"suite: {len(names)} workloads x 2 modes in {suite['total_s']:.1f} s; "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    if out_path:
        out_path.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    if args.pin:
        PINNED_PATH.write_text(json.dumps(
            {n: r["trace0"]["identity"] for n, r in suite["workloads"].items()},
            indent=1, sort_keys=True) + "\n")
        print(f"pinned seed-{args.seed} counts and digests to {PINNED_PATH}")
    return 0 if ok else 1


def run_single(args, declared: dict) -> int:
    """The driver's call: one workload, one mode, the result line last."""
    name = args.workload[0]
    pinned = load_pinned().get(name) if args.seed == PINNED_SEED else None
    record = run_workload(name, WORKLOADS[name], args.seed, args.seconds, args.trace, declared,
                          trace_dir=Path(args.out).parent if args.out else None, pinned=pinned)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"bench.py: no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    declared = load_declarations()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="generates the inputs: dataset seeds, run seeds, request script")
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics. "
                        "Given with one --workload: a single run; otherwise the whole suite")
    parser.add_argument("--out",
                        help="result file (spans go to its sibling trace-<workload>.jsonl)")
    parser.add_argument("--pin", action="store_true",
                        help="suite only: rewrite pinned.json from this run instead of checking it")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload and len(args.workload) == 1:
        return run_single(args, declared)
    return run_suite(args, declared)


if __name__ == "__main__":
    sys.exit(main())
