"""The workload table and the metric declarations of the benchmark.

Sizes are chosen so one pass is about 2 s on the 2-CPU host the baseline
was recorded on and at least five passes fit in ``run_seconds`` (see the
README for why they are smaller than the sizes the issue sketched).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = [
    "E2E_DIR", "REPO_ROOT", "WORKLOADS", "PINNED_SEED", "MIN_PASSES", "MIN_STAGED_PAIRS",
    "SETUP_REPEATS", "MAX_DRAWS", "DRAW_STRIDE", "NOMINAL_TOLERANCE", "SIM_KEYS", "WORKERS",
    "dataset_spec", "sum_sims", "load_declarations", "finalize_metrics", "ops_identity",
    "quartiles",
]

E2E_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = E2E_DIR.parent.parent

#: ``pinned.json`` holds the simulated counts and digests of this seed.
PINNED_SEED = 7
#: Timed passes per run (more when ``--seconds`` allows).
MIN_PASSES = 5
#: (untraced ``runtime.run``, traced staged pass) pairs per ``--trace 1`` run.
MIN_STAGED_PAIRS = 3
#: Cold set-ups per run; ``setup_s`` is their median.  A serve set-up
#: (daemon spawn + 9 executing requests) costs five times a run set-up.
SETUP_REPEATS = {"run": 7, "serve": 5}
#: A workload with ``nominal_messages`` redraws its run seed (placement, MST
#: weights; ``seed + draw * DRAW_STRIDE``) until a pass's simulated messages
#: are within ``NOMINAL_TOLERANCE`` of it, so that a pass is the same amount
#: of work whatever the seed.  After ``MAX_DRAWS`` the last draw is used.
MAX_DRAWS = 6
DRAW_STRIDE = 1_000_003
NOMINAL_TOLERANCE = 0.05


#: Pool workers of the process engine, and closed-loop serve clients: one.
#: The baseline host has 2 shared CPUs.  With one worker (one client) the
#: parent and the worker (the client and the daemon) take turns, so a
#: workload keeps one CPU busy and the other absorbs the harness, the driver
#: and the host's own noise.  With two, identical runs spread 19-31%: a phase
#: waits for the slower worker, and which one that is was up to the scheduler.
WORKERS = 1


#: name -> config.  ``ops`` run back to back in one pass.
WORKLOADS: dict[str, dict] = {
    "pagerank-vector": {
        "kind": "run", "ops": ["pagerank"], "n": 3000, "avg_deg": 16, "k": 8,
        "engine": "vector",
    },
    "triangles-process": {
        "kind": "run", "ops": ["triangles"], "n": 5000, "avg_deg": 16, "k": 27,
        "engine": "process",
    },
    "boruvka-account": {
        "kind": "run", "ops": ["mst", "connectivity"], "n": 60000, "avg_deg": 16, "k": 16,
        "engine": "vector",
        # Borůvka needs 5 phases on most weight draws at this size (5.07M messages, plus
        # connectivity's 2.21M) and 4 on the rest (4.14M); a phase is a fifth of mst's wall,
        # which alone spread wall_s 8.8% over ten seeds.  See ``MAX_DRAWS``.
        "nominal_messages": 7_285_000,
    },
    "serve-mix": {
        "kind": "serve", "n": 6000, "avg_deg": 8, "k": 8, "engine": "vector",
        # 6 datasets against the Session's 4-slot dataset LRU: misses evict.
        "datasets": 6, "hot_datasets": 4, "requests_per_pass": 240, "miss_share": 0.08,
    },
}


def dataset_spec(cfg: dict, seed: int, index: int = 0) -> str:
    """The seeded dataset spec string; ``index`` separates serve datasets."""
    return f"rmat:n={cfg['n']},avg_deg={cfg['avg_deg']},seed={seed * 1000 + index}"


#: The simulated quantities no host-side change may move.
SIM_KEYS = ("rounds", "phases", "messages", "bits", "max_link_bits")


def sum_sims(sims: list[dict]) -> dict[str, int]:
    """A pass's simulated counts: sums over its ops (heaviest link: max)."""
    out = {key: sum(s[key] for s in sims) for key in SIM_KEYS}
    out["max_link_bits"] = max((s["max_link_bits"] for s in sims), default=0)
    return out


def ops_identity(ops: list[dict]) -> dict:
    """Per op, what must never move: simulated counts and the result digest."""
    return {op["algo"]: {"sim": op.get("sim"), "digest": op.get("digest")} for op in ops}


def quartiles(samples: list[float]) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(n=4)`` gives them; one sample is both."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def load_declarations(path: Path | None = None) -> dict:
    """``BENCHMARK.json`` as ``{"end_to_end": {name: decl}, "per_layer": {...}, ...}``."""
    raw = json.loads((path or REPO_ROOT / "BENCHMARK.json").read_text())
    return {
        "run_seconds": raw["run_seconds"],
        "workloads": [w["name"] for w in raw["workloads"]],
        "end_to_end": {m["name"]: m for m in raw["end_to_end"]},
        "per_layer": {m["name"]: m for m in raw["per_layer"]},
    }


def finalize_metrics(values: dict[str, float], declared: dict[str, dict],
                     fill_missing: bool) -> dict[str, dict]:
    """Shape measured values into the result line's ``metrics`` object.

    Every emitted name must be declared.  End-to-end metrics must all be
    measured (``fill_missing=False``); a per-layer metric a workload does
    not exercise reads 0 (``fill_missing=True``).
    """
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing and not fill_missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": decl["unit"]}
        for name, decl in declared.items()
    }
