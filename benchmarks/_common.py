"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's quantitative artifacts (a
theorem's scaling law, a lemma's whp event, Figure 1's separation) as an
ASCII table, written both to stdout (visible with ``pytest -s``) and to
``benchmarks/results/<name>.txt`` so the artifacts persist.  The timed
callable passed to pytest-benchmark is the sweep itself, run exactly once
(``pedantic(rounds=1)``): wall time measures the simulator, while the
*reproduction target* is the printed round/message counts.

Execution backend
-----------------
Benches that run simulator drivers select the execution engine through
:func:`engine_choice`, which reads the ``REPRO_ENGINE`` environment
variable (a name in ``repro.kmachine.engine.ENGINES``; default its
``DEFAULT_ENGINE`` — counts are engine-independent, see the CLI's
``--engine`` flag).  With ``process``, ``REPRO_WORKERS`` sizes the
shard-worker pool (default: CPU count).  Example::

    REPRO_ENGINE=process REPRO_WORKERS=4 pytest benchmarks/bench_pagerank_rounds.py

Registry runs
-------------
Benches invoke algorithm families through :func:`run_algorithm`, a thin
wrapper over :func:`repro.runtime.run` that applies the bench engine
default — so adding a workload to the bench suite means registering a
spec, not writing new plumbing.  Seeded registry runs are bit-identical
to calling the family entry points directly.

Every bench module also exposes a ``smoke()`` function running its
smallest configuration; ``tests/test_benchmarks_smoke.py`` imports and
runs all of them so bench scripts cannot rot silently.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Environment variable selecting the execution backend for benches.
ENGINE_ENV = "REPRO_ENGINE"
#: Environment variable sizing the process backend's worker pool.
WORKERS_ENV = "REPRO_WORKERS"


def engine_choice() -> str:
    """The execution engine benches should pass to simulator drivers."""
    from repro.kmachine.engine import DEFAULT_ENGINE, ENGINES

    choice = os.environ.get(ENGINE_ENV, DEFAULT_ENGINE)
    if choice not in ENGINES:
        raise ValueError(f"{ENGINE_ENV} must be one of {sorted(ENGINES)}, got {choice!r}")
    return choice


def workers_choice() -> int | None:
    """Shard-worker pool size for ``REPRO_ENGINE=process`` (None = default)."""
    raw = os.environ.get(WORKERS_ENV)
    return int(raw) if raw else None


def run_algorithm(name, data, k, **kwargs):
    """Run a registered algorithm via the runtime registry.

    Returns the :class:`repro.runtime.RunReport`; the engine defaults to
    :func:`engine_choice` unless passed explicitly (with the worker-pool
    size from ``REPRO_WORKERS`` when the process backend is selected).
    """
    from repro.runtime import run

    kwargs.setdefault("engine", engine_choice())
    if kwargs["engine"] == "process":
        kwargs.setdefault("workers", workers_choice())
    return run(name, data, k, **kwargs)


def emit(name: str, text: str) -> None:
    """Print a bench artifact and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def log2ceil(n: int) -> int:
    """``ceil(log2 n)`` — the bench-default bandwidth ``B = Θ(log n)``."""
    return max(1, math.ceil(math.log2(max(2, n))))
