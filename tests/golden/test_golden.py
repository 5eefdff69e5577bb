"""Golden regression tests for simulator round/message/bit counts.

The simulator's accounting is deterministic given ``(n, k, seed)``, so
any drift in recorded rounds, messages, or bits signals a semantic
change to an algorithm or to the engine layer — exactly the kind of
silent change these tests exist to catch.  Counts are engine-independent
by contract, and each case is checked on all three backends (per-object,
vectorized, and multiprocessing shard workers).

Regenerating
------------
After an *intentional* accounting change, regenerate the golden file and
commit it together with the change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q

With the flag set, the test rewrites ``golden_counts.json`` from the
current implementation and fails once with a reminder so regeneration
cannot silently pass in CI.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import repro

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_counts.json"
REGEN_ENV = "REPRO_REGEN_GOLDEN"

PAGERANK_CASES = [(200, 4, 11), (300, 8, 5)]
TRIANGLE_CASES = [(100, 8, 3), (120, 27, 9)]
SUBGRAPH_CASES = [("k4", 60, 16, 4), ("c4", 50, 81, 7)]


def _pagerank_counts(n: int, k: int, seed: int, engine: str) -> dict:
    g = repro.gnp_random_graph(n, 8.0 / n, seed=seed)
    r = repro.distributed_pagerank(g, k=k, seed=seed, c=2, engine=engine)
    return {
        "rounds": r.rounds,
        "messages": r.metrics.messages,
        "bits": r.metrics.bits,
        "iterations": r.iterations,
    }


def _triangle_counts(n: int, k: int, seed: int, engine: str) -> dict:
    g = repro.gnp_random_graph(n, 0.3, seed=seed)
    r = repro.enumerate_triangles_distributed(g, k=k, seed=seed, engine=engine)
    return {
        "rounds": r.rounds,
        "messages": r.metrics.messages,
        "bits": r.metrics.bits,
        "triangles": r.count,
    }


def _subgraph_counts(pattern: str, n: int, k: int, seed: int, engine: str) -> dict:
    g = repro.gnp_random_graph(n, 0.3, seed=seed)
    r = repro.enumerate_subgraphs_distributed(g, k=k, pattern=pattern, seed=seed, engine=engine)
    return {
        "rounds": r.rounds,
        "messages": r.metrics.messages,
        "bits": r.metrics.bits,
        "occurrences": r.count,
    }


def _compute_all() -> dict:
    out = {}
    for n, k, seed in PAGERANK_CASES:
        out[f"pagerank n={n} k={k} seed={seed}"] = _pagerank_counts(n, k, seed, "message")
    for n, k, seed in TRIANGLE_CASES:
        out[f"triangles n={n} k={k} seed={seed}"] = _triangle_counts(n, k, seed, "message")
    for pattern, n, k, seed in SUBGRAPH_CASES:
        out[f"subgraphs-{pattern} n={n} k={k} seed={seed}"] = _subgraph_counts(
            pattern, n, k, seed, "message"
        )
    return out


def test_regenerate_golden_counts():
    if not os.environ.get(REGEN_ENV):
        pytest.skip(f"set {REGEN_ENV}=1 to regenerate {GOLDEN_PATH.name}")
    GOLDEN_PATH.write_text(json.dumps(_compute_all(), indent=2) + "\n")
    pytest.fail(
        f"regenerated {GOLDEN_PATH.name}; review the diff, commit it, and rerun "
        f"without {REGEN_ENV}"
    )


def _golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH.name}; run with {REGEN_ENV}=1 to create it"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("engine", ["message", "vector", "process"])
@pytest.mark.parametrize("case", PAGERANK_CASES, ids=lambda c: f"n{c[0]}-k{c[1]}-s{c[2]}")
def test_pagerank_counts_match_golden(case, engine):
    if os.environ.get(REGEN_ENV):
        pytest.skip("regenerating")
    n, k, seed = case
    expected = _golden()[f"pagerank n={n} k={k} seed={seed}"]
    assert _pagerank_counts(n, k, seed, engine) == expected, (
        f"PageRank accounting drifted from golden (engine={engine}); if the "
        f"change is intentional, regenerate with {REGEN_ENV}=1"
    )


@pytest.mark.parametrize("engine", ["message", "vector", "process"])
@pytest.mark.parametrize("case", TRIANGLE_CASES, ids=lambda c: f"n{c[0]}-k{c[1]}-s{c[2]}")
def test_triangle_counts_match_golden(case, engine):
    if os.environ.get(REGEN_ENV):
        pytest.skip("regenerating")
    n, k, seed = case
    expected = _golden()[f"triangles n={n} k={k} seed={seed}"]
    assert _triangle_counts(n, k, seed, engine) == expected, (
        f"triangle accounting drifted from golden (engine={engine}); if the "
        f"change is intentional, regenerate with {REGEN_ENV}=1"
    )


@pytest.mark.parametrize("engine", ["message", "vector", "process"])
@pytest.mark.parametrize("case", SUBGRAPH_CASES, ids=lambda c: f"{c[0]}-n{c[1]}-k{c[2]}-s{c[3]}")
def test_subgraph_counts_match_golden(case, engine):
    if os.environ.get(REGEN_ENV):
        pytest.skip("regenerating")
    pattern, n, k, seed = case
    expected = _golden()[f"subgraphs-{pattern} n={n} k={k} seed={seed}"]
    assert _subgraph_counts(pattern, n, k, seed, engine) == expected, (
        f"{pattern} accounting drifted from golden (engine={engine}); if the "
        f"change is intentional, regenerate with {REGEN_ENV}=1"
    )
