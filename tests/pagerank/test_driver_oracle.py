"""The PageRank and triangle drivers against runs recorded from the drivers they replaced.

``pagerank_driver_oracle.json`` was recorded at commit 8726541 with
``resident=False``: the ship-everything PageRank driver (full token
arrays out, outbox fragments merged parent-side, a separate receive
kernel) and the per-machine Phase-3 shipping of the triangle driver.
Both were deleted once the resident drivers were the only ones in use;
this file is what is left of them as an independent implementation.
The surviving drivers must reproduce every entry, on every engine:

* ``star-like`` / ``rmat`` — default ``c = 16``, so ``T0 >= k`` and every
  vertex starts on the heavy path (batched β sampling and re-sampling);
* ``personalized`` — ``sources=``: most token tables start empty;
* ``light-only`` — ``enable_heavy_path=False`` on a hub that would be heavy;
* ``cutoff`` — ``max_iterations`` stops the run with tokens still live, so
  the last iteration's deliveries are folded in after the loop;
* ``sinks`` — a directed graph whose out-degree-0 vertices absorb tokens;
* ``triads`` — ``enumerate_triads=True``: the triangles, the open triads
  (machine-ascending, so group-assembled shipping must restore machine
  order) and the per-machine output counts.

Regenerate (only for an intentional change to the draws or the accounted
program)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/pagerank/test_driver_oracle.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kmachine.cluster import Cluster
from repro.workloads.generators import rmat_graph

ORACLE_PATH = Path(__file__).resolve().parent / "pagerank_driver_oracle.json"
REGEN_ENV = "REPRO_REGEN_GOLDEN"
ENGINES = ["message", "vector", "process"]


def _star_with_chords() -> repro.Graph:
    """A hub adjacent to everyone plus a ring on the leaves (star-like)."""
    n = 48
    hub = [(0, v) for v in range(1, n)]
    ring = [(v, v % (n - 1) + 1) for v in range(1, n)]
    return repro.Graph(n=n, edges=np.array(hub + ring, dtype=np.int64))


def _with_sinks() -> repro.Graph:
    """A directed G(40, 0.12) orientation whose last eight vertices have no out-edge."""
    edges = repro.gnp_random_graph(40, 0.12, seed=17).edges
    return repro.Graph(n=40, edges=edges[edges[:, 0] < 32], directed=True)


def _pagerank_cases() -> dict[str, dict]:
    """name -> graph, k, seed and the keyword arguments of the run."""
    rmat = rmat_graph(96, avg_deg=6, seed=3)
    return {
        "star-like": dict(graph=_star_with_chords(), k=4, seed=31),
        "rmat": dict(graph=rmat, k=4, seed=31),
        "personalized": dict(graph=rmat, k=4, seed=32, c=8.0,
                             sources=np.array([0, 5, 17, 60])),
        "light-only": dict(graph=repro.star_graph(64), k=4, seed=33, c=4.0,
                           enable_heavy_path=False),
        "cutoff": dict(graph=rmat, k=4, seed=34, max_iterations=3),
        "sinks": dict(graph=_with_sinks(), k=5, seed=35, c=6.0, eps=0.2),
    }


def _triangle_case() -> dict:
    # k = 27 gives q = 3 colors: ten owning machines, odd and even interleaved.
    return dict(graph=repro.gnp_random_graph(27, 0.2, seed=19), k=27, seed=36)


def _cluster(graph: repro.Graph, k: int, seed: int, engine: str) -> Cluster:
    """The cluster the entry point would build, with the worker count fixed."""
    workers = {"workers": 2} if engine == "process" else {}
    return Cluster(k=k, n=graph.n, seed=seed, engine=engine, **workers)


def _accounting(metrics) -> dict:
    return {
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.bits,
        "phases": [[p.label, p.rounds, p.messages] for p in metrics.phase_log],
    }


def _observe_pagerank(case: dict, engine: str) -> dict:
    """Everything the oracle pins for one PageRank case, JSON-ready."""
    case = dict(case)
    graph, k, seed = case.pop("graph"), case.pop("k"), case.pop("seed")
    with _cluster(graph, k, seed, engine) as cluster:
        res = repro.distributed_pagerank(graph, k=k, cluster=cluster, **case)
    return {
        "estimates_sha256": hashlib.sha256(res.estimates.tobytes()).hexdigest(),
        "iteration_stats": [list(dataclasses.astuple(s)) for s in res.iteration_stats],
        "accounting": _accounting(res.metrics),
    }


def _observe_triangles(case: dict, engine: str) -> dict:
    graph, k, seed = case["graph"], case["k"], case["seed"]
    with _cluster(graph, k, seed, engine) as cluster:
        res = repro.enumerate_triangles_distributed(
            graph, k=k, cluster=cluster, enumerate_triads=True
        )
    return {
        "triangles": res.triangles.tolist(),
        "open_triads": res.open_triads.tolist(),
        "per_machine_output": res.per_machine_output.tolist(),
        "accounting": _accounting(res.metrics),
    }


def test_regenerate_oracle():
    if not os.environ.get(REGEN_ENV):
        pytest.skip(f"set {REGEN_ENV}=1 to regenerate {ORACLE_PATH.name}")
    recorded = {name: _observe_pagerank(case, "vector")
                for name, case in _pagerank_cases().items()}
    recorded["triads"] = _observe_triangles(_triangle_case(), "vector")
    rows = [f" {json.dumps(name)}: {json.dumps(obs, separators=(',', ':'))}"
            for name, obs in recorded.items()]
    ORACLE_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")  # one case per line
    pytest.fail(f"regenerated {ORACLE_PATH.name}; review the diff and rerun without {REGEN_ENV}")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(_pagerank_cases()))
def test_pagerank_matches_recorded_run(name, engine):
    recorded = json.loads(ORACLE_PATH.read_text())[name]
    assert _observe_pagerank(_pagerank_cases()[name], engine) == recorded


@pytest.mark.parametrize("engine", ENGINES)
def test_triangles_match_recorded_run(engine):
    recorded = json.loads(ORACLE_PATH.read_text())["triads"]
    assert _observe_triangles(_triangle_case(), engine) == recorded


def test_cases_reach_what_they_are_there_for():
    """The recorded runs really contain what each case is there for."""
    recorded = json.loads(ORACLE_PATH.read_text())
    cases = _pagerank_cases()

    def live_after(name: str) -> list[int]:
        return [row[-1] for row in recorded[name]["iteration_stats"]]

    for name in ("star-like", "rmat"):
        res = repro.distributed_pagerank(cases[name]["graph"], k=4, seed=31, max_iterations=1)
        assert res.tokens_per_vertex >= 4  # every vertex starts heavy
        assert live_after(name)[-1] == 0  # and the run ends by termination detection
    assert len(live_after("cutoff")) == 3 and live_after("cutoff")[-1] > 0
    sinks = cases["sinks"]["graph"]
    assert sinks.directed and (np.diff(sinks.indptr) == 0).sum() >= 8
    triads = recorded["triads"]
    assert len(triads["open_triads"]) > 0 and len(triads["triangles"]) > 0
    assert sum(triads["per_machine_output"]) == len(triads["triangles"])
    # With two workers a group is the even or the odd machines, so group
    # order is not machine order: the driver has to restore it.
    owners = np.flatnonzero(triads["per_machine_output"])
    assert sorted(owners, key=lambda j: (j % 2, j)) != owners.tolist()
