"""The Borůvka driver against values recorded before it was vectorised.

``boruvka_driver_oracle.json`` was recorded at commit 779b7e4, whose
driver walked the merge forest with Python dicts and per-element loops.
The accounted program — every phase label, its rounds, bits, messages and
local messages — and the results are required to stay exactly what that
driver produced, on graphs picked to reach each loop it had:

* ``pair`` — one edge: both components choose it, the 2-cycle merge;
* ``chain`` — a path with increasing weights: every vertex points at its
  predecessor, so the merge forest is one long chain and star
  contraction needs several pointer-jump rounds;
* ``star`` — the hub has the largest label, so after the 2-cycle breaks
  toward the smaller label the hub is a merge target that is not a root;
* ``isolated`` / ``disconnected`` — vertices and components with no
  crossing edge, which never propose and must keep their labels;
* ``ties`` — all weights equal (connectivity's input), order by index;
* ``sparse`` — a larger sparse graph that takes several phases;
* ``cutoff`` — ``max_phases=1`` stops mid-run: the component count must
  be the partial forest's;
* ``empty`` — ``m = 0``.

Regenerate (only for an intentional change to the accounted program)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/mst/test_boruvka_driver.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core.connectivity import connected_components_distributed
from repro.core.mst import distributed_mst
from repro.core.mst.distributed import boruvka_forest
from repro.kmachine.metrics import Metrics
from oracles import empty_graph, path_graph

ORACLE_PATH = Path(__file__).resolve().parent / "boruvka_driver_oracle.json"
REGEN_ENV = "REPRO_REGEN_GOLDEN"


def _two_blobs() -> repro.Graph:
    a = repro.gnp_random_graph(14, 0.3, seed=5).edges
    b = repro.gnp_random_graph(11, 0.35, seed=6).edges + 14
    return repro.Graph(n=27, edges=np.vstack([a, b]))  # 25, 26 isolated


def _cases() -> dict[str, dict]:
    """name -> graph, weights, k, seed and optional max_phases."""
    gnp = repro.gnp_random_graph(60, 0.08, seed=31)
    blobs = _two_blobs()
    sparse = repro.gnp_random_graph(150, 0.02, seed=41)
    return {
        "pair": dict(graph=path_graph(2), weights=np.array([1.5]), k=2, seed=1),
        "chain": dict(graph=path_graph(24), weights=np.arange(23, dtype=float), k=4, seed=2),
        "star": dict(graph=repro.star_graph(9, center=8),
                     weights=np.array([4.0, 7.0, 1.0, 3.0, 8.0, 2.0, 6.0, 5.0]), k=3, seed=3),
        "isolated": dict(graph=repro.Graph(n=9, edges=[(0, 1), (1, 2), (4, 5)]),
                         weights=np.array([2.0, 1.0, 3.0]), k=4, seed=4),
        "disconnected": dict(graph=blobs,
                             weights=np.random.default_rng(8).random(blobs.m), k=4, seed=5),
        "ties": dict(graph=gnp, weights=np.ones(gnp.m), k=8, seed=6),
        "sparse": dict(graph=sparse, weights=np.random.default_rng(10).random(sparse.m), k=5,
                       seed=9),
        "cutoff": dict(graph=gnp, weights=np.random.default_rng(9).random(gnp.m), k=4, seed=7,
                       max_phases=1),
        "empty": dict(graph=empty_graph(5), weights=np.zeros(0), k=4, seed=8),
    }


def _run_logged(monkeypatch, fn, *args, **kwargs):
    """Run ``fn`` and return (result, per-phase log incl. local messages)."""
    locals_seen: list[int] = []
    record_phase = Metrics.record_phase

    def spy(self, bits, msgs, label="", local_messages=0):
        locals_seen.append(int(local_messages))
        return record_phase(self, bits, msgs, label=label, local_messages=local_messages)

    with monkeypatch.context() as patch:
        patch.setattr(Metrics, "record_phase", spy)
        result = fn(*args, **kwargs)
    log = [
        {**dataclasses.asdict(stats), "local_messages": local}
        for stats, local in zip(result.metrics.phase_log, locals_seen, strict=True)
    ]
    return result, log


def _observe(monkeypatch, case: dict, **run) -> dict:
    """Everything the oracle pins for one case, JSON-ready."""
    g, k, seed = case["graph"], case["k"], case["seed"]
    mst, mst_log = _run_logged(
        monkeypatch, distributed_mst, g, case["weights"], k=k, seed=seed,
        max_phases=case.get("max_phases"), **run,
    )
    cc, cc_log = _run_logged(
        monkeypatch, connected_components_distributed, g, k=k, seed=seed, **run
    )
    return {
        "mst": {
            "phase_log": mst_log,
            "phases": mst.phases,
            "num_components": mst.num_components,
            "edges": mst.edges.tolist(),
            "total_weight": mst.total_weight,
            "local_messages": mst.metrics.local_messages,
        },
        "connectivity": {
            "phase_log": cc_log,
            "num_components": cc.num_components,
            "labels": cc.labels.tolist(),
            "spanning_forest": cc.spanning_forest.tolist(),
        },
    }


def test_regenerate_oracle(monkeypatch):
    if not os.environ.get(REGEN_ENV):
        pytest.skip(f"set {REGEN_ENV}=1 to regenerate {ORACLE_PATH.name}")
    recorded = {name: _observe(monkeypatch, case) for name, case in _cases().items()}
    rows = [f" {json.dumps(name)}: {json.dumps(obs, separators=(',', ':'))}"
            for name, obs in recorded.items()]
    ORACLE_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")  # one case per line
    pytest.fail(f"regenerated {ORACLE_PATH.name}; review the diff and rerun without {REGEN_ENV}")


@pytest.mark.parametrize("engine", ["message", "vector", "process"])
@pytest.mark.parametrize("name", sorted(_cases()))
def test_driver_matches_recorded_run(monkeypatch, name, engine):
    recorded = json.loads(ORACLE_PATH.read_text())[name]
    assert _observe(monkeypatch, _cases()[name], engine=engine) == recorded


def test_cases_reach_the_replaced_loops():
    """The recorded runs really contain what each case is there for."""
    recorded = json.loads(ORACLE_PATH.read_text())

    def jump_rounds(name: str, phase: int) -> int:
        log = recorded[name]["mst"]["phase_log"]
        return sum(row["label"] == f"mst/jump-query/{phase}" for row in log)

    assert recorded["pair"]["mst"]["phases"] == 1 and jump_rounds("pair", 1) == 0
    assert jump_rounds("chain", 1) >= 2
    assert jump_rounds("star", 1) >= 1
    assert recorded["cutoff"]["mst"]["phases"] == 1
    cutoff = recorded["cutoff"]
    assert cutoff["mst"]["num_components"] > cutoff["connectivity"]["num_components"]
    assert recorded["empty"]["mst"]["phase_log"] == []


@pytest.mark.parametrize("name", sorted(_cases()))
def test_labels_and_counts_match_networkx(name):
    case = _cases()[name]
    g = case["graph"]
    res = distributed_mst(g, case["weights"], k=case["k"], seed=case["seed"],
                          max_phases=case.get("max_phases"))
    forest = nx.Graph()
    forest.add_nodes_from(range(g.n))
    forest.add_edges_from(map(tuple, res.edges))
    # Also under a max_phases cut-off: the labels are the partial forest's.
    assert nx.is_forest(forest)
    assert res.num_components == nx.number_connected_components(forest)

    cc = connected_components_distributed(g, k=case["k"], seed=case["seed"])
    full = nx.Graph()
    full.add_nodes_from(range(g.n))
    full.add_edges_from(map(tuple, g.edges))
    expected = np.empty(g.n, dtype=np.int64)
    for comp in nx.connected_components(full):
        expected[list(comp)] = min(comp)
    assert cc.labels.dtype == np.int64
    assert np.array_equal(cc.labels, expected)
    assert cc.num_components == nx.number_connected_components(full)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_root_count_is_the_distinct_label_count(name):
    # ``num_components`` counts the labels that label themselves; every
    # final label is such a root, under a max_phases cut-off too.
    case = _cases()[name]
    run = dict(k=case["k"], seed=case["seed"], max_phases=case.get("max_phases"))
    _, labels, _, _ = boruvka_forest(case["graph"], case["weights"], **run)
    distinct = np.unique(labels)
    assert np.array_equal(labels[distinct], distinct)
    mst = distributed_mst(case["graph"], case["weights"], **run)
    recorded = json.loads(ORACLE_PATH.read_text())[name]["mst"]["num_components"]
    assert mst.num_components == distinct.size == recorded
