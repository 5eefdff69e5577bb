"""The sort-free MWOE scan against the two-key ``lexsort`` scan it replaced.

``lexsort_scan`` and ``legacy_payloads`` are the kernel and the flow-2
payload construction of commit 779b7e4, kept here as the oracle: each
machine's proposals — one row per (crossing edge, endpoint hosted
there) with the endpoint's component, the edge id and the edge's global
rank — sorted by (component, rank) and cut at the first row of every
component.  :func:`repro.core.mst.distributed._mwoe_scan_task` returns
``(comp, rank)`` rows; mapped back to edges through the stable rank
order they must be the oracle's ``(comp, edge)`` rows, in the same order
and dtype, on every engine.  The scan reads no row order, so permuting a
machine's rows changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mst.distributed import _mwoe_scan_task, _scan_tables
from repro.graphs.graph import Graph
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph
from repro.kmachine.partition import VertexPartition

_EMPTY = np.zeros(0, dtype=np.int64)


def lexsort_scan(comp: np.ndarray, edge: np.ndarray, rank: np.ndarray) -> dict:
    """One machine's reduction as the parent commit's kernel computed it."""
    if comp.size == 0:
        return {"comp": _EMPTY, "edge": _EMPTY}
    order = np.lexsort((rank, comp))
    comp, edge = comp[order], edge[order]
    first = np.ones(comp.size, dtype=bool)
    first[1:] = np.diff(comp) != 0
    return {"comp": comp[first], "edge": edge[first]}


def legacy_payloads(dg: DistributedGraph, labels: np.ndarray, rank_of: np.ndarray) -> list[dict]:
    """Per-machine proposal rows as the parent commit's driver built them."""
    edges = dg.graph.edges
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    ce = np.flatnonzero(lu != lv)
    eh0, eh1 = dg.edge_homes
    prop_edge = np.concatenate([ce, ce])
    prop_comp = np.concatenate([lu[ce], lv[ce]])
    groups = dg.group_by_machine(np.concatenate([eh0[ce], eh1[ce]]))
    return [
        {"comp": prop_comp[idx], "edge": prop_edge[idx], "rank": rank_of[prop_edge[idx]]}
        for idx in groups
    ]


def rank_scans(dg, labels, engine: str, tables: list[dict]) -> list[dict]:
    """The kernel under test on ``tables``, dispatched the way the driver does."""
    edges = dg.graph.edges
    common = {"labels": labels, "crossing": np.not_equal(*labels[edges].T)}
    workers = {"workers": 2} if engine == "process" else {}
    with Cluster(k=dg.k, n=max(2, dg.n), seed=0, engine=engine, **workers) as cluster:
        handle = cluster.install_resident(tables, distgraph=dg)
        try:
            return cluster.map_machines(
                _mwoe_scan_task, dg, [None] * dg.k, common=common, resident=handle
            )
        finally:
            cluster.drop_resident(handle)


def new_scans(dg, weights, labels, engine: str) -> list[dict]:
    """The scans' ``(comp, rank)`` rows mapped back to ``(comp, edge)`` rows."""
    by_rank = np.argsort(weights, kind="stable")
    scans = rank_scans(dg, labels, engine, _scan_tables(dg, by_rank))
    for scan in scans:
        assert scan["rank"].dtype == np.int64
    return [{"comp": scan["comp"], "edge": by_rank[scan["rank"]]} for scan in scans]


def assert_matches_oracle(dg, weights, labels, engine):
    m = dg.graph.m
    rank_of = np.empty(m, dtype=np.int64)
    rank_of[np.lexsort((np.arange(m), weights))] = np.arange(m)
    expected = [lexsort_scan(**rows) for rows in legacy_payloads(dg, labels, rank_of)]
    got = new_scans(dg, weights, labels, engine)
    assert len(got) == len(expected) == dg.k
    for machine, (new, old) in enumerate(zip(got, expected)):
        for column in ("comp", "edge"):
            assert new[column].dtype == old[column].dtype == np.int64, (machine, column)
            assert np.array_equal(new[column], old[column]), (machine, column)


@st.composite
def scan_states(draw):
    """A graph, a placement, a weight vector and a label state.

    Placements are arbitrary ``home`` arrays, so machines may host both
    endpoints of an edge, many vertices or none.  Labels are any map
    into vertex ids: the identity (phase 1), a few components, or one
    (no crossing edge anywhere).  Weights come from a small set, or are
    all ones as connectivity's, so ties on weight are the rule.
    """
    n = draw(st.integers(2, 24))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=60, unique=True))
    graph = Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
    k = draw(st.integers(2, 6))
    home = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    dg = DistributedGraph(graph, VertexPartition(home=np.array(home, dtype=np.int64), k=k))
    if draw(st.booleans()):
        weights = np.ones(graph.m)
    else:
        drawn = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=graph.m, max_size=graph.m)
        weights = np.array(draw(drawn), dtype=np.float64)
    components = draw(st.integers(1, n))
    if components == n:
        labels = np.arange(n, dtype=np.int64)
    else:
        roots = draw(st.lists(st.integers(0, n - 1), min_size=components, max_size=components))
        member = draw(st.lists(st.integers(0, components - 1), min_size=n, max_size=n))
        labels = np.array(roots, dtype=np.int64)[member]
    return dg, weights, labels


@pytest.mark.parametrize("engine", ["message", "vector"])
@given(state=scan_states())
@settings(max_examples=60, deadline=None)
def test_scan_matches_lexsort_oracle_inline(engine, state):
    assert_matches_oracle(*state, engine)


@given(state=scan_states())
@settings(max_examples=8, deadline=None)
def test_scan_matches_lexsort_oracle_process(state):
    assert_matches_oracle(*state, "process")


def _fixed(n, edges, home, k, labels, weights=None):
    graph = Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
    dg = DistributedGraph(graph, VertexPartition(home=np.array(home, dtype=np.int64), k=k))
    weights = np.ones(graph.m) if weights is None else np.asarray(weights, dtype=np.float64)
    return dg, weights, np.array(labels, dtype=np.int64)


def test_machine_hosting_both_endpoints_proposes_for_both():
    # Edge (0, 1) lives wholly on machine 0: one row per endpoint, and each
    # endpoint's component gets its own candidate from the same machine.
    state = _fixed(3, [(0, 1), (1, 2)], home=[0, 0, 1], k=2, labels=[0, 1, 2], weights=[1.0, 2.0])
    assert_matches_oracle(*state, "vector")
    scans = new_scans(*state, "vector")
    assert scans[0]["comp"].tolist() == [0, 1] and scans[0]["edge"].tolist() == [0, 0]
    assert scans[1]["comp"].tolist() == [2] and scans[1]["edge"].tolist() == [1]


def test_single_component_and_idle_machines_return_empty_int64():
    state = _fixed(4, [(0, 1), (1, 2), (2, 3)], home=[0, 0, 0, 0], k=3, labels=[2, 2, 2, 2])
    assert_matches_oracle(*state, "vector")
    for scan in new_scans(*state, "vector"):
        assert scan["comp"].size == scan["edge"].size == 0
        assert scan["comp"].dtype == scan["edge"].dtype == np.int64


def test_equal_weights_break_ties_by_edge_index():
    # All ones: component 5 = {0, 1} sees all four edges; the lowest index wins.
    state = _fixed(6, [(0, 2), (0, 3), (1, 4), (1, 5)], home=[0, 0, 1, 1, 1, 1], k=2,
                   labels=[5, 5, 2, 3, 4, 1])
    assert_matches_oracle(*state, "vector")
    scan = new_scans(*state, "vector")[0]
    assert scan["comp"].tolist() == [5] and scan["edge"].tolist() == [0]


def _permuted(tables: list[dict], seed: int) -> list[dict]:
    """Each machine's rows in a random order, the columns permuted alike."""
    rng = np.random.default_rng(seed)
    out = []
    for table in tables:
        perm = rng.permutation(table["edge"].size)
        out.append({column: values[perm] for column, values in table.items()})
    return out


@given(state=scan_states(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scan_output_does_not_depend_on_row_order(state, seed):
    dg, weights, labels = state
    for by_rank in (np.argsort(weights, kind="stable"), None):
        tables = _scan_tables(dg, by_rank)
        expected = rank_scans(dg, labels, "vector", tables)
        got = rank_scans(dg, labels, "vector", _permuted(tables, seed))
        for new, old in zip(got, expected):
            for column in ("comp", "rank"):
                assert new[column].dtype == np.int64
                assert np.array_equal(new[column], old[column]), column


@pytest.mark.parametrize("engine", ["vector", "process"])
def test_empty_graph_and_machines_without_rows_return_empty_int64(engine):
    # No edges at all, then machine 1 of 3 hosting no vertex: every scan
    # that sees no crossing row returns empty int64 columns.
    empty = _fixed(5, [], home=[0, 2, 0, 2, 2], k=3, labels=range(5))
    sparse = _fixed(5, [(0, 2), (3, 4)], home=[0, 2, 0, 2, 2], k=3, labels=range(5))
    for dg, weights, labels in (empty, sparse):
        for by_rank in (np.argsort(weights, kind="stable"), None):
            scans = rank_scans(dg, labels, engine, _scan_tables(dg, by_rank))
            for machine, scan in enumerate(scans):
                assert scan["comp"].dtype == scan["rank"].dtype == np.int64
                if dg.graph.m == 0 or machine == 1:
                    assert scan["comp"].size == scan["rank"].size == 0, machine
