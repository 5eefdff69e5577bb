"""The Borůvka driver's sort-free pieces against the sorts they replaced.

* :func:`_rank_order` must be ``np.argsort(weights, kind="stable")`` bit
  for bit, ties included: the scans' rank column, the proxies' minimum
  and so every accounted flow follow it.
* Connectivity passes ``weights=None``, whose order is the edge-index
  order, i.e. the stable sort of unit weights: the scans rank its rows
  by edge id.
* :func:`_machine_labels` must give the (machine, label) pair set that
  ``np.unique(home * span + labels)`` decodes to; flow 4 accounts one
  query per pair, in any order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.connectivity import connected_components_distributed
from repro.core.mst import distributed
from repro.core.mst.distributed import _machine_labels, _rank_order, boruvka_forest
from repro.kmachine.partition import VertexPartition

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _assert_stable_order(weights: np.ndarray) -> None:
    got = _rank_order(weights)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(weights, kind="stable"))


@st.composite
def generated_weights(draw):
    """Arrays long enough that NumPy's default sort really is unstable."""
    m = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["three", "equal", "zeros", "random", "runs"]))
    if kind == "three":
        return rng.choice([0.5, 1.0, 2.0], size=m)
    if kind == "equal":
        return np.full(m, draw(_FINITE))
    if kind == "zeros":
        return rng.choice([-0.0, 0.0, 1.0], size=m)
    if kind == "random":
        return rng.random(m)
    # Mostly distinct weights with a few long tied runs among them.
    weights = rng.random(m)
    weights[rng.random(m) < 0.3] = 0.25
    weights[rng.random(m) < 0.1] = 0.75
    return weights


@given(weights=st.lists(st.sampled_from([0.5, 1.0, 2.0]), max_size=300))
@settings(max_examples=80, deadline=None)
def test_rank_order_on_three_weight_values(weights):
    _assert_stable_order(np.array(weights, dtype=np.float64))


@given(weights=st.lists(st.sampled_from([-0.0, 0.0]), max_size=300))
@settings(max_examples=60, deadline=None)
def test_rank_order_keeps_signed_zeros_in_index_order(weights):
    # -0.0 == 0.0, so a run of mixed zeros is one tie: index order.
    weights = np.array(weights, dtype=np.float64)
    assert np.array_equal(_rank_order(weights), np.arange(weights.size))


@given(weights=st.lists(_FINITE, max_size=300))
@settings(max_examples=80, deadline=None)
def test_rank_order_on_arbitrary_floats(weights):
    _assert_stable_order(np.array(weights, dtype=np.float64))


@given(weights=generated_weights())
@settings(max_examples=60, deadline=None)
def test_rank_order_on_long_arrays(weights):
    _assert_stable_order(weights)


@pytest.mark.parametrize("m", [0, 1, 2, 17, 4096])
def test_rank_order_on_all_equal_weights_is_index_order(m):
    assert np.array_equal(_rank_order(np.full(m, 3.5)), np.arange(m))


@pytest.mark.parametrize("weights", [[], [2.0], [-0.0], [0.0]])
def test_rank_order_on_zero_and_one_edges(weights):
    _assert_stable_order(np.array(weights, dtype=np.float64))


@pytest.mark.parametrize("n, p", [(2, 1.0), (40, 0.3), (300, 0.05)])
def test_connectivity_ranks_edges_as_the_stable_sort_of_unit_weights(monkeypatch, n, p):
    seen = []

    def spy(dg, by_rank):
        tables = scan_tables(dg, by_rank)
        seen.append(tables)
        return tables

    scan_tables = distributed._scan_tables
    monkeypatch.setattr(distributed, "_scan_tables", spy)
    g = repro.gnp_random_graph(n, p, seed=n)
    connected_components_distributed(g, k=4, seed=1)
    [tables] = seen
    rank_of = np.empty(g.m, dtype=np.int64)
    rank_of[np.argsort(np.ones(g.m), kind="stable")] = np.arange(g.m)
    for table in tables:
        # The scan ranks a row by its ``rank`` column, else by its edge id.
        rank = table.get("rank", table["edge"])
        assert np.array_equal(rank, rank_of[table["edge"]])


@pytest.mark.parametrize("engine", ["vector", "message"])
def test_no_weights_runs_as_unit_weights(engine):
    g = repro.gnp_random_graph(80, 0.06, seed=12)
    forest, labels, phases, metrics = boruvka_forest(g, None, k=5, seed=3, engine=engine)
    unit = boruvka_forest(g, np.ones(g.m), k=5, seed=3, engine=engine)
    assert np.array_equal(forest, unit[0]) and np.array_equal(labels, unit[1])
    assert phases == unit[2]
    assert [s.as_dict() for s in metrics.phase_log] == [s.as_dict() for s in unit[3].phase_log]
    cc = connected_components_distributed(g, k=5, seed=3, engine=engine)
    assert np.array_equal(cc.spanning_forest, g.edges[forest])


@st.composite
def placements(draw):
    """A home array (machines may host nothing) and a label state."""
    k = draw(st.integers(1, 7))
    n = draw(st.integers(1, 40))
    home = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    shape = draw(st.sampled_from(["identity", "single", "roots"]))
    if shape == "identity":
        labels = np.arange(n, dtype=np.int64)
    elif shape == "single":
        labels = np.full(n, draw(st.integers(0, n - 1)), dtype=np.int64)
    else:
        labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
                          dtype=np.int64)
    return VertexPartition(home=home, k=k), labels


@given(state=placements())
@settings(max_examples=150, deadline=None)
def test_machine_labels_is_the_unique_pair_set(state):
    partition, labels = state
    machine, comp = _machine_labels(partition.vertices_by_machine(), labels)
    span = labels.max() + 1
    want_machine, want_comp = np.divmod(np.unique(partition.home * span + labels), span)
    order = np.lexsort((comp, machine))
    assert np.array_equal(machine[order], want_machine)
    assert np.array_equal(comp[order], want_comp)


def test_machine_labels_with_empty_machines_and_one_label():
    partition = VertexPartition(home=np.array([3, 3, 0, 3], dtype=np.int64), k=5)
    machine, comp = _machine_labels(partition.vertices_by_machine(), np.full(4, 2))
    assert sorted(zip(machine.tolist(), comp.tolist())) == [(0, 2), (3, 2)]
