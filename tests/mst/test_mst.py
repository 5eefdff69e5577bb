"""Tests for Kruskal reference, distributed Borůvka MST and connectivity."""

import numpy as np
import pytest

import networkx as nx

import repro
from repro.core.connectivity import connected_components_distributed
from repro.core.lowerbounds.extensions import mst_round_lower_bound
from repro.core.mst import distributed_mst, kruskal_mst
from repro.errors import AlgorithmError
from oracles import cycle_graph, empty_graph, path_graph, same_component, to_networkx


def nx_mst_weight(graph, weights):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for (u, v), w in zip(graph.edges, weights):
        g.add_edge(int(u), int(v), weight=float(w))
    forest = nx.minimum_spanning_edges(g, data=True)
    return sum(d["weight"] for _, _, d in forest)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry",
    [kruskal_mst, lambda g, w: distributed_mst(g, w, k=4, seed=0)],
    ids=["kruskal", "distributed"],
)
def test_non_finite_weight_is_rejected_naming_the_first_edge(entry, bad):
    # The (weight, index) order still sorts NaN and inf; the run used to
    # return a "forest" with total_weight nan/inf.
    g = cycle_graph(6)
    w = np.arange(6, dtype=float)
    w[[2, 4]] = bad
    with pytest.raises(AlgorithmError, match=r"finite.*edge index 2\b"):
        entry(g, w)


@pytest.mark.parametrize("bad", [0, -3, True, 2.5])
def test_max_phases_must_be_an_int_of_at_least_one(monkeypatch, bad):
    # 0 and -3 used to return an empty "forest", True ran one phase and
    # 2.5 raised a bare TypeError.  The check comes before any cluster.
    def no_cluster(*args, **kwargs):
        raise AssertionError("a cluster was built before max_phases was checked")

    monkeypatch.setattr("repro.core.mst.distributed.Cluster", no_cluster)
    g = cycle_graph(6)
    with pytest.raises(AlgorithmError, match=r"max_phases must be an int >= 1"):
        distributed_mst(g, np.arange(6, dtype=float), k=4, seed=0, max_phases=bad)


def test_max_phases_accepts_numpy_ints():
    g = cycle_graph(6)
    w = np.arange(6, dtype=float)
    one = distributed_mst(g, w, k=4, seed=0, max_phases=np.int64(1))
    assert one.phases == 1
    assert distributed_mst(g, w, k=4, seed=0, max_phases=1).edges.tolist() == one.edges.tolist()


class TestKruskal:
    def test_path_graph_takes_all_edges(self):
        g = path_graph(5)
        w = np.arange(4, dtype=float)
        edges, total = kruskal_mst(g, w)
        assert edges.shape[0] == 4
        assert total == 6.0

    def test_cycle_drops_heaviest(self):
        g = cycle_graph(4)
        w = np.array([1.0, 2.0, 3.0, 10.0])
        edges, total = kruskal_mst(g, w)
        assert edges.shape[0] == 3
        assert total == 6.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_networkx_weight(self, seed):
        g = repro.gnp_random_graph(50, 0.15, seed=seed)
        w = np.random.default_rng(seed).random(g.m)
        _, total = kruskal_mst(g, w)
        assert total == pytest.approx(nx_mst_weight(g, w))

    def test_forest_on_disconnected(self):
        g = repro.Graph(n=6, edges=[(0, 1), (1, 2), (3, 4)])
        w = np.array([1.0, 1.0, 1.0])
        edges, total = kruskal_mst(g, w)
        assert edges.shape[0] == 3  # spanning forest keeps everything

    def test_rejects_bad_weights(self):
        g = cycle_graph(4)
        with pytest.raises(AlgorithmError):
            kruskal_mst(g, np.ones(3))

    def test_rejects_directed(self):
        g = path_graph(4, directed=True)
        with pytest.raises(AlgorithmError):
            kruskal_mst(g, np.ones(3))


class TestDistributedMST:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_kruskal_exactly(self, seed):
        g = repro.gnp_random_graph(100, 0.06, seed=seed)
        w = np.random.default_rng(seed + 50).random(g.m)
        ref_edges, ref_total = kruskal_mst(g, w)
        res = distributed_mst(g, w, k=8, seed=seed)
        assert res.total_weight == pytest.approx(ref_total)
        assert np.array_equal(
            np.unique(res.edges, axis=0), np.unique(ref_edges, axis=0)
        )

    def test_complete_graph_random_weights(self):
        # The paper's §1.3 MST lower-bound input.
        g = repro.complete_graph(50)
        w = np.random.default_rng(7).random(g.m)
        ref_edges, ref_total = kruskal_mst(g, w)
        res = distributed_mst(g, w, k=8, seed=8)
        assert res.edges.shape[0] == 49
        assert res.total_weight == pytest.approx(ref_total)
        assert res.num_components == 1

    def test_forest_on_disconnected_graph(self):
        g = repro.Graph(n=8, edges=[(0, 1), (1, 2), (4, 5), (5, 6), (6, 7)])
        w = np.arange(5, dtype=float)
        res = distributed_mst(g, w, k=4, seed=9)
        assert res.edges.shape[0] == 5
        assert res.num_components == 3  # {0,1,2}, {3}, {4..7}

    def test_output_is_acyclic_and_spanning(self):
        g = repro.gnp_random_graph(80, 0.1, seed=10)
        w = np.random.default_rng(11).random(g.m)
        res = distributed_mst(g, w, k=8, seed=12)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(map(tuple, res.edges))
        assert nx.is_forest(nxg)
        full = nx.Graph()
        full.add_nodes_from(range(g.n))
        full.add_edges_from(map(tuple, g.edges))
        assert nx.number_connected_components(nxg) == nx.number_connected_components(full)

    def test_phase_count_logarithmic(self):
        g = repro.gnp_random_graph(200, 0.05, seed=13)
        w = np.random.default_rng(14).random(g.m)
        res = distributed_mst(g, w, k=8, seed=15)
        assert res.phases <= np.ceil(np.log2(200)) + 1

    def test_deterministic(self):
        g = repro.gnp_random_graph(60, 0.1, seed=16)
        w = np.random.default_rng(17).random(g.m)
        a = distributed_mst(g, w, k=8, seed=18)
        b = distributed_mst(g, w, k=8, seed=18)
        assert np.array_equal(a.edges, b.edges)
        assert a.rounds == b.rounds

    def test_rounds_respect_section13_lower_bound(self):
        g = repro.complete_graph(120)
        w = np.random.default_rng(19).random(g.m)
        B = 16
        res = distributed_mst(g, w, k=8, seed=20, bandwidth=B)
        assert res.rounds >= mst_round_lower_bound(g.n, 8, B)

    def test_rounds_improve_with_k(self):
        g = repro.gnp_random_graph(600, 0.05, seed=21)
        w = np.random.default_rng(22).random(g.m)
        B = 16
        r4 = distributed_mst(g, w, k=4, seed=23, bandwidth=B).rounds
        r16 = distributed_mst(g, w, k=16, seed=23, bandwidth=B).rounds
        assert r16 < r4

    def test_metrics_consistent(self):
        g = repro.gnp_random_graph(60, 0.1, seed=24)
        w = np.random.default_rng(25).random(g.m)
        res = distributed_mst(g, w, k=4, seed=26)
        res.metrics.check_conservation()

    def test_rejects_mismatched_weights(self):
        g = cycle_graph(5)
        with pytest.raises(AlgorithmError):
            distributed_mst(g, np.ones(4), k=4)

    def test_empty_graph(self):
        g = empty_graph(5)
        res = distributed_mst(g, np.zeros(0), k=4, seed=0)
        assert res.edges.shape[0] == 0
        assert res.num_components == 5


class TestConnectivity:
    def test_components_match_networkx(self):
        g = repro.Graph(n=12, edges=[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])
        res = connected_components_distributed(g, k=4, seed=0)
        nxg = to_networkx(g)
        assert res.num_components == nx.number_connected_components(nxg)
        for comp in nx.connected_components(nxg):
            labels = {int(res.labels[v]) for v in comp}
            assert len(labels) == 1
            assert min(comp) in labels  # canonical: min vertex id

    def test_connected_random_graph(self):
        g = repro.gnp_random_graph(100, 0.1, seed=1)
        res = connected_components_distributed(g, k=8, seed=2)
        assert res.num_components == nx.number_connected_components(to_networkx(g))
        assert res.spanning_forest.shape[0] == g.n - res.num_components

    def test_same_component_queries(self):
        g = repro.Graph(n=5, edges=[(0, 1), (2, 3)])
        res = connected_components_distributed(g, k=2, seed=3)
        assert same_component(res, 0, 1)
        assert not same_component(res, 1, 2)
        assert not res.is_connected()
