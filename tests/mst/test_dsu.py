"""Unit tests for the union-find substrate."""

import numpy as np
import pytest

from repro.core.mst.dsu import DisjointSetUnion


class TestDSU:
    def test_initially_all_singletons(self):
        dsu = DisjointSetUnion(5)
        assert dsu.num_components == 5
        assert len({dsu.find(i) for i in range(5)}) == 5

    def test_union_merges(self):
        dsu = DisjointSetUnion(4)
        assert dsu.union(0, 1)
        assert dsu.find(0) == dsu.find(1)
        assert dsu.find(0) != dsu.find(2)
        assert dsu.num_components == 3

    def test_union_idempotent(self):
        dsu = DisjointSetUnion(3)
        assert dsu.union(0, 1)
        assert not dsu.union(1, 0)
        assert dsu.num_components == 2

    def test_transitivity(self):
        dsu = DisjointSetUnion(6)
        dsu.union(0, 1)
        dsu.union(1, 2)
        dsu.union(3, 4)
        assert dsu.find(0) == dsu.find(2)
        assert dsu.find(2) != dsu.find(3)
        dsu.union(2, 3)
        assert dsu.find(0) == dsu.find(4)

    def test_component_labels_consistent(self):
        dsu = DisjointSetUnion(8)
        for a, b in [(0, 1), (2, 3), (4, 5), (0, 2)]:
            dsu.union(a, b)
        labels = [dsu.find(v) for v in range(8)]
        assert labels[0] == labels[1] == labels[2] == labels[3]
        assert labels[4] == labels[5]
        assert labels[0] != labels[4]
        assert labels[6] != labels[7]

    def test_matches_networkx_components(self):
        import networkx as nx

        rng = np.random.default_rng(0)
        n = 60
        edges = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(100, 2)) if a != b]
        dsu = DisjointSetUnion(n)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for a, b in edges:
            dsu.union(a, b)
            g.add_edge(a, b)
        assert dsu.num_components == nx.number_connected_components(g)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            DisjointSetUnion(-1)

    def test_zero_elements(self):
        dsu = DisjointSetUnion(0)
        assert dsu.num_components == 0
