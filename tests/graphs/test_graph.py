"""Unit tests for the CSR Graph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.graph import Graph
from oracles import (
    adjacency_matrix,
    from_networkx,
    has_edge,
    in_degrees,
    in_neighbors,
    max_degree,
    neighbors,
    out_neighbors,
    to_networkx,
)


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(n=5)
        assert g.n == 5 and g.m == 0
        assert out_neighbors(g, 0).size == 0

    def test_undirected_neighbors_both_sides(self):
        g = Graph(n=4, edges=[(0, 1), (1, 2)])
        assert neighbors(g, 1).tolist() == [0, 2]
        assert neighbors(g, 0).tolist() == [1]
        assert neighbors(g, 3).tolist() == []

    def test_undirected_canonicalizes_order(self):
        g = Graph(n=3, edges=[(2, 0)])
        assert g.edges.tolist() == [[0, 2]]

    def test_directed_adjacency_one_sided(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2)], directed=True)
        assert out_neighbors(g, 0).tolist() == [1]
        assert out_neighbors(g, 1).tolist() == [2]
        assert out_neighbors(g, 2).tolist() == []
        assert in_neighbors(g, 2).tolist() == [1]
        assert in_neighbors(g, 0).tolist() == []

    def test_neighbor_lists_sorted(self):
        g = Graph(n=5, edges=[(0, 4), (0, 2), (0, 1), (0, 3)])
        assert neighbors(g, 0).tolist() == [1, 2, 3, 4]

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(n=3, edges=[(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(n=3, edges=[(0, 1), (0, 1)])

    def test_rejects_reversed_duplicate_undirected(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(n=3, edges=[(0, 1), (1, 0)])

    def test_directed_antiparallel_allowed(self):
        g = Graph(n=3, edges=[(0, 1), (1, 0)], directed=True)
        assert g.m == 2

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="range"):
            Graph(n=3, edges=[(0, 3)])

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphError, match="shape"):
            Graph(n=3, edges=np.array([[0, 1, 2]]))


class TestQueries:
    def test_degrees_undirected(self):
        g = Graph(n=4, edges=[(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]
        assert max_degree(g) == 3

    def test_degrees_directed(self):
        g = Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)], directed=True)
        assert g.out_degrees().tolist() == [2, 1, 0]
        assert in_degrees(g).tolist() == [0, 1, 2]
        assert g.degrees().tolist() == [2, 2, 2]

    def test_has_edge(self):
        g = Graph(n=4, edges=[(0, 1), (2, 3)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert has_edge(g, 2, 3)
        assert not has_edge(g, 0, 2)

    def test_has_edge_directed_is_oriented(self):
        g = Graph(n=3, edges=[(0, 1)], directed=True)
        assert has_edge(g, 0, 1)
        assert not has_edge(g, 1, 0)

    def test_subgraph_edges(self):
        g = Graph(n=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = g.subgraph_edges(np.array([1, 2, 3]))
        assert sub.tolist() == [[1, 2], [2, 3]]

    def test_adjacency_matrix_symmetry(self):
        g = Graph(n=4, edges=[(0, 1), (2, 3)])
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert a[0, 1] and a[3, 2]

    def test_vertex_range_check(self):
        g = Graph(n=3)
        with pytest.raises(GraphError):
            out_neighbors(g, 3)

    def test_neighbors_rejects_directed(self):
        g = Graph(n=3, edges=[(0, 1)], directed=True)
        with pytest.raises(GraphError):
            neighbors(g, 0)


class TestNetworkxRoundTrip:
    def test_undirected_round_trip(self):
        import networkx as nx

        g = Graph(n=6, edges=[(0, 1), (1, 2), (3, 4)])
        nxg = to_networkx(g)
        assert isinstance(nxg, nx.Graph)
        back = from_networkx(nxg)
        assert np.array_equal(back.edges, g.edges)

    def test_directed_round_trip(self):
        import networkx as nx

        g = Graph(n=4, edges=[(0, 1), (1, 0), (2, 3)], directed=True)
        back = from_networkx(to_networkx(g))
        assert back.directed
        assert np.array_equal(back.edges, g.edges)

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(GraphError):
            from_networkx(g)

    def test_from_networkx_rejects_self_loops(self):
        # Consistent with the constructor: no silent dropping.
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(3))
        g.add_edge(0, 1)
        g.add_edge(2, 2)
        with pytest.raises(GraphError, match="self-loop"):
            from_networkx(g)

    def test_from_networkx_rejects_directed_self_loops(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(2))
        g.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop"):
            from_networkx(g)
