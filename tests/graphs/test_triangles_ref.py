"""Unit tests for exact sequential triangle/triad enumeration."""

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import (
    count_open_triads,
    count_triangles,
    enumerate_open_triads,
    enumerate_triangles,
    enumerate_triangles_edges,
)


def nx_triangle_count(g: Graph) -> int:
    return sum(nx.triangles(g.to_networkx()).values()) // 3


class TestEnumerateTriangles:
    def test_single_triangle(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2), (0, 2)])
        tris = enumerate_triangles(g)
        assert tris.tolist() == [[0, 1, 2]]

    def test_triangle_free_graph(self):
        g = gen.cycle_graph(5)
        assert enumerate_triangles(g).shape == (0, 3)

    def test_complete_graph_count(self):
        g = gen.complete_graph(7)
        assert count_triangles(g) == 35  # C(7,3)

    def test_rows_sorted_and_unique(self):
        g = gen.gnp_random_graph(40, 0.3, seed=2)
        tris = enumerate_triangles(g)
        assert np.all(tris[:, 0] < tris[:, 1])
        assert np.all(tris[:, 1] < tris[:, 2])
        assert np.unique(tris, axis=0).shape[0] == tris.shape[0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_networkx_on_gnp(self, seed):
        g = gen.gnp_random_graph(50, 0.25, seed=seed)
        assert count_triangles(g) == nx_triangle_count(g)

    def test_matches_networkx_on_dense(self):
        g = gen.gnp_random_graph(30, 0.7, seed=9)
        assert count_triangles(g) == nx_triangle_count(g)

    def test_every_reported_triple_is_a_triangle(self):
        g = gen.gnp_random_graph(40, 0.3, seed=4)
        for a, b, c in enumerate_triangles(g):
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    def test_planted_triangles_recovered_exactly(self):
        g = gen.planted_triangles_graph(30, 6, seed=0)
        tris = enumerate_triangles(g)
        expected = np.array([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(6)])
        assert np.array_equal(tris, expected)

    def test_rejects_directed(self):
        g = Graph(n=3, edges=[(0, 1)], directed=True)
        with pytest.raises(GraphError):
            enumerate_triangles(g)

    def test_edges_form_handles_duplicates_and_disorder(self):
        edges = np.array([[2, 1], [1, 2], [0, 1], [0, 2]])
        tris = enumerate_triangles_edges(3, edges)
        assert tris.tolist() == [[0, 1, 2]]

    def test_edges_form_empty(self):
        assert enumerate_triangles_edges(5, np.zeros((0, 2), dtype=np.int64)).shape == (0, 3)


class TestOpenTriads:
    def test_path_has_one_open_triad(self):
        g = gen.path_graph(3)
        assert count_open_triads(g) == 1
        triads = enumerate_open_triads(g)
        assert triads.tolist() == [[1, 0, 2]]

    def test_triangle_has_no_open_triads(self):
        g = gen.complete_graph(3)
        assert count_open_triads(g) == 0
        assert enumerate_open_triads(g).shape == (0, 3)

    def test_star_open_triads(self):
        g = gen.star_graph(6)
        # All C(5, 2) leaf pairs are open triads centered at the hub.
        assert count_open_triads(g) == 10

    def test_count_matches_enumeration(self):
        g = gen.gnp_random_graph(25, 0.25, seed=6)
        assert enumerate_open_triads(g).shape[0] == count_open_triads(g)

    def test_enumerated_triads_are_open(self):
        g = gen.gnp_random_graph(25, 0.25, seed=7)
        for center, a, b in enumerate_open_triads(g):
            assert g.has_edge(center, a) and g.has_edge(center, b)
            assert not g.has_edge(a, b)

    def test_limit_enforced(self):
        g = gen.star_graph(30)
        with pytest.raises(GraphError, match="limit"):
            enumerate_open_triads(g, limit=5)
