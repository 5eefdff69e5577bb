"""Property-based tests for the graph substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.graphs.lowerbound import pagerank_lowerbound_graph
from repro.graphs.triangles_ref import count_triangles, enumerate_triangles_edges
from oracles import (
    adjacency_matrix,
    count_open_triads,
    has_edge,
    in_degrees,
    neighbors,
    out_neighbors,
)


@st.composite
def edge_sets(draw, max_n=20):
    n = draw(st.integers(3, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=60, unique=True))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestGraphProperties:
    @given(edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, ne):
        n, edges = ne
        g = Graph(n=n, edges=edges)
        assert g.degrees().sum() == 2 * g.m

    @given(edge_sets())
    @settings(max_examples=60, deadline=None)
    def test_has_edge_matches_adjacency_matrix(self, ne):
        n, edges = ne
        g = Graph(n=n, edges=edges)
        a = adjacency_matrix(g)
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert has_edge(g, u, v) == bool(a[u, v])

    @given(edge_sets())
    @settings(max_examples=40, deadline=None)
    def test_neighbor_symmetry(self, ne):
        n, edges = ne
        g = Graph(n=n, edges=edges)
        for u in range(n):
            for v in neighbors(g, u):
                assert u in neighbors(g, int(v))


class TestTriangleProperties:
    @given(edge_sets())
    @settings(max_examples=50, deadline=None)
    def test_matches_matrix_trace_count(self, ne):
        # t = trace(A^3) / 6 for simple undirected graphs.
        n, edges = ne
        g = Graph(n=n, edges=edges)
        a = adjacency_matrix(g).astype(np.int64)
        expected = int(np.trace(a @ a @ a)) // 6
        assert count_triangles(g) == expected

    @given(edge_sets())
    @settings(max_examples=50, deadline=None)
    def test_wedge_identity(self, ne):
        # wedges = open triads + 3 * triangles.
        n, edges = ne
        g = Graph(n=n, edges=edges)
        deg = g.degrees()
        wedges = int((deg * (deg - 1) // 2).sum())
        assert wedges == count_open_triads(g) + 3 * count_triangles(g)

    @given(edge_sets())
    @settings(max_examples=40, deadline=None)
    def test_enumeration_invariant_under_edge_order(self, ne):
        n, edges = ne
        if edges.shape[0] < 2:
            return
        rng = np.random.default_rng(0)
        shuffled = edges[rng.permutation(edges.shape[0])]
        a = enumerate_triangles_edges(n, edges)
        b = enumerate_triangles_edges(n, shuffled)
        assert np.array_equal(a, b)


class TestLowerBoundGraphProperties:
    @given(st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_figure1_shape_invariants(self, q, seed):
        inst = pagerank_lowerbound_graph(q=q, seed=seed)
        g = inst.graph
        assert g.n == 4 * q + 1
        assert g.m == 4 * q
        # w is the unique sink with in-degree q.
        assert in_degrees(g)[inst.w_id] == q
        assert out_neighbors(g, inst.w_id).size == 0
        # Every t has exactly one in- and one out-edge.
        assert np.all(g.out_degrees()[inst.t_ids] == 1)
        assert np.all(in_degrees(g)[inst.t_ids] == 1)

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_lemma4_separation_always_positive(self, q, seed, eps):
        inst = pagerank_lowerbound_graph(q=q, seed=seed)
        v0, v1 = inst.lemma4_values(eps)
        assert v1 > v0 > 0

    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_analytic_pagerank_mass_at_most_one(self, q, seed):
        inst = pagerank_lowerbound_graph(q=q, seed=seed)
        pr = inst.analytic_pagerank(0.2)
        assert 0 < pr.sum() <= 1.0 + 1e-12
