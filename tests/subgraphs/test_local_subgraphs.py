"""Unit tests for sequential K4 / C4 enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.subgraphs.local import (
    count_c4,
    count_k4,
    enumerate_c4_edges,
    enumerate_k4_edges,
)
from repro.errors import GraphError
from repro.graphs.triangles_ref import enumerate_triangles_edges


def brute_k4(graph):
    a = graph.adjacency_matrix()
    return [
        t
        for t in itertools.combinations(range(graph.n), 4)
        if all(a[x, y] for x, y in itertools.combinations(t, 2))
    ]


def loop_k4(n, edges):
    """The set-intersection oracle: extend each triangle by its corners' common neighbours."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = {}
    for u, v in edges:
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    rows = sorted(
        (int(a), int(b), int(c), d)
        for a, b, c in enumerate_triangles_edges(n, edges)
        for d in adj[int(a)] & adj[int(b)] & adj[int(c)] if d > c
    )
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def brute_c4(n, edges):
    """The 4-subset oracle: every 4 vertices in every order, as canonical rows."""
    adj = {frozenset((int(u), int(v))) for u, v in edges}
    out = set()
    for quad in itertools.combinations(range(n), 4):
        for v0, v1, v2, v3 in itertools.permutations(quad):
            if v0 != min(quad) or v1 > v3:
                continue
            if all(frozenset(e) in adj for e in ((v0, v1), (v1, v2), (v2, v3), (v3, v0))):
                out.add((v0, v1, v2, v3))
    return np.array(sorted(out), dtype=np.int64).reshape(-1, 4)


@st.composite
def multigraphs(draw):
    """``(n, edges)``: up to 9 vertices (some isolated), edges repeated and reversed."""
    n = draw(st.integers(0, 9))
    if n < 2:
        return n, np.zeros((0, 2), dtype=np.int64)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=30))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def dense_multigraphs(draw):
    """``(n, edges)``: each pair of up to 10 vertices an edge by a coin flip,
    some edges repeated reversed, and up to 3 isolated vertices on top."""
    core = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(core), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [pair for pair, kept in zip(pairs, keep) if kept]
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    edges = pairs + [(b, a) for a, b in repeats]
    return core + draw(st.integers(0, 3)), np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestK4:
    def test_complete_graph_count(self):
        g = repro.complete_graph(7)
        assert count_k4(g) == 35  # C(7, 4)

    def test_single_k4(self):
        g = repro.complete_graph(4)
        assert enumerate_k4_edges(g.n, g.edges).tolist() == [[0, 1, 2, 3]]

    def test_k4_free(self):
        g = repro.cycle_graph(10)
        assert count_k4(g) == 0

    def test_triangle_is_not_k4(self):
        g = repro.complete_graph(3)
        assert count_k4(g) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce_gnp(self, seed):
        g = repro.gnp_random_graph(18, 0.45, seed=seed)
        ours = enumerate_k4_edges(g.n, g.edges)
        brute = np.array(brute_k4(g), dtype=np.int64).reshape(-1, 4)
        assert np.array_equal(ours, brute)

    def test_rows_sorted_unique(self):
        g = repro.gnp_random_graph(20, 0.5, seed=3)
        rows = enumerate_k4_edges(g.n, g.edges)
        assert np.all(rows[:, 0] < rows[:, 1])
        assert np.all(rows[:, 1] < rows[:, 2])
        assert np.all(rows[:, 2] < rows[:, 3])
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]

    def test_empty_edges(self):
        assert enumerate_k4_edges(5, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)

    @given(dense_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_loop_oracle_on_multigraphs(self, graph):
        n, edges = graph
        ours = enumerate_k4_edges(n, edges)
        assert ours.dtype == np.int64 and ours.shape[1:] == (4,)
        assert np.array_equal(ours, loop_k4(n, edges))

    def test_rejects_directed_count(self):
        g = repro.path_graph(5, directed=True)
        with pytest.raises(GraphError):
            count_k4(g)


class TestC4:
    def test_plain_cycle(self):
        g = repro.cycle_graph(4)
        assert enumerate_c4_edges(g.n, g.edges).tolist() == [[0, 1, 2, 3]]

    def test_k4_contains_three_c4(self):
        g = repro.complete_graph(4)
        assert count_c4(g) == 3

    def test_complete_graph_count(self):
        # K_n has 3 * C(n, 4) four-cycles.
        g = repro.complete_graph(6)
        assert count_c4(g) == 3 * 15

    def test_c4_free(self):
        g = repro.star_graph(10)
        assert count_c4(g) == 0

    def test_path_has_no_c4(self):
        g = repro.path_graph(8)
        assert count_c4(g) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce_gnp(self, seed):
        g = repro.gnp_random_graph(14, 0.4, seed=seed)
        ours = enumerate_c4_edges(g.n, g.edges)
        assert np.array_equal(ours, brute_c4(g.n, g.edges))

    @given(multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_4_subset_oracle_on_multigraphs(self, graph):
        n, edges = graph
        ours = enumerate_c4_edges(n, edges)
        assert ours.dtype == np.int64 and ours.shape[1:] == (4,)
        assert np.array_equal(ours, brute_c4(n, edges))

    def test_canonical_rows(self):
        g = repro.gnp_random_graph(16, 0.4, seed=4)
        rows = enumerate_c4_edges(g.n, g.edges)
        for v0, v1, v2, v3 in rows:
            assert v0 == min(v0, v1, v2, v3)
            assert v1 < v3
            assert g.has_edge(v0, v1) and g.has_edge(v1, v2)
            assert g.has_edge(v2, v3) and g.has_edge(v3, v0)

    def test_bipartite_complete(self):
        # K_{2,3}: C(2,2)*C(3,2) = 3 four-cycles.
        edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
        g = repro.Graph(n=5, edges=edges)
        assert count_c4(g) == 3
