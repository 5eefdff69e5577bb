"""Property-based tests for the distributed algorithms (small instances)."""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import enumerate_triangles
from oracles import cycle_graph


@st.composite
def small_graphs(draw, max_n=16):
    n = draw(st.integers(4, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=40, unique=True))
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestTriangleAlgorithmProperties:
    @given(small_graphs(), st.integers(2, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_distributed_always_exact(self, g, k, seed):
        res = repro.enumerate_triangles_distributed(g, k=k, seed=seed)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    @given(small_graphs(), st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conversion_always_exact(self, g, k, seed):
        res = repro.enumerate_triangles_conversion(g, k=k, seed=seed)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    @given(small_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_congested_clique_always_exact(self, g, seed):
        res = repro.enumerate_triangles_congested_clique(g, seed=seed)
        assert np.array_equal(res.triangles, enumerate_triangles(g))


class TestSortingProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
        st.integers(2, 8),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_sort_is_permutation_and_ordered(self, values, k, seed):
        arr = np.array(values)
        res = repro.distributed_sort(arr, k=k, seed=seed)
        out = res.concatenated()
        assert np.all(np.diff(out) >= 0)
        assert np.array_equal(np.sort(out), np.sort(arr))


class TestPageRankProperties:
    @given(st.integers(5, 30), st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_estimates_nonnegative_and_bounded(self, n, k, seed):
        g = cycle_graph(n)
        res = repro.distributed_pagerank(g, k=k, seed=seed, c=5, eps=0.3)
        assert np.all(res.estimates >= 0)
        assert res.estimates.sum() <= 1.5  # Monte-Carlo noise around 1

    @given(st.integers(2, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_lb_graph_mass_conservation(self, q, seed):
        inst = repro.pagerank_lowerbound_graph(q=q, seed=seed)
        res = repro.distributed_pagerank(inst.graph, k=4, seed=seed, c=5, eps=0.3)
        # Estimated total mass is at most 1 in expectation (dangling
        # absorption); allow noise headroom.
        assert res.estimates.sum() <= 1.2
