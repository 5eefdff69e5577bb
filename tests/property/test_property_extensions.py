"""Property-based tests for the extension modules (subgraphs, MST,
connectivity)."""

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.core.mst import DisjointSetUnion, distributed_mst, kruskal_mst
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.graphs.graph import Graph
from repro.runtime.families import min_vertex_labels


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(4, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=40, unique=True))
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestSubgraphProperties:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_k4_rows_are_cliques(self, g):
        for row in enumerate_k4_edges(g.n, g.edges):
            a, b, c, d = map(int, row)
            assert a < b < c < d
            import itertools

            for x, y in itertools.combinations((a, b, c, d), 2):
                assert g.has_edge(x, y)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_c4_rows_are_cycles(self, g):
        for v0, v1, v2, v3 in enumerate_c4_edges(g.n, g.edges):
            assert g.has_edge(v0, v1) and g.has_edge(v1, v2)
            assert g.has_edge(v2, v3) and g.has_edge(v3, v0)
            assert v0 == min(v0, v1, v2, v3) and v1 < v3

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_k4_count_vs_c4_in_complete_subsets(self, g):
        # Every K4 contributes exactly 3 C4s, so #C4 >= 3 * #K4.
        k4 = enumerate_k4_edges(g.n, g.edges).shape[0]
        c4 = enumerate_c4_edges(g.n, g.edges).shape[0]
        assert c4 >= 3 * k4

    @given(small_graphs(), st.integers(2, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_distributed_k4_exact(self, g, k, seed):
        res = repro.enumerate_subgraphs_distributed(g, k=k, pattern="k4", seed=seed)
        assert np.array_equal(res.triangles, enumerate_k4_edges(g.n, g.edges))


class TestMSTProperties:
    @given(small_graphs(), st.integers(0, 2**31 - 1), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_distributed_weight_matches_kruskal(self, g, seed, k):
        w = np.random.default_rng(seed).random(g.m)
        ref_edges, ref_total = kruskal_mst(g, w)
        res = distributed_mst(g, w, k=k, seed=seed)
        assert abs(res.total_weight - ref_total) < 1e-9
        assert res.edges.shape[0] == ref_edges.shape[0]

    @given(small_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_forest_edge_count_identity(self, g, seed):
        # |forest| = n - #components, always.
        import networkx as nx

        w = np.random.default_rng(seed).random(g.m)
        res = distributed_mst(g, w, k=4, seed=seed)
        comps = nx.number_connected_components(g.to_networkx())
        assert res.edges.shape[0] == g.n - comps
        assert res.num_components == comps

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_dsu_matches_networkx(self, pairs):
        import networkx as nx

        dsu = DisjointSetUnion(20)
        g = nx.Graph()
        g.add_nodes_from(range(20))
        for a, b in pairs:
            if a != b:
                dsu.union(a, b)
                g.add_edge(a, b)
        assert dsu.num_components == nx.number_connected_components(g)


class TestConnectivityProperties:
    @given(small_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_labels_define_components(self, g, seed):
        import networkx as nx
        from repro.core.connectivity import connected_components_distributed

        res = connected_components_distributed(g, k=4, seed=seed)
        for comp in nx.connected_components(g.to_networkx()):
            labels = {int(res.labels[v]) for v in comp}
            assert labels == {min(comp)}

    @given(st.integers(0, 20).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))),
        max_size=40 if n else 0))))
    @settings(max_examples=100, deadline=None)
    def test_min_vertex_labels_match_dsu(self, graph):
        # Multigraphs with isolated vertices, no edges, duplicate edges and self-loops.
        n, pairs = graph
        dsu = DisjointSetUnion(n)
        for a, b in pairs:
            dsu.union(a, b)
        roots = dsu.component_labels()
        first = np.full(n, n, dtype=np.int64)
        np.minimum.at(first, roots, np.arange(n))
        assert np.array_equal(min_vertex_labels(n, np.array(pairs, dtype=np.int64)), first[roots])
