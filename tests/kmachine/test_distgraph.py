"""Unit tests for the DistributedGraph shard layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime
from repro.errors import PartitionError
from repro.graphs.graph import Graph
from repro.kmachine.distgraph import (
    DistributedGraph,
    cached_distgraph,
    clear_distgraph_cache,
    group_neighbors_by_home,
)
from repro.kmachine.parallel import SharedGraphStore
from repro.kmachine.partition import VertexPartition, random_vertex_partition


def make_dg(n=12, k=3, seed=7, p=0.4):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n=n, edges=np.array(pairs, dtype=np.int64).reshape(-1, 2))
    part = random_vertex_partition(n, k, seed=seed)
    return g, part, DistributedGraph(g, part)


class TestConstruction:
    def test_rejects_mismatched_partition(self):
        g = Graph(n=4, edges=[(0, 1)])
        part = random_vertex_partition(5, 2, seed=0)
        with pytest.raises(PartitionError):
            DistributedGraph(g, part)

    def test_basic_attributes(self):
        g, part, dg = make_dg()
        assert dg.n == g.n and dg.k == part.k
        assert dg.home is part.home


class TestCachedViews:
    def test_parts_match_partition(self):
        _, part, dg = make_dg()
        expected = part.vertices_by_machine()
        for a, b in zip(dg.parts, expected):
            assert np.array_equal(a, b)
        assert dg.parts is dg.parts  # cached object identity

    def test_nbr_home_matches_fancy_index(self):
        g, part, dg = make_dg()
        assert np.array_equal(dg.nbr_home, part.home[g.indices])

    def test_degrees_cached(self):
        g, _, dg = make_dg()
        assert np.array_equal(dg.degrees, g.out_degrees())
        assert dg.degrees is dg.degrees

    def test_edge_homes(self):
        g, part, dg = make_dg()
        eh0, eh1 = dg.edge_homes
        assert np.array_equal(eh0, part.home[g.edges[:, 0]])
        assert np.array_equal(eh1, part.home[g.edges[:, 1]])

    def test_edge_homes_empty_graph(self):
        g = Graph(n=5)
        dg = DistributedGraph(g, random_vertex_partition(5, 2, seed=1))
        eh0, eh1 = dg.edge_homes
        assert eh0.size == 0 and eh1.size == 0


class TestPerVertexViews:
    def test_neighbors_and_homes(self):
        g, part, dg = make_dg()
        for v in range(g.n):
            nbrs = g.out_neighbors(v)
            assert np.array_equal(dg.neighbors(v), nbrs)
            assert np.array_equal(dg.neighbor_homes(v), part.home[nbrs])

    def test_local_neighbors_matches_mask(self):
        g, part, dg = make_dg()
        for v in range(g.n):
            nbrs = g.out_neighbors(v)
            for i in range(dg.k):
                expected = nbrs[part.home[nbrs] == i]
                assert np.array_equal(dg.local_neighbors(v, i), expected)

    @pytest.mark.parametrize("machine", [-1, 3])
    def test_local_neighbors_rejects_bad_machine(self, machine):
        _, _, dg = make_dg(k=3)
        with pytest.raises(PartitionError):
            dg.local_neighbors(0, machine)


def _assert_groups_match_mask(ctx, g, home, k):
    """``ctx.home_groups`` slices equal the masked CSR rows for every ``(u, j)``."""
    start, nbrs = ctx.home_groups
    assert start.size == g.n * k + 1 and start[-1] == g.indices.size
    assert np.array_equal(np.sort(nbrs), np.sort(g.indices))
    for u in range(g.n):
        row = g.indices[g.indptr[u] : g.indptr[u + 1]]
        for j in range(k):
            expected = row[home[row] == j]
            assert np.array_equal(nbrs[start[u * k + j] : start[u * k + j + 1]], expected)
            assert np.array_equal(ctx.local_neighbors(u, j), expected)


class TestHomeGroups:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_masked_rows(self, data):
        # Small n against k up to 9 covers k > n, empty machines and
        # isolated vertices; directed graphs have rows with no out-edges.
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, 9))
        directed = data.draw(st.booleans())
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)]
        edges = []
        if pairs:
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
        g = Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2), directed=directed)
        home = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        dg = DistributedGraph(g, VertexPartition(home=home, k=k))
        _assert_groups_match_mask(dg, g, home, k)
        store = SharedGraphStore(dg)
        try:
            view = store.view()
            try:
                _assert_groups_match_mask(view, g, home, k)
            finally:
                view.detach()
        finally:
            store.close()

    def test_builder_on_the_empty_graph(self):
        start, nbrs = group_neighbors_by_home(
            np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64), 4,
        )
        assert start.tolist() == [0] and nbrs.size == 0

    def test_cached(self):
        _, _, dg = make_dg()
        assert dg._home_groups is None
        assert dg.home_groups is dg.home_groups

    @pytest.mark.parametrize(
        "name, params, built",
        [
            ("triangles", {}, False),
            ("mst", {}, False),
            ("connectivity", {}, False),
            ("pagerank", {"enable_heavy_path": False}, False),
            ("pagerank", {}, True),
        ],
    )
    def test_only_the_heavy_path_builds_the_table(self, name, params, built):
        g, part, _ = make_dg(n=40, k=4, p=0.2)
        clear_distgraph_cache()
        try:
            runtime.run(name, g, 4, seed=3, placement=part, **params)
            assert (cached_distgraph(g, part)._home_groups is not None) is built
        finally:
            clear_distgraph_cache()


class TestLocalIndex:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_searchsorted_on_both_contexts(self, data):
        # k up to 9 over at most 10 vertices leaves some machines empty.
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, 9))
        home = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        dg = DistributedGraph(Graph(n=n), VertexPartition(home=home, k=k))
        expected = [int(np.searchsorted(dg.parts[home[v]], v)) for v in range(n)]
        assert dg.local_index.tolist() == expected
        store = SharedGraphStore(dg)
        try:
            view = store.view()
            try:
                assert np.array_equal(view.local_index, dg.local_index)
            finally:
                view.detach()
        finally:
            store.close()

    def test_cached(self):
        _, _, dg = make_dg()
        assert dg._local_index is None
        assert dg.local_index is dg.local_index

    @pytest.mark.parametrize(
        "name, built", [("triangles", False), ("mst", False), ("connectivity", False),
                        ("pagerank", True)],
    )
    def test_only_pagerank_builds_it(self, name, built):
        g, part, _ = make_dg(n=40, k=4, p=0.2)
        clear_distgraph_cache()
        try:
            runtime.run(name, g, 4, seed=3, placement=part)
            assert (cached_distgraph(g, part)._local_index is not None) is built
        finally:
            clear_distgraph_cache()


class TestShards:
    def test_shard_covers_hosted_vertices(self):
        g, part, dg = make_dg()
        seen = []
        for i in range(dg.k):
            sh = dg.shard(i)
            assert sh.machine == i
            assert np.array_equal(sh.vertices, part.machine_vertices(i))
            seen.extend(sh.vertices.tolist())
            for row, v in enumerate(sh.vertices):
                assert np.array_equal(sh.neighbors(row), g.out_neighbors(v))
            assert np.array_equal(sh.degrees, g.out_degrees()[sh.vertices])
            assert np.array_equal(sh.nbr_home, part.home[sh.indices])
        assert sorted(seen) == list(range(g.n))

    def test_shard_cached(self):
        _, _, dg = make_dg()
        assert dg.shard(0) is dg.shard(0)

    def test_shard_rejects_bad_machine(self):
        _, _, dg = make_dg()
        with pytest.raises(PartitionError):
            dg.shard(dg.k)

    def test_shards_builds_all(self):
        _, _, dg = make_dg()
        assert len(dg.shards()) == dg.k

    def test_empty_machine_shard(self):
        g = Graph(n=3, edges=[(0, 1)])
        part = VertexPartition(home=np.array([0, 0, 0]), k=2)
        dg = DistributedGraph(g, part)
        sh = dg.shard(1)
        assert sh.vertices.size == 0 and sh.indices.size == 0


class TestBatchHelpers:
    def test_group_by_machine_matches_flatnonzero(self):
        _, _, dg = make_dg()
        rng = np.random.default_rng(3)
        assignment = rng.integers(0, dg.k, size=50)
        groups = dg.group_by_machine(assignment)
        assert len(groups) == dg.k
        for i, idx in enumerate(groups):
            assert np.array_equal(idx, np.flatnonzero(assignment == i))

    def test_group_by_machine_empty(self):
        _, _, dg = make_dg()
        groups = dg.group_by_machine(np.zeros(0, dtype=np.int64))
        assert all(idx.size == 0 for idx in groups)

    def test_edges_by_shipper_default_rule(self):
        g, part, dg = make_dg()
        groups = dg.edges_by_shipper()
        shipper = part.home[g.edges[:, 0]]
        for i, idx in enumerate(groups):
            assert np.array_equal(idx, np.flatnonzero(shipper == i))

    def test_edges_by_shipper_explicit(self):
        g, _, dg = make_dg()
        shipper = np.zeros(g.m, dtype=np.int64)
        groups = dg.edges_by_shipper(shipper)
        assert groups[0].size == g.m
        assert all(groups[i].size == 0 for i in range(1, dg.k))
