"""PageRank across graph families: correctness and behavioral checks."""

import numpy as np
import pytest

import repro
from oracles import barbell_graph, grid_graph, pagerank_teleport, random_bipartite_graph


@pytest.mark.parametrize(
    "maker,name",
    [
        (lambda: grid_graph(10, 10), "grid"),
        (lambda: barbell_graph(12, bridge_length=4), "barbell"),
        (lambda: random_bipartite_graph(40, 60, 0.08, seed=1), "bipartite"),
        (lambda: repro.chung_lu_graph(120, avg_degree=8, seed=2), "powerlaw"),
        (lambda: repro.random_regularish_graph(100, 6, seed=3), "regularish"),
    ],
    ids=["grid", "barbell", "bipartite", "powerlaw", "regularish"],
)
class TestFamilies:
    def test_distributed_close_to_reference(self, maker, name):
        g = maker()
        ref = repro.pagerank_walk_series(g, eps=0.25)
        res = repro.distributed_pagerank(g, k=6, eps=0.25, seed=4, c=60)
        assert res.l1_error(ref) < 0.12

    def test_top_vertices_recovered(self, maker, name):
        g = maker()
        ref = repro.pagerank_walk_series(g, eps=0.25)
        if ref.max() / ref.min() < 2.5:
            pytest.skip("near-uniform PageRank: top-k is tie-dominated")
        res = repro.distributed_pagerank(g, k=6, eps=0.25, seed=5, c=60)
        top_ref = set(np.argsort(ref)[::-1][:5].tolist())
        top_est = set(np.argsort(res.estimates)[::-1][:15].tolist())
        assert len(top_ref & top_est) >= 4


class TestStructuralExpectations:
    def test_grid_nearly_uniform(self):
        g = grid_graph(12, 12)
        ref = repro.pagerank_walk_series(g, eps=0.2)
        # Degree range is 2..4, so PageRank spread is small.
        assert ref.max() / ref.min() < 2.5

    def test_barbell_bridge_visibility(self):
        g = barbell_graph(10, bridge_length=5)
        ref = repro.pagerank_walk_series(g, eps=0.15)
        # Clique members outrank the middle bridge vertices.
        bridge_mid = 2 * 10 + 1
        assert ref[:10].mean() > ref[bridge_mid]

    def test_bipartite_side_masses_proportionalish(self):
        g = random_bipartite_graph(30, 90, 0.15, seed=6)
        ref = pagerank_teleport(g, eps=0.2)
        left, right = ref[:30].sum(), ref[30:].sum()
        # Total side mass splits roughly with side sizes' edge mass; just
        # check both sides carry real weight.
        assert 0.1 < left < 0.9
        assert left + right == pytest.approx(1.0)

    def test_eps_one_half_decays_fast(self):
        g = grid_graph(8, 8)
        res = repro.distributed_pagerank(g, k=4, eps=0.5, seed=7, c=10)
        small = repro.distributed_pagerank(g, k=4, eps=0.1, seed=7, c=10)
        assert res.iterations < small.iterations

    def test_directed_lowerbound_family(self):
        inst = repro.pagerank_lowerbound_graph(q=50, seed=8)
        ref = inst.analytic_pagerank(0.2)
        res = repro.distributed_pagerank(inst.graph, k=4, eps=0.2, seed=9, c=60)
        # w is the highest-PageRank vertex in both.
        assert int(np.argmax(ref)) == inst.w_id
        assert int(np.argmax(res.estimates)) == inst.w_id
