"""Triangle enumeration across graph families."""

import numpy as np
import pytest

import repro
from repro.graphs.triangles_ref import enumerate_triangles
from oracles import barbell_graph, count_open_triads, grid_graph, random_bipartite_graph


@pytest.mark.parametrize(
    "maker,expected_triangles",
    [
        (lambda: grid_graph(8, 8), 0),
        (lambda: random_bipartite_graph(20, 30, 0.2, seed=1), 0),
        (lambda: barbell_graph(8, bridge_length=2), 2 * 56),  # 2 * C(8,3)
        (lambda: repro.complete_graph(12), 220),
        (lambda: repro.planted_triangles_graph(45, 15, seed=2), 15),
    ],
    ids=["grid", "bipartite", "barbell", "complete", "planted"],
)
class TestKnownCounts:
    def test_distributed_count(self, maker, expected_triangles):
        g = maker()
        res = repro.enumerate_triangles_distributed(g, k=27, seed=3)
        assert res.count == expected_triangles

    def test_congested_clique_count(self, maker, expected_triangles):
        g = maker()
        res = repro.enumerate_triangles_congested_clique(g, seed=4)
        assert res.count == expected_triangles


class TestFamilyBehaviour:
    def test_barbell_triangles_are_in_cliques(self):
        g = barbell_graph(7, bridge_length=3)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=5)
        for a, b, c in res.triangles:
            side = {x // 7 for x in (a, b, c) if x < 14}
            assert len(side) == 1  # never straddles the bridge

    def test_powerlaw_matches_reference(self):
        g = repro.chung_lu_graph(200, avg_degree=10, seed=6)
        res = repro.enumerate_triangles_distributed(g, k=27, seed=7)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_triads_on_bipartite(self):
        # Bipartite graphs can be full of open triads despite zero
        # triangles.
        g = random_bipartite_graph(10, 15, 0.4, seed=8)
        res = repro.enumerate_triangles_distributed(g, k=8, seed=9, enumerate_triads=True)
        assert res.count == 0
        assert res.open_triads.shape[0] == count_open_triads(g)

    def test_k_larger_than_n(self):
        g = repro.complete_graph(10)
        res = repro.enumerate_triangles_distributed(g, k=64, seed=10)
        assert res.count == 120

    def test_k_equals_two(self):
        g = repro.gnp_random_graph(30, 0.3, seed=11)
        res = repro.enumerate_triangles_distributed(g, k=2, seed=12)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_subgraph_enumeration_on_grid(self):
        # A grid has exactly (rows-1)(cols-1) four-cycles and no K4s.
        g = grid_graph(6, 7)
        c4 = repro.enumerate_subgraphs_distributed(g, k=16, pattern="c4", seed=13)
        k4 = repro.enumerate_subgraphs_distributed(g, k=16, pattern="k4", seed=14)
        assert c4.count == 5 * 6
        assert k4.count == 0
