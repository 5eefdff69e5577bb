"""Tests for congested-clique triangle enumeration (Corollary 1's upper side)."""

import numpy as np
import pytest

import repro
from repro.core.lowerbounds.triangles import congested_clique_lower_bound
from repro.errors import AlgorithmError
from repro.graphs.triangles_ref import enumerate_triangles
from oracles import path_graph


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_gnp(self, seed):
        g = repro.gnp_random_graph(40, 0.5, seed=seed)
        res = repro.enumerate_triangles_congested_clique(g, seed=seed + 5)
        expected = enumerate_triangles(g)
        res.assert_no_duplicates()
        assert np.array_equal(res.triangles, expected)

    def test_sparse_gnp(self):
        g = repro.gnp_random_graph(60, 0.1, seed=2)
        res = repro.enumerate_triangles_congested_clique(g, seed=3)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_complete_graph(self):
        g = repro.complete_graph(20)
        res = repro.enumerate_triangles_congested_clique(g, seed=4)
        assert res.count == 1140  # C(20, 3)

    def test_rejects_directed(self):
        g = path_graph(5, directed=True)
        with pytest.raises(AlgorithmError):
            repro.enumerate_triangles_congested_clique(g)


class TestCost:
    def test_rounds_above_corollary1_bound(self):
        g = repro.gnp_random_graph(64, 0.5, seed=5)
        B = 12
        res = repro.enumerate_triangles_congested_clique(g, seed=6, bandwidth=B)
        assert res.rounds >= congested_clique_lower_bound(g.n, B)

    def test_rounds_grow_sublinearly_in_n(self):
        # Θ̃(n^{1/3}) rounds: growing n by 8x should grow rounds far less
        # than 8x (the edge volume grows 64x!).
        B = 12
        r_small = repro.enumerate_triangles_congested_clique(
            repro.gnp_random_graph(32, 0.5, seed=7), seed=8, bandwidth=B
        ).rounds
        r_big = repro.enumerate_triangles_congested_clique(
            repro.gnp_random_graph(256, 0.5, seed=9), seed=10, bandwidth=B
        ).rounds
        assert r_big < 8 * max(1, r_small)

    def test_machine_count_equals_n(self):
        g = repro.gnp_random_graph(30, 0.4, seed=11)
        res = repro.enumerate_triangles_congested_clique(g, seed=12)
        assert res.metrics.k == g.n
        assert res.per_machine_output.shape == (g.n,)
