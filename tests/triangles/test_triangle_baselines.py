"""Tests for the triangle-enumeration baselines (Klauck-style conversion,
broadcast) and their cost relation to Theorem 5."""

import numpy as np
import pytest

import repro
from repro.errors import AlgorithmError
from repro.graphs.triangles_ref import enumerate_triangles
from oracles import empty_graph, path_graph


class TestConversionBaseline:
    @pytest.mark.parametrize("k", [4, 8, 27])
    def test_exact_enumeration(self, k):
        g = repro.gnp_random_graph(50, 0.3, seed=1)
        res = repro.enumerate_triangles_conversion(g, k=k, seed=2)
        res.assert_no_duplicates()
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_dense_graph(self):
        g = repro.gnp_random_graph(40, 0.6, seed=3)
        res = repro.enumerate_triangles_conversion(g, k=8, seed=4)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_empty_graph(self):
        g = empty_graph(10)
        res = repro.enumerate_triangles_conversion(g, k=4, seed=5)
        assert res.count == 0

    def test_theorem5_beats_conversion_on_dense_inputs(self):
        # The headline comparison: Õ(m/k^{5/3}) vs Õ(n^{7/3}/k²).
        g = repro.gnp_random_graph(150, 0.5, seed=6)
        k, B = 27, 16
        ours = repro.enumerate_triangles_distributed(g, k=k, seed=7, bandwidth=B)
        conv = repro.enumerate_triangles_conversion(g, k=k, seed=7, bandwidth=B)
        assert ours.rounds < conv.rounds

    def test_conversion_traffic_is_m_times_cuberoot_n(self):
        g = repro.gnp_random_graph(64, 0.5, seed=8)
        res = repro.enumerate_triangles_conversion(g, k=8, seed=9)
        q = 4  # floor(64^{1/3})
        total = res.metrics.messages + res.metrics.local_messages
        assert total == g.m * q

    def test_rejects_directed(self):
        g = path_graph(5, directed=True)
        with pytest.raises(AlgorithmError):
            repro.enumerate_triangles_conversion(g, k=4)


class TestBroadcastBaseline:
    @pytest.mark.parametrize("k", [2, 8])
    def test_exact_enumeration(self, k):
        g = repro.gnp_random_graph(40, 0.3, seed=10)
        res = repro.enumerate_triangles_broadcast(g, k=k, seed=11)
        assert np.array_equal(res.triangles, enumerate_triangles(g))

    def test_message_volume_is_m_times_k_minus_one(self):
        g = repro.gnp_random_graph(30, 0.3, seed=12)
        k = 6
        res = repro.enumerate_triangles_broadcast(g, k=k, seed=13)
        assert res.metrics.messages == g.m * (k - 1)

    def test_theorem5_beats_broadcast_at_scale(self):
        g = repro.gnp_random_graph(150, 0.5, seed=14)
        k, B = 64, 16
        ours = repro.enumerate_triangles_distributed(g, k=k, seed=15, bandwidth=B)
        bcast = repro.enumerate_triangles_broadcast(g, k=k, seed=15, bandwidth=B)
        assert ours.rounds < bcast.rounds

    def test_output_attributed_to_machine_zero(self):
        g = repro.gnp_random_graph(30, 0.4, seed=16)
        res = repro.enumerate_triangles_broadcast(g, k=4, seed=17)
        assert res.per_machine_output[0] == res.count
        assert res.per_machine_output[1:].sum() == 0
