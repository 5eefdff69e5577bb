"""Tests for distributed K4 / C4 enumeration (§1.2 generalization)."""

import numpy as np
import pytest

import repro
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.errors import AlgorithmError


class TestDistributedEnumeration:
    @pytest.mark.parametrize("k", [2, 16, 20, 81])
    def test_k4_exact(self, k):
        g = repro.gnp_random_graph(30, 0.4, seed=1)
        res = repro.enumerate_subgraphs_distributed(g, k=k, pattern="k4", seed=2)
        expected = enumerate_k4_edges(g.n, g.edges)
        res.assert_no_duplicates()
        assert np.array_equal(res.triangles, expected)

    @pytest.mark.parametrize("k", [2, 16, 81])
    def test_c4_exact(self, k):
        g = repro.gnp_random_graph(24, 0.35, seed=3)
        res = repro.enumerate_subgraphs_distributed(g, k=k, pattern="c4", seed=4)
        expected = enumerate_c4_edges(g.n, g.edges)
        assert np.array_equal(res.triangles, expected)

    def test_k4_on_planted_cliques(self):
        # Two disjoint K5s: 2 * C(5,4) = 10 four-cliques.
        import itertools

        edges = [(a, b) for a, b in itertools.combinations(range(5), 2)]
        edges += [(a + 5, b + 5) for a, b in itertools.combinations(range(5), 2)]
        g = repro.Graph(n=12, edges=edges)
        res = repro.enumerate_subgraphs_distributed(g, k=16, pattern="k4", seed=5)
        assert res.count == 10

    def test_without_proxies_still_exact(self):
        g = repro.gnp_random_graph(24, 0.4, seed=6)
        res = repro.enumerate_subgraphs_distributed(
            g, k=16, pattern="k4", seed=7, use_proxies=False
        )
        assert np.array_equal(res.triangles, enumerate_k4_edges(g.n, g.edges))

    def test_deterministic(self):
        g = repro.gnp_random_graph(20, 0.4, seed=8)
        a = repro.enumerate_subgraphs_distributed(g, k=16, pattern="c4", seed=9)
        b = repro.enumerate_subgraphs_distributed(g, k=16, pattern="c4", seed=9)
        assert np.array_equal(a.triangles, b.triangles)
        assert a.rounds == b.rounds

    def test_rerouting_volume_is_m_choose2_colors(self):
        g = repro.gnp_random_graph(30, 0.4, seed=10)
        k = 81  # q = 3 -> 6 owners per edge
        res = repro.enumerate_subgraphs_distributed(g, k=k, pattern="k4", seed=11)
        phase = next(p for p in res.metrics.phase_log if p.label.endswith("to-quads"))
        total = phase.messages  # remote copies only
        assert total <= g.m * 6
        assert total >= g.m * 6 * (1 - 3 / k) - 10

    def test_per_machine_output_sums(self):
        g = repro.gnp_random_graph(26, 0.5, seed=12)
        res = repro.enumerate_subgraphs_distributed(g, k=16, pattern="k4", seed=13)
        assert res.per_machine_output.sum() == res.count

    def test_empty_graph(self):
        g = repro.empty_graph(10)
        res = repro.enumerate_subgraphs_distributed(g, k=16, pattern="k4", seed=14)
        assert res.count == 0

    def test_rejects_bad_pattern(self):
        g = repro.cycle_graph(5)
        with pytest.raises(AlgorithmError, match="pattern"):
            repro.enumerate_subgraphs_distributed(g, k=16, pattern="k5")

    def test_rejects_directed(self):
        g = repro.path_graph(5, directed=True)
        with pytest.raises(AlgorithmError):
            repro.enumerate_subgraphs_distributed(g, k=16, pattern="k4")

    def test_rounds_improve_with_k(self):
        g = repro.gnp_random_graph(80, 0.5, seed=15)
        B = 8
        r16 = repro.enumerate_subgraphs_distributed(
            g, k=16, pattern="k4", seed=16, bandwidth=B
        ).rounds
        r256 = repro.enumerate_subgraphs_distributed(
            g, k=256, pattern="k4", seed=16, bandwidth=B
        ).rounds
        assert r256 < r16
